//! Seeded chaos tests for the fault-tolerant device array: deterministic
//! fault injection at the shard-worker seam, retry/backoff accounting,
//! zero-copy shard failover, and per-job failure isolation. Every
//! recoverable scenario must end byte-identical to the sequential
//! `MegisAnalyzer::analyze` oracle.

use std::time::Duration;

use megis::config::MegisConfig;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_sched::{EngineConfig, FaultPlan, JobError, JobSpec, StreamingEngine, TraceEventKind};

fn cohort(n: usize) -> (MegisAnalyzer, Vec<Sample>) {
    let base = CommunityConfig::preset(Diversity::Medium)
        .with_reads(100)
        .with_database_species(12);
    let reference_community = base.build(512);
    let analyzer = MegisAnalyzer::build(reference_community.references(), MegisConfig::small());
    let samples = (0..n)
        .map(|i| {
            base.build_cohort_sample(512, 9000 + i as u64)
                .sample()
                .clone()
        })
        .collect();
    (analyzer, samples)
}

/// Runs `samples` through a streaming engine under `config`, asserting
/// every job succeeds, and returns the outputs in submission order plus
/// the shutdown report.
fn run_expecting_success(
    analyzer: MegisAnalyzer,
    samples: &[Sample],
    config: EngineConfig,
) -> (Vec<MegisOutput>, megis_sched::ServiceReport) {
    let engine = StreamingEngine::new(analyzer, config);
    let handles: Vec<_> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            engine
                .submit(JobSpec::new(format!("s{i}"), s.clone()))
                .expect("admission")
        })
        .collect();
    let outputs = handles
        .into_iter()
        .map(|h| h.wait().expect("job recovered").output)
        .collect();
    (outputs, engine.shutdown())
}

/// Drains `engine` and asserts every queue-depth slot came back: no
/// command is outstanding on any shard and no job is in flight. A failed
/// job's purge must free each of its slots exactly once — a leak leaves a
/// nonzero count here, a double free underflows.
fn assert_slots_released(engine: &StreamingEngine) {
    engine.drain();
    let snapshot = engine.snapshot();
    assert!(
        snapshot.shard_inflight.iter().all(|&n| n == 0),
        "queue-depth slots leaked: {:?}",
        snapshot.shard_inflight
    );
    assert_eq!(snapshot.in_flight, 0);
}

/// Every command faults exactly once (rate 1.0, burst 1) across a grid of
/// worker/shard shapes; the engine retries each in place and the results
/// stay byte-identical to the sequential oracle, with exact
/// faults == retries accounting.
#[test]
fn transient_fault_storm_is_invisible_to_results() {
    const SAMPLES: usize = 6;
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    for (workers, shards, seed) in [(1usize, 1usize, 7u64), (2, 3, 11), (4, 4, 13)] {
        let plan = FaultPlan::seeded(seed).with_transient_rate(1.0);
        let (outputs, report) = run_expecting_success(
            analyzer.clone(),
            &samples,
            EngineConfig::new()
                .with_workers(workers)
                .with_shards(shards)
                .with_fault_plan(plan),
        );
        for (i, output) in outputs.iter().enumerate() {
            assert_eq!(
                *output, expected[i],
                "w{workers}/s{shards}: sample {i} diverged under transient faults"
            );
        }
        let faults: u64 = report.shard_stats.iter().map(|s| s.faults).sum();
        let retries: u64 = report.shard_stats.iter().map(|s| s.retries).sum();
        assert!(
            faults > 0,
            "w{workers}/s{shards}: the plan injected nothing"
        );
        assert_eq!(
            faults, retries,
            "w{workers}/s{shards}: every transient fault is retried exactly once"
        );
        assert_eq!(report.failed_jobs, 0);
        assert_eq!(report.completed, SAMPLES as u64);
        assert!(
            report.summary().contains("degraded"),
            "faulted run surfaces a degraded-mode line:\n{}",
            report.summary()
        );
    }
}

/// With tracing on, the event log's fault/retry events reconcile with the
/// shard counters, and command issues balance completions plus faults.
#[test]
fn trace_events_reconcile_with_fault_counters() {
    const SAMPLES: usize = 5;
    let (analyzer, samples) = cohort(SAMPLES);
    let plan = FaultPlan::seeded(21).with_transient_rate(1.0);
    let (_, report) = run_expecting_success(
        analyzer,
        &samples,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(3)
            .with_fault_plan(plan)
            .with_tracing(),
    );

    let trace = report.trace.as_ref().expect("tracing on");
    assert_eq!(trace.dropped, 0, "chaos run fits the default ring");
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut fault_events = 0u64;
    let mut retry_events = 0u64;
    for event in &trace.events {
        match event.kind {
            TraceEventKind::CommandIssued { .. } => issued += 1,
            TraceEventKind::CommandCompleted { .. } => completed += 1,
            TraceEventKind::Fault { .. } => fault_events += 1,
            TraceEventKind::Retry { .. } => retry_events += 1,
            _ => {}
        }
    }
    let faults: u64 = report.shard_stats.iter().map(|s| s.faults).sum();
    let retries: u64 = report.shard_stats.iter().map(|s| s.retries).sum();
    assert_eq!(fault_events, faults, "trace and counters agree on faults");
    assert_eq!(retry_events, retries, "trace and counters agree on retries");
    assert_eq!(
        issued,
        completed + faults,
        "every issue ends in exactly one completion or fault"
    );
    let straggler = report.straggler.as_ref().expect("straggler analysis");
    assert_eq!(straggler.faults.iter().sum::<u64>(), faults);
    assert_eq!(straggler.retries.iter().sum::<u64>(), retries);
}

/// A shard dies permanently after its first command; its outstanding and
/// future commands fail over to the surviving device (which holds the same
/// zero-copy storage) and every result stays byte-identical.
#[test]
fn dead_shard_fails_over_without_losing_a_job() {
    const SAMPLES: usize = 6;
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    let plan = FaultPlan::seeded(5).with_shard_death(0, 1);
    let (outputs, report) = run_expecting_success(
        analyzer,
        &samples,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(2)
            .with_fault_plan(plan),
    );
    for (i, output) in outputs.iter().enumerate() {
        assert_eq!(*output, expected[i], "sample {i} diverged after failover");
    }
    assert!(report.shard_stats[0].dead, "shard 0 reported dead");
    assert!(!report.shard_stats[1].dead, "shard 1 survived");
    let failovers: u64 = report.shard_stats.iter().map(|s| s.failovers).sum();
    assert!(failovers > 0, "commands rerouted off the dead shard");
    assert_eq!(report.failed_jobs, 0);
    assert_eq!(report.completed, SAMPLES as u64);
}

/// An injected worker panic fails only the targeted job: the affected
/// handle resolves to `Err(WorkerPanicked)`, sibling jobs complete with
/// oracle-identical output, and the engine keeps accepting work afterward.
#[test]
fn worker_panic_is_isolated_to_one_job() {
    const SAMPLES: usize = 4;
    let (analyzer, samples) = cohort(SAMPLES + 1);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    // One worker, two shards: seq 1's intersect command on shard 0 panics.
    let plan = FaultPlan::seeded(3).with_worker_panic(1, 0);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(1)
            .with_shards(2)
            .with_fault_plan(plan),
    );
    let handles: Vec<_> = samples[..SAMPLES]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            engine
                .submit(JobSpec::new(format!("s{i}"), s.clone()))
                .expect("admission")
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(result) => assert_eq!(result.output, expected[i], "surviving sample {i} diverged"),
            Err(JobError::WorkerPanicked { shard, .. }) => {
                assert_eq!(i, 1, "only the targeted job fails");
                assert_eq!(shard, 0, "failure names the panicking device");
            }
            Err(other) => panic!("sample {i}: unexpected failure {other}"),
        }
    }
    assert_slots_released(&engine);

    // The engine is not poisoned: a fresh submission still completes.
    let late = engine
        .submit(JobSpec::new("late", samples[SAMPLES].clone()))
        .expect("admission after panic");
    let result = late.wait().expect("engine still serves after the panic");
    assert_eq!(result.output, expected[SAMPLES]);

    let report = engine.shutdown();
    assert_eq!(report.failed_jobs, 1);
    assert_eq!(report.completed, SAMPLES as u64, "4 of 5 jobs delivered Ok");
    let error = JobError::WorkerPanicked {
        job: megis_sched::JobId(1),
        shard: 0,
    };
    assert!(error.to_string().contains("failed"), "{error}");
    let dynamic: &dyn std::error::Error = &error;
    assert!(dynamic.to_string().contains("job#"), "{dynamic}");
}

/// A fault burst deeper than the retry budget exhausts it: the job fails
/// with `RetriesExhausted { attempts: budget + 1 }` and the engine drains
/// cleanly instead of hanging on the never-succeeding command.
#[test]
fn retry_budget_exhaustion_fails_the_job_not_the_engine() {
    let (analyzer, samples) = cohort(2);

    // Burst 10 >> budget 2: the first sampled command can never succeed.
    let plan = FaultPlan::seeded(17)
        .with_transient_rate(1.0)
        .with_transient_burst(10);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(1)
            .with_shards(1)
            .with_fault_plan(plan)
            .with_retry_budget(2)
            .with_retry_backoff(Duration::from_micros(50)),
    );
    let doomed = engine
        .submit(JobSpec::new("doomed", samples[0].clone()))
        .expect("admission");
    match doomed.wait() {
        Err(JobError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 3, "budget 2 allows attempts 0, 1, 2");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_slots_released(&engine);

    // Rate 1.0 dooms every command equally, so prove the engine itself
    // survived by letting the second job exhaust too, then draining.
    let second = engine
        .submit(JobSpec::new("also-doomed", samples[1].clone()))
        .expect("admission after failure");
    assert!(second.wait().is_err());
    assert_slots_released(&engine);
    let report = engine.shutdown();
    assert_eq!(report.failed_jobs, 2);
    assert_eq!(report.completed, 0);
}

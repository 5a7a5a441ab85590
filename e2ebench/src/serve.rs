//! Set-up and the engine runs: FASTA bytes in through
//! `ReadSet::from_fasta`, results out of one `StreamingEngine`, each result
//! checked against the `MegisAnalyzer::analyze` oracle.

use std::time::{Duration, Instant};

use megis::{MegisAnalyzer, MegisConfig, MegisOutput};
use megis_genomics::read::ReadSet;
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::Sample;
use megis_sched::{EngineConfig, FaultPlan, JobResult, JobSpec, ServiceReport, StreamingEngine};

use crate::stats::median;
use crate::workload::{Arrival, Workload, FAULT_RATE};

/// The engine configuration a workload runs under: `EngineConfig::new()`
/// defaults (2 workers, 2 shards, depth 4, no injected latency, coalescing
/// and tracing off), plus the seeded transient-fault plan for
/// `cohort_faults`. The plan's burst is 1, within the default retry budget,
/// so every fault is recoverable.
pub fn engine_config(workload: &Workload, seed: u64) -> EngineConfig {
    let config = EngineConfig::new();
    if workload.faults {
        config.with_fault_plan(FaultPlan::seeded(seed).with_transient_rate(FAULT_RATE))
    } else {
        config
    }
}

/// Parses one FASTA document into a sample.
pub fn parse(fasta: &[u8]) -> Sample {
    Sample::from_reads(ReadSet::from_fasta(fasta).expect("generated FASTA parses"))
}

/// A started engine plus what set-up produced on the way.
pub struct Started {
    /// The running engine.
    pub engine: StreamingEngine,
    /// Seconds of each set-up (`MegisAnalyzer::build` plus
    /// `StreamingEngine::new`); the last one built `engine`.
    pub setup_s: Vec<f64>,
    /// `MegisAnalyzer::analyze` of every distinct sample, computed on the
    /// analyzer before it moved into the engine.
    pub oracle: Vec<MegisOutput>,
}

/// Sets up `repeats` times and keeps the last engine. Each earlier set-up
/// is shut down before the next starts, so only one analyzer is ever held.
/// The oracle runs between the last build and its `StreamingEngine::new`
/// and is excluded from the set-up time.
pub fn start(
    references: &ReferenceCollection,
    fasta: &[Vec<u8>],
    config: &EngineConfig,
    repeats: usize,
) -> Started {
    let mut setup_s = Vec::with_capacity(repeats);
    for _ in 1..repeats {
        let t = Instant::now();
        let analyzer = MegisAnalyzer::build(references, MegisConfig::small());
        let engine = StreamingEngine::new(analyzer, config.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        engine.shutdown();
    }
    let t = Instant::now();
    let analyzer = MegisAnalyzer::build(references, MegisConfig::small());
    let build = t.elapsed();
    let oracle = fasta.iter().map(|f| analyzer.analyze(&parse(f))).collect();
    let t = Instant::now();
    let engine = StreamingEngine::new(analyzer, config.clone());
    setup_s.push((build + t.elapsed()).as_secs_f64());
    Started {
        engine,
        setup_s,
        oracle,
    }
}

/// What one engine delivered over a run.
#[derive(Debug, Default)]
pub struct Served {
    /// Per-sample milliseconds from handing in the FASTA bytes to
    /// receiving the result.
    pub latencies_ms: Vec<f64>,
    /// Reads per second of each round: reads delivered over the wall time
    /// from the round's first FASTA hand-in to its last result.
    pub round_reads_per_s: Vec<f64>,
    /// Wall time the engine spent serving rounds.
    pub busy_wall: Duration,
    /// The engine's per-job accounting of every delivered result.
    pub results: Vec<JobResult>,
    /// Jobs submitted (or refused at admission).
    pub attempted: u64,
    /// Jobs that resolved to an error or were refused.
    pub failed: u64,
    /// Delivered outputs that differ from the oracle.
    pub mismatches: u64,
}

impl Served {
    /// Median per-round throughput.
    pub fn reads_per_s(&self) -> f64 {
        median(&self.round_reads_per_s)
    }
}

/// One round: every distinct sample once, handed in by a single client as
/// the workload's arrival pattern says.
pub fn round(
    engine: &StreamingEngine,
    arrival: Arrival,
    fasta: &[Vec<u8>],
    oracle: &[MegisOutput],
    served: &mut Served,
) {
    let mut first_in = None;
    let mut last_out = None;
    let mut reads = 0usize;
    let mut pending = Vec::with_capacity(fasta.len());
    for (index, bytes) in fasta.iter().enumerate() {
        let handed_in = Instant::now();
        first_in.get_or_insert(handed_in);
        let sample = parse(bytes);
        let sample_reads = sample.len();
        served.attempted += 1;
        match engine.submit(JobSpec::new(format!("sample-{index}"), sample)) {
            Ok(handle) => pending.push((index, handed_in, sample_reads, handle)),
            Err(_) => served.failed += 1,
        }
        if arrival == Arrival::ClosedLoop {
            reads += collect(&mut pending, oracle, served, &mut last_out);
        }
    }
    reads += collect(&mut pending, oracle, served, &mut last_out);
    if let (Some(first), Some(last)) = (first_in, last_out) {
        let wall = last.duration_since(first);
        served.busy_wall += wall;
        if reads > 0 {
            served
                .round_reads_per_s
                .push(reads as f64 / wall.as_secs_f64());
        }
    }
}

/// Waits for every pending job in submission order (the engine delivers in
/// dispatch order, which is submission order under FIFO) and records each
/// outcome; returns the reads delivered.
fn collect(
    pending: &mut Vec<(usize, Instant, usize, megis_sched::JobHandle)>,
    oracle: &[MegisOutput],
    served: &mut Served,
    last_out: &mut Option<Instant>,
) -> usize {
    let mut reads = 0;
    for (index, handed_in, sample_reads, handle) in pending.drain(..) {
        let outcome = handle.wait();
        let received = Instant::now();
        *last_out = Some(received);
        match outcome {
            Ok(result) => {
                if result.output != oracle[index] {
                    served.mismatches += 1;
                }
                served
                    .latencies_ms
                    .push(received.duration_since(handed_in).as_secs_f64() * 1e3);
                reads += sample_reads;
                served.results.push(result);
            }
            Err(_) => served.failed += 1,
        }
    }
    reads
}

/// Engine-layer figures read from the public `JobResult`s and
/// `ServiceReport` of one engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineFigures {
    /// Median time a job queued before Step 1.
    pub queue_wait_ms: f64,
    /// Median host Step 1 time inside the engine.
    pub step1_ms: f64,
    /// Median in-SSD stage time (intersect, taxID retrieval, Step 3).
    pub isp_ms: f64,
    /// Median latency minus queue wait: the time a job spent in service.
    pub service_ms: f64,
    /// Mean over shards of busy time over the engine's serving wall time.
    pub shard_busy_frac: f64,
    /// Stage-overlap observations.
    pub stage_overlap_events: u64,
    /// Highest per-shard command-queue occupancy.
    pub peak_inflight: usize,
    /// Step 3 candidate items served from a peer's queue.
    pub stolen_items: u64,
    /// Injected command faults.
    pub faults: u64,
    /// Command re-issues.
    pub retries: u64,
    /// Host bytes the shard set kept resident.
    pub resident_db_bytes: u64,
}

impl EngineFigures {
    /// Reads the figures of one finished engine.
    pub fn read(served: &Served, report: &ServiceReport) -> EngineFigures {
        let ms = |f: fn(&JobResult) -> Duration| -> f64 {
            let values: Vec<f64> = served
                .results
                .iter()
                .map(|r| f(r).as_secs_f64() * 1e3)
                .collect();
            median(&values)
        };
        let busy: Vec<f64> = report
            .shard_stats
            .iter()
            .map(|s| s.busy.as_secs_f64() / served.busy_wall.as_secs_f64())
            .collect();
        EngineFigures {
            queue_wait_ms: ms(|r| r.queue_wait),
            step1_ms: ms(|r| r.step1_time),
            isp_ms: ms(|r| r.isp_time),
            service_ms: ms(|r| r.latency.saturating_sub(r.queue_wait)),
            shard_busy_frac: busy.iter().sum::<f64>() / busy.len().max(1) as f64,
            stage_overlap_events: report.stage_overlap_events,
            peak_inflight: report
                .shard_stats
                .iter()
                .map(|s| s.peak_inflight)
                .max()
                .unwrap_or(0),
            stolen_items: report.shard_stats.iter().map(|s| s.stolen_items).sum(),
            faults: report.shard_stats.iter().map(|s| s.faults).sum(),
            retries: report.shard_stats.iter().map(|s| s.retries).sum(),
            resident_db_bytes: report.resident_database_bytes,
        }
    }
}

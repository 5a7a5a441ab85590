//! End-to-end benchmark of the MegIS reproduction.
//!
//! ```text
//! megis-e2ebench --workload <cohort|large_db|cohort_faults> --seed <n>
//!                --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: generated FASTA bytes go
//! through `ReadSet::from_fasta` into one `StreamingEngine` for at least
//! `--seconds`, and every result is checked against
//! `MegisAnalyzer::analyze`. `--trace 1` is the separate traced run: it
//! times each layer's public function per sample and reads the engine's
//! own accounting. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; see `README.md`.

#![forbid(unsafe_code)]

mod layers;
mod serve;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use megis::MegisAnalyzer;
use megis_sched::{ModeledAccount, ShardSet, StreamingEngine};
use megis_ssd::ByteSize;
use megis_tools::WorkloadSpec;

use layers::SampleLayers;
use serve::{EngineFigures, Served};
use stats::{median, percentile, tail_percentile, Clock, Metric};
use workload::{Inputs, Scale, Workload};

/// Measuring stops after this long even if a workload has not collected
/// its minimum latency count, so a run always ends well within three
/// minutes.
const MEASURE_CAP: Duration = Duration::from_secs(100);

/// The traced run's layer closure must land within this share of the
/// sequential `analyze` wall time.
const CLOSURE_TOLERANCE: f64 = 0.25;

/// Layer passes over the distinct samples in the traced run; the passes
/// alternate whether `analyze` or the layer-by-layer run goes first.
const LAYER_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--scale" if value == "tiny" => scale = Scale::Tiny,
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::find(&name, scale).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("megis-e2ebench: {message}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    println!(
        "workload {} (seed {}, {} s, trace {}): {:?} preset, {} of {} database species, \
         {} bp genomes, {} reads x {} samples, {:?}{}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.shape.diversity,
        w.shape.species,
        w.shape.database_species,
        w.shape.genome_len,
        w.shape.reads,
        w.shape.samples,
        w.arrival,
        if w.faults {
            format!(", transient faults at rate {}", workload::FAULT_RATE)
        } else {
            String::new()
        }
    );
    let inputs = workload::generate(&w.shape, args.seed);
    let outcome = if args.trace {
        traced(&args, &inputs)
    } else {
        untraced(&args, &inputs)
    };
    print!("{}", stats::table(&outcome.metrics));
    println!(
        "{}",
        stats::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Serves rounds on each engine in turn until `seconds` have passed and
/// every engine has delivered the workload's minimum latency count.
fn measure(
    args: &Args,
    engines: &[&StreamingEngine],
    inputs: &Inputs,
    oracle: &[megis::MegisOutput],
) -> Vec<Served> {
    let w = &args.workload;
    let mut served: Vec<Served> = engines.iter().map(|_| Served::default()).collect();
    let start = Instant::now();
    let enough = |served: &[Served]| {
        start.elapsed() >= Duration::from_secs(args.seconds)
            && served
                .iter()
                .all(|s| s.latencies_ms.len() >= w.shape.min_latencies)
    };
    while !enough(&served) && start.elapsed() < MEASURE_CAP {
        for (engine, s) in engines.iter().zip(served.iter_mut()) {
            serve::round(engine, w.arrival, &inputs.fasta, oracle, s);
        }
    }
    served
}

fn untraced(args: &Args, inputs: &Inputs) -> Outcome {
    let w = &args.workload;
    let config = serve::engine_config(w, args.seed);
    let started = serve::start(
        &inputs.references,
        &inputs.fasta,
        &config,
        w.shape.setup_repeats,
    );
    let served = measure(args, &[&started.engine], inputs, &started.oracle)
        .pop()
        .expect("one engine");
    started.engine.shutdown();

    let n = served.latencies_ms.len();
    let tail_pct = tail_percentile(w.shape.min_latencies).expect("min_latencies >= 20");
    let tail = percentile(&served.latencies_ms, tail_pct);
    let delivered = served.attempted - served.failed;
    println!(
        "parity with MegisAnalyzer::analyze: {} of {} delivered outputs identical",
        delivered - served.mismatches,
        delivered
    );
    let rounds: Vec<String> = served
        .round_reads_per_s
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("reads/s by round: {}", rounds.join(" "));
    let metrics = vec![
        Metric::new(
            "reads_per_s",
            served.reads_per_s(),
            "reads/s",
            Clock::MeasuredHost,
        )
        .with_note(format!(
            "median of {} rounds",
            served.round_reads_per_s.len()
        )),
        Metric::new(
            "latency_p50_ms",
            median(&served.latencies_ms),
            "ms",
            Clock::MeasuredHost,
        )
        .with_note(format!("{n} samples")),
        Metric::new("latency_tail_ms", tail, "ms", Clock::MeasuredHost).with_note(format!(
            "p{tail_pct} of {n} samples, {} beyond",
            stats::beyond(tail_pct, n)
        )),
        Metric::new(
            "setup_s",
            median(&started.setup_s),
            "s",
            Clock::MeasuredHost,
        )
        .with_note(format!("median of {} set-ups", started.setup_s.len())),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", Clock::Count).with_note("VmHWM"),
        Metric::new(
            "delivered_frac",
            delivered as f64 / served.attempted.max(1) as f64,
            "frac",
            Clock::Count,
        )
        .with_note(format!(
            "failed_frac {:.4} ({} of {} jobs failed)",
            served.failed as f64 / served.attempted.max(1) as f64,
            served.failed,
            served.attempted
        )),
    ];
    Outcome {
        correct: served.mismatches == 0 && served.attempted > 0,
        attempted: served.attempted,
        failed: served.failed,
        metrics,
    }
}

fn traced(args: &Args, inputs: &Inputs) -> Outcome {
    let w = &args.workload;
    let config = serve::engine_config(w, args.seed);
    let analyzer = MegisAnalyzer::build(&inputs.references, megis::MegisConfig::small());
    let setup = layers::time_setup(&inputs.references, &analyzer);
    let db_heap_bytes = analyzer.database().storage().heap_bytes();

    // Per-layer spans, one sample at a time, on the analyzer the untraced
    // engine then serves with.
    let shards = ShardSet::build(analyzer.database(), config.shards);
    let mut samples: Vec<SampleLayers> = Vec::new();
    let mut oracle = Vec::new();
    let mut layer_mismatches = 0u64;
    for pass in 0..LAYER_PASSES {
        for (index, fasta) in inputs.fasta.iter().enumerate() {
            let analyze_first = (pass + index) % 2 == 0;
            let (spans, composed, expected) =
                layers::time_sample(&analyzer, &shards, fasta, analyze_first);
            layer_mismatches += u64::from(composed != expected || spans.split_step3_differs);
            if pass == 0 {
                oracle.push(expected);
            }
            samples.push(spans);
        }
    }
    let modeled_s = modeled_pipelined_s(w, &config, &analyzer, &samples);
    drop(shards);

    // The untraced engine gives the engine figures; the traced one runs in
    // alternating rounds beside it for the tracing overhead. The traced
    // engine gets a second build, not a clone: a clone lays the sketch
    // tables out compactly, which alone made Step 2 about a third faster on
    // `large_db` and would be misread as tracing overhead.
    let second = MegisAnalyzer::build(&inputs.references, megis::MegisConfig::small());
    let plain = StreamingEngine::new(analyzer, config.clone());
    let with_trace = StreamingEngine::new(second, config.with_tracing());
    let mut served = measure(args, &[&plain, &with_trace], inputs, &oracle);
    let traced_served = served.pop().expect("two engines");
    let plain_served = served.pop().expect("two engines");
    let plain_report = plain.shutdown();
    with_trace.shutdown();
    let engine = EngineFigures::read(&plain_served, &plain_report);

    let layer = |f: fn(&SampleLayers) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let closure = layer(SampleLayers::closure);
    let closed = (closure - 1.0).abs() <= CLOSURE_TOLERANCE;
    let mismatches = layer_mismatches + plain_served.mismatches + traced_served.mismatches;
    println!(
        "parity with MegisAnalyzer::analyze: {} mismatches (layer composition {}, \
         untraced engine {}, traced engine {})",
        mismatches, layer_mismatches, plain_served.mismatches, traced_served.mismatches
    );
    println!(
        "layer closure: {closure:.3} of analyze wall time (tolerance +/-{CLOSURE_TOLERANCE}): {}",
        if closed { "closed" } else { "NOT closed" }
    );
    let trace_overhead = 1.0 - traced_served.reads_per_s() / plain_served.reads_per_s();
    let per = format!("per-sample median of {} spans", samples.len());
    let host = |name, f: fn(&SampleLayers) -> f64| {
        Metric::new(name, layer(f), "ms", Clock::MeasuredHost).with_note(per.as_str())
    };
    let count = |name, f: fn(&SampleLayers) -> f64| {
        Metric::new(name, layer(f), "count", Clock::Count).with_note(per.as_str())
    };
    let jobs = format!("over {} jobs", plain_served.results.len());
    let engine_ms = |name, value| {
        Metric::new(name, value, "ms", Clock::MeasuredHost).with_note("median per job")
    };
    let engine_count = |name, value: u64| {
        Metric::new(name, value as f64, "count", Clock::Count).with_note(jobs.as_str())
    };
    let metrics = vec![
        host("read.parse_ms", |l| l.parse_ms),
        host("step1.count_ms", |l| l.count_ms),
        host("step1.ms", |l| l.step1_ms),
        count("step1.extracted_kmers", |l| l.extracted_kmers as f64),
        count("step1.selected_kmers", |l| l.selected_kmers as f64),
        host("step2.intersect_ms", |l| l.intersect_ms),
        count("step2.query_kmers", |l| l.query_kmers as f64),
        count("step2.hits", |l| l.hits as f64),
        Metric::new(
            "step2.hit_ratio",
            layer(|l| l.hits as f64 / l.query_kmers.max(1) as f64),
            "frac",
            Clock::Count,
        )
        .with_note("hits per query k-mer"),
        host("step2.taxid_ms", |l| l.taxid_ms),
        host("step2.presence_ms", |l| l.presence_ms),
        count("step2.candidates", |l| l.candidates as f64),
        host("step3.partition_ms", |l| l.partition_ms),
        host("step3.map_ms", |l| l.map_ms),
        host("step3.map_max_part_ms", |l| l.map_max_part_ms),
        host("step3.reduce_ms", |l| l.reduce_ms),
        count("step3.mapped_reads", |l| l.mapped_reads as f64),
        Metric::new(
            "step3.map_ratio",
            layer(|l| l.mapped_reads as f64 / l.reads.max(1) as f64),
            "frac",
            Clock::Count,
        )
        .with_note("mapped reads per read"),
        Metric::new("layers.closure_frac", closure, "frac", Clock::MeasuredHost)
            .with_note("layer self times over analyze wall time"),
        Metric::new(
            "setup.db_build_ms",
            setup.db_build_ms,
            "ms",
            Clock::MeasuredHost,
        ),
        Metric::new(
            "setup.sketch_build_ms",
            setup.sketch_build_ms,
            "ms",
            Clock::MeasuredHost,
        ),
        Metric::new(
            "setup.kss_build_ms",
            setup.kss_build_ms,
            "ms",
            Clock::MeasuredHost,
        ),
        Metric::new(
            "setup.index_build_ms",
            setup.index_build_ms,
            "ms",
            Clock::MeasuredHost,
        ),
        Metric::new(
            "setup.db_heap_bytes",
            db_heap_bytes as f64,
            "bytes",
            Clock::Count,
        ),
        engine_ms("engine.queue_wait_ms", engine.queue_wait_ms),
        engine_ms("engine.step1_ms", engine.step1_ms),
        engine_ms("engine.isp_ms", engine.isp_ms),
        Metric::new(
            "engine.shard_busy_frac",
            engine.shard_busy_frac,
            "frac",
            Clock::MeasuredHost,
        )
        .with_note("mean shard busy time over serving wall time"),
        engine_count("engine.stage_overlap_events", engine.stage_overlap_events),
        engine_count("engine.peak_inflight", engine.peak_inflight as u64),
        engine_count("engine.stolen_items", engine.stolen_items),
        engine_count("engine.faults", engine.faults),
        engine_count("engine.retries", engine.retries),
        Metric::new(
            "engine.resident_db_bytes",
            engine.resident_db_bytes as f64,
            "bytes",
            Clock::Count,
        ),
        Metric::new(
            "engine.overhead_ms",
            engine.service_ms - layer(SampleLayers::self_sum_ms),
            "ms",
            Clock::MeasuredHost,
        )
        .with_note("median in-service latency minus layer self-time sum"),
        Metric::new(
            "engine.trace_overhead_frac",
            trace_overhead,
            "frac",
            Clock::MeasuredHost,
        )
        .with_note(format!(
            "traced {:.0} vs untraced {:.0} reads/s",
            traced_served.reads_per_s(),
            plain_served.reads_per_s()
        )),
        Metric::new("model.pipelined_s", modeled_s, "s", Clock::ModeledDevice)
            .with_note("ModeledAccount::compute on this workload's shape"),
    ];
    let attempted = plain_served.attempted + traced_served.attempted;
    let failed = plain_served.failed + traced_served.failed;
    Outcome {
        correct: mismatches == 0 && closed && attempted > 0,
        attempted,
        failed,
        metrics,
    }
}

/// `ModeledAccount::compute`'s pipelined batch time for the workload's own
/// shape: its reads, k-mer counts, database, KSS and candidate-index sizes
/// (means over the measured samples), on the engine's modeled system.
fn modeled_pipelined_s(
    w: &Workload,
    config: &megis_sched::EngineConfig,
    analyzer: &MegisAnalyzer,
    samples: &[SampleLayers],
) -> f64 {
    let mean = |f: fn(&SampleLayers) -> u64| {
        samples.iter().map(f).sum::<u64>() / samples.len().max(1) as u64
    };
    let kmer_bytes = (2 * analyzer.config().k()).div_ceil(8) as u64;
    let mut spec = WorkloadSpec::cami(w.shape.diversity);
    spec.label = w.name.to_string();
    spec.reads = mean(|l| l.reads);
    spec.metalign_k = analyzer.config().k() as u64;
    spec.metalign_db = ByteSize::from_bytes(analyzer.database().encoded_bytes());
    spec.sketch_tree = ByteSize::from_bytes(analyzer.sketches().flat_table_bytes());
    spec.kss_tables = analyzer.kss().size_bytes();
    spec.candidate_reference_indexes = ByteSize::from_bytes(mean(|l| l.candidate_index_bytes));
    spec.extracted_kmers = mean(|l| l.extracted_kmers);
    spec.selected_kmers = mean(|l| l.selected_kmers);
    spec.extracted_kmer_bytes = ByteSize::from_bytes(spec.extracted_kmers * kmer_bytes);
    spec.selected_kmer_bytes = ByteSize::from_bytes(spec.selected_kmers * kmer_bytes);
    spec.intersecting_kmers = mean(|l| l.hits);
    spec.candidate_species = mean(|l| l.candidates);
    ModeledAccount::compute(&config.system, &spec, w.shape.samples, config.shards)
        .pipelined_total()
        .as_secs()
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

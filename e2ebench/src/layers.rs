//! The traced run's per-layer timing: each layer's public function, called
//! per sample from the benchmark's own code, with a span (wall-clock
//! interval) around each call. Layers are named after their modules.

use std::time::Instant;

use megis::{step3, MegisAnalyzer, MegisOutput};
use megis_genomics::database::{ReferenceIndex, SortedKmerDatabase};
use megis_genomics::read::ReadSet;
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::Sample;
use megis_genomics::sketch::SketchDatabase;
use megis_sched::ShardSet;
use megis_tools::kmc::KmerCounts;

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up split into its four builds, each timed once.
#[derive(Debug, Clone, Copy)]
pub struct SetupLayers {
    /// `SortedKmerDatabase::build`.
    pub db_build_ms: f64,
    /// `SketchDatabase::build`.
    pub sketch_build_ms: f64,
    /// `KssTables::build`.
    pub kss_build_ms: f64,
    /// `ReferenceIndex::build` over every genome.
    pub index_build_ms: f64,
}

/// Times each of `MegisAnalyzer::build`'s four builds on their own; the
/// results are dropped.
pub fn time_setup(references: &ReferenceCollection, analyzer: &MegisAnalyzer) -> SetupLayers {
    let config = analyzer.config();
    let t = Instant::now();
    let database = SortedKmerDatabase::build(references, config.k());
    let db_build_ms = ms_since(t);
    drop(database);
    let t = Instant::now();
    let sketches = SketchDatabase::build(references, config.sketch);
    let sketch_build_ms = ms_since(t);
    let t = Instant::now();
    let kss = megis::KssTables::build(&sketches);
    let kss_build_ms = ms_since(t);
    drop((sketches, kss));
    let t = Instant::now();
    let indexes: Vec<ReferenceIndex> = references
        .genomes()
        .iter()
        .map(|g| ReferenceIndex::build(g, config.mapping_k))
        .collect();
    let index_build_ms = ms_since(t);
    drop(indexes);
    SetupLayers {
        db_build_ms,
        sketch_build_ms,
        kss_build_ms,
        index_build_ms,
    }
}

/// One sample's spans and counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleLayers {
    /// `ReadSet::from_fasta`.
    pub parse_ms: f64,
    /// `KmerCounts::count` (timed on its own; `run_step1` repeats it).
    pub count_ms: f64,
    /// `MegisAnalyzer::run_step1`.
    pub step1_ms: f64,
    /// `ShardSet::slice_queries` plus per-shard `intersect_sorted`.
    pub intersect_ms: f64,
    /// `KssTables::stream_retrieve`.
    pub taxid_ms: f64,
    /// `SketchDatabase::presence_from_support`.
    pub presence_ms: f64,
    /// `MegisAnalyzer::candidate_indexes` plus
    /// `step3::partition_candidates`.
    pub partition_ms: f64,
    /// `step3::run_partial` over all candidates in one part.
    pub map_ms: f64,
    /// `step3::run_partial`, the slowest part when the candidates are split
    /// across the engine's devices.
    pub map_max_part_ms: f64,
    /// `step3::reduce`.
    pub reduce_ms: f64,
    /// `MegisAnalyzer::analyze` on the same parsed sample.
    pub analyze_ms: f64,
    /// Reads in the sample.
    pub reads: u64,
    /// k-mer occurrences Step 1 extracted.
    pub extracted_kmers: u64,
    /// Distinct k-mers Step 1 selected.
    pub selected_kmers: u64,
    /// Query k-mers sent to the intersection.
    pub query_kmers: u64,
    /// Query k-mers found in the database.
    pub hits: u64,
    /// Candidate species reported present.
    pub candidates: u64,
    /// Encoded bytes of the candidates' reference indexes.
    pub candidate_index_bytes: u64,
    /// Whether Step 3 split across the devices reduced to a different
    /// output than Step 3 in one part.
    pub split_step3_differs: bool,
    /// Reads Step 3 mapped.
    pub mapped_reads: u64,
}

impl SampleLayers {
    /// Sum of the layer self times that make up `analyze` (parsing is
    /// outside it, and the separately timed k-mer count is a child of
    /// Step 1).
    pub fn self_sum_ms(&self) -> f64 {
        self.step1_ms
            + self.intersect_ms
            + self.taxid_ms
            + self.presence_ms
            + self.partition_ms
            + self.map_ms
            + self.reduce_ms
    }

    /// Layer self times over the `analyze` wall time of the same sample.
    pub fn closure(&self) -> f64 {
        self.self_sum_ms() / self.analyze_ms
    }
}

/// Runs the pipeline layer by layer on one sample's FASTA bytes, and
/// `analyze` on the same parsed sample before or after it (callers
/// alternate, so neither side always finds the caches warm). Returns the
/// spans, the composed output and the oracle output; the two must be equal.
pub fn time_sample(
    analyzer: &MegisAnalyzer,
    shards: &ShardSet,
    fasta: &[u8],
    analyze_first: bool,
) -> (SampleLayers, MegisOutput, MegisOutput) {
    let mut l = SampleLayers::default();
    let t = Instant::now();
    let reads = ReadSet::from_fasta(fasta).expect("generated FASTA parses");
    l.parse_ms = ms_since(t);
    let sample = Sample::from_reads(reads);
    l.reads = sample.len() as u64;

    let mut oracle = None;
    if analyze_first {
        oracle = Some(time_analyze(analyzer, &sample, &mut l));
    }
    let composed = time_layers(analyzer, shards, &sample, &mut l);
    let oracle = oracle.unwrap_or_else(|| time_analyze(analyzer, &sample, &mut l));
    (l, composed, oracle)
}

fn time_analyze(analyzer: &MegisAnalyzer, sample: &Sample, l: &mut SampleLayers) -> MegisOutput {
    let t = Instant::now();
    let oracle = analyzer.analyze(sample);
    l.analyze_ms = ms_since(t);
    oracle
}

/// Steps 1–3 one public function at a time, composed into the output
/// `analyze` would give.
fn time_layers(
    analyzer: &MegisAnalyzer,
    shards: &ShardSet,
    sample: &Sample,
    l: &mut SampleLayers,
) -> MegisOutput {
    let config = analyzer.config();

    let t = Instant::now();
    let counts = KmerCounts::count(sample.reads(), config.k());
    l.count_ms = ms_since(t);
    drop(counts);

    let t = Instant::now();
    let step1 = analyzer.run_step1(sample);
    l.step1_ms = ms_since(t);
    l.extracted_kmers = step1.extracted_occurrences;
    l.selected_kmers = step1.selected_kmers;

    let t = Instant::now();
    let queries = step1.sorted_kmers();
    let mut intersection = Vec::new();
    for (shard, range) in shards.shards().iter().zip(shards.slice_queries(&queries)) {
        intersection.extend(shard.intersect_sorted(&queries[range]));
    }
    l.intersect_ms = ms_since(t);
    l.query_kmers = queries.len() as u64;
    l.hits = intersection.len() as u64;

    let t = Instant::now();
    let support = analyzer.kss().stream_retrieve(&intersection);
    l.taxid_ms = ms_since(t);

    let t = Instant::now();
    let presence = analyzer.sketches().presence_from_support(
        &support,
        config.min_containment,
        config.min_support,
    );
    l.presence_ms = ms_since(t);
    l.candidates = presence.len() as u64;

    let t = Instant::now();
    let candidates = analyzer.candidate_indexes(&presence);
    let candidates_ms = ms_since(t);
    l.candidate_index_bytes = candidates.iter().map(|c| c.encoded_bytes()).sum();

    // Step 3 in one part, as `analyze` runs it, gives the spans that close
    // against `analyze`; split across the engine's devices it gives the
    // straggler, the slowest part. Both must reduce to the same output.
    let whole = Step3Spans::run(sample, &candidates, 1, config.mapping_k);
    let split = Step3Spans::run(sample, &candidates, shards.shard_count(), config.mapping_k);
    l.partition_ms = candidates_ms + whole.partition_ms;
    l.map_ms = whole.map_ms;
    l.map_max_part_ms = split.map_max_part_ms;
    l.reduce_ms = whole.reduce_ms;
    l.mapped_reads = whole.output.mapped_reads;
    l.split_step3_differs = split.output != whole.output;
    let step3 = whole.output;

    MegisOutput {
        presence,
        abundance: step3.abundance,
        intersecting_kmers: l.hits,
        selected_kmers: step1.selected_kmers,
        mapped_reads: step3.mapped_reads,
    }
}

/// Step 3 through `partition_candidates`, `run_partial` per part and
/// `reduce`, with a span around each.
struct Step3Spans {
    output: step3::Step3Output,
    partition_ms: f64,
    map_ms: f64,
    map_max_part_ms: f64,
    reduce_ms: f64,
}

impl Step3Spans {
    fn run(
        sample: &Sample,
        candidates: &[&ReferenceIndex],
        parts: usize,
        mapping_k: usize,
    ) -> Step3Spans {
        let t = Instant::now();
        let parts = step3::partition_candidates(candidates, parts);
        let partition_ms = ms_since(t);
        let mut map_ms = 0.0;
        let mut map_max_part_ms: f64 = 0.0;
        let mut partials = Vec::with_capacity(parts.len());
        for part in &parts {
            let t = Instant::now();
            partials.push(step3::run_partial(
                sample.reads(),
                &candidates[part.range.clone()],
                part.base_offset,
                mapping_k,
            ));
            let part_ms = ms_since(t);
            map_ms += part_ms;
            map_max_part_ms = map_max_part_ms.max(part_ms);
        }
        let t = Instant::now();
        let output = step3::reduce(partials);
        Step3Spans {
            output,
            partition_ms,
            map_ms,
            map_max_part_ms,
            reduce_ms: ms_since(t),
        }
    }
}

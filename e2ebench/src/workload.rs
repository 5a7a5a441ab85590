//! The benchmark's workloads and their seeded input generator.
//!
//! Every workload uses `MegisConfig::small()` (k = 31) and draws its samples
//! with `CommunityConfig::build_cohort_sample(seed, seed + i)`, so all
//! samples of one run share the reference collection the analyzer is built
//! from. The program under test only ever sees the generated references and
//! the FASTA bytes.

use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::{CommunityConfig, Diversity};

/// How the single client hands samples to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Submit every distinct sample, then wait for all of them; repeat.
    ClosedBatch,
    /// Submit one sample and wait for its result before the next.
    ClosedLoop,
}

/// Input size of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Diversity preset the community is drawn from.
    pub diversity: Diversity,
    /// Species present in each sample.
    pub species: usize,
    /// Species in the reference database (a superset of the sample's).
    pub database_species: usize,
    /// Bases per reference genome.
    pub genome_len: usize,
    /// Reads per sample.
    pub reads: usize,
    /// Distinct samples generated (and checked against the oracle); the
    /// client cycles through them for as long as it measures.
    pub samples: usize,
    /// Fewest per-sample latencies a run collects, whatever `--seconds`
    /// says; it fixes the reported tail percentile (see `stats`).
    pub min_latencies: usize,
    /// Times set-up (`MegisAnalyzer::build` + `StreamingEngine::new`) is
    /// repeated so `setup_s` can be a median.
    pub setup_repeats: usize,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Input size.
    pub shape: Shape,
    /// Client arrival pattern.
    pub arrival: Arrival,
    /// Whether the engine runs under the seeded transient-fault plan.
    pub faults: bool,
}

/// Transient failure probability per command under `cohort_faults`.
pub const FAULT_RATE: f64 = 0.1;

/// Input scale: `Full` is what the benchmark measures, `Tiny` is a seconds
/// long smoke size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A smoke-test size.
    Tiny,
}

const COHORT: Shape = Shape {
    diversity: Diversity::Medium,
    species: 20,
    database_species: 80,
    genome_len: 2_000,
    reads: 5_000,
    samples: 8,
    min_latencies: 40,
    setup_repeats: 5,
};

const LARGE_DB: Shape = Shape {
    diversity: Diversity::Low,
    species: 3,
    database_species: 400,
    genome_len: 5_000,
    reads: 1_000,
    samples: 6,
    min_latencies: 40,
    setup_repeats: 3,
};

const TINY: Shape = Shape {
    diversity: Diversity::Medium,
    species: 4,
    database_species: 12,
    genome_len: 1_000,
    reads: 150,
    samples: 3,
    min_latencies: 40,
    setup_repeats: 2,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cohort",
        shape: COHORT,
        arrival: Arrival::ClosedBatch,
        faults: false,
    },
    Workload {
        name: "large_db",
        shape: LARGE_DB,
        arrival: Arrival::ClosedLoop,
        faults: false,
    },
    Workload {
        name: "cohort_faults",
        shape: COHORT,
        arrival: Arrival::ClosedBatch,
        faults: true,
    },
];

/// Looks a workload up by name, at the given scale.
pub fn find(name: &str, scale: Scale) -> Option<Workload> {
    let mut workload = *WORKLOADS.iter().find(|w| w.name == name)?;
    if scale == Scale::Tiny {
        workload.shape = Shape {
            diversity: workload.shape.diversity,
            ..TINY
        };
    }
    Some(workload)
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// References the analyzer is built from.
    pub references: ReferenceCollection,
    /// One FASTA document per distinct sample.
    pub fasta: Vec<Vec<u8>>,
}

/// Generates a workload's inputs from `seed`: the same seed gives the same
/// references and byte-identical FASTA.
pub fn generate(shape: &Shape, seed: u64) -> Inputs {
    let config = CommunityConfig::preset(shape.diversity)
        .with_species(shape.species)
        .with_database_species(shape.database_species)
        .with_genome_len(shape.genome_len)
        .with_reads(shape.reads);
    let mut references = None;
    let fasta = (0..shape.samples as u64)
        .map(|i| {
            let community = config.build_cohort_sample(seed, seed.wrapping_add(i));
            references.get_or_insert_with(|| community.references().clone());
            community.sample().reads().to_fasta().into_bytes()
        })
        .collect();
    Inputs {
        references: references.expect("every shape has at least one sample"),
        fasta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_fasta_bytes() {
        let shape = find("cohort", Scale::Tiny).unwrap().shape;
        let a = generate(&shape, 7);
        let b = generate(&shape, 7);
        assert_eq!(a.fasta, b.fasta);
        assert_eq!(a.references.len(), b.references.len());
        for (x, y) in a.references.genomes().iter().zip(b.references.genomes()) {
            assert_eq!(x.taxid(), y.taxid());
            assert_eq!(x.sequence(), y.sequence());
        }
    }

    #[test]
    fn different_seeds_and_samples_differ() {
        let shape = find("cohort", Scale::Tiny).unwrap().shape;
        let a = generate(&shape, 7);
        let b = generate(&shape, 8);
        assert_ne!(a.fasta, b.fasta);
        assert_eq!(a.fasta.len(), shape.samples);
        assert_ne!(a.fasta[0], a.fasta[1], "samples within a run are distinct");
    }

    #[test]
    fn every_workload_is_found_at_both_scales() {
        for w in WORKLOADS {
            assert_eq!(find(w.name, Scale::Full).unwrap().shape, w.shape);
            assert!(find(w.name, Scale::Tiny).unwrap().shape.reads < w.shape.reads);
        }
        assert!(find("nope", Scale::Full).is_none());
    }
}

//! K-mer Sketch Streaming (KSS) — MegIS's taxID-retrieval data structure.
//!
//! Retrieving taxIDs for variable-sized k-mers with a ternary search tree
//! requires up to `k_max` pointer-chasing operations per lookup on a structure
//! that may not fit in the SSD's internal DRAM — a poor fit for in-storage
//! processing. KSS (§4.3.2, Fig. 7(c)) trades space for streamability:
//!
//! * for k = k_max, a lexicographically sorted table of sketch k-mers and
//!   their taxIDs (like the flat representation),
//! * for each smaller k, only the taxID lists are stored, *without* the k-mer
//!   itself: the prefixes of the sorted k_max-mers regenerate the smaller
//!   k-mers on the fly (MegIS's Index Generator emits a new entry whenever the
//!   prefix of consecutive k_max-mers changes).
//!
//! The result is larger than the ternary tree but strictly streaming: taxID
//! retrieval ([`KssTables::stream_retrieve`]) is a single sorted-merge pass
//! over the intersecting k-mers and the KSS tables, which is exactly what the
//! per-channel Intersect units can do at flash bandwidth. The pass keeps one
//! forward-only cursor into the k_max table, one into each prefix table, and
//! one at the start of each prefix's run of k_max-mers. Sorted queries have
//! non-decreasing prefixes at every length, so no cursor ever moves back:
//! each cursor crosses its table at most once, and each query costs gallops
//! logarithmic in the distances its cursors advance.

use std::collections::HashMap;

use megis_genomics::kmer::Kmer;
use megis_genomics::sketch::SketchDatabase;
use megis_genomics::taxonomy::TaxId;
use megis_ssd::timing::ByteSize;

/// One KSS table for a single k size smaller than k_max: the prefix values
/// (implicit on storage — regenerated from the k_max table) and the taxID
/// lists that are *not* already attributed to a larger k-mer with the same
/// prefix.
#[derive(Debug, Clone, Default)]
struct PrefixTable {
    k: usize,
    /// Sorted by prefix k-mer. The k-mer column exists only in memory to keep
    /// the functional implementation simple; [`KssTables::size_bytes`] charges
    /// only the taxID payload for it, matching the on-storage format.
    entries: Vec<(Kmer, Vec<TaxId>)>,
}

/// The full KSS structure.
#[derive(Debug, Clone, Default)]
pub struct KssTables {
    k_max: usize,
    /// Sorted k_max-mer sketch table: (k-mer, taxa).
    kmax_table: Vec<(Kmer, Vec<TaxId>)>,
    /// One prefix table per smaller k, largest k first.
    prefix_tables: Vec<PrefixTable>,
}

impl KssTables {
    /// Builds the KSS tables from the logical sketch content.
    pub fn build(sketches: &SketchDatabase) -> KssTables {
        let Some(k_max) = sketches.k_max() else {
            return KssTables::default();
        };
        let kmax_table: Vec<(Kmer, Vec<TaxId>)> = sketches
            .table(k_max)
            .map(|t| t.to_vec())
            .unwrap_or_default();

        let mut prefix_tables = Vec::new();
        for k in sketches.k_sizes() {
            if k == k_max {
                continue;
            }
            let table = sketches.table(k).unwrap_or(&[]);
            // Store, for each smaller k-mer, only the taxa not already
            // attributed to a k_max-mer sharing that prefix.
            let mut entries = Vec::with_capacity(table.len());
            for (kmer, taxa) in table {
                let attributed = KssTables::taxa_of_kmax_with_prefix(&kmax_table, *kmer);
                let remaining: Vec<TaxId> = taxa
                    .iter()
                    .copied()
                    .filter(|t| !attributed.contains(t))
                    .collect();
                entries.push((*kmer, remaining));
            }
            prefix_tables.push(PrefixTable { k, entries });
        }
        KssTables {
            k_max,
            kmax_table,
            prefix_tables,
        }
    }

    fn taxa_of_kmax_with_prefix(kmax_table: &[(Kmer, Vec<TaxId>)], prefix: Kmer) -> Vec<TaxId> {
        // All k_max-mers whose length-k prefix equals `prefix` form a
        // contiguous run in the sorted table.
        let start = kmax_table.partition_point(|(k, _)| k.prefix(prefix.k()) < prefix);
        let mut taxa = Vec::new();
        for (k, t) in &kmax_table[start..] {
            if k.prefix(prefix.k()) != prefix {
                break;
            }
            taxa.extend_from_slice(t);
        }
        taxa.sort();
        taxa.dedup();
        taxa
    }

    /// The largest k size.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// Number of entries in the k_max table.
    pub fn kmax_entries(&self) -> usize {
        self.kmax_table.len()
    }

    /// Returns `true` if the structure holds no sketch k-mers.
    pub fn is_empty(&self) -> bool {
        self.kmax_table.is_empty()
    }

    /// On-storage size of the KSS tables: the k_max table stores explicit
    /// 2-bit k-mers plus 4-byte taxIDs; the smaller-k tables store only their
    /// taxID lists plus a 4-byte run-length/offset word per entry.
    pub fn size_bytes(&self) -> ByteSize {
        let kmax: u64 = self
            .kmax_table
            .iter()
            .map(|(k, taxa)| (k.encoded_bytes() + 4 * taxa.len()) as u64)
            .sum();
        let smaller: u64 = self
            .prefix_tables
            .iter()
            .map(|t| {
                t.entries
                    .iter()
                    .map(|(_, taxa)| 4 + 4 * taxa.len() as u64)
                    .sum::<u64>()
            })
            .sum();
        ByteSize::from_bytes(kmax + smaller)
    }

    /// Retrieves the taxa matched by one query k_max-mer: the exact k_max
    /// match plus prefix matches at every smaller k (deduplicated), exactly
    /// like the flat-table and ternary-tree lookups — which is what makes
    /// MegIS's accuracy identical to the A-Opt baseline's.
    pub fn lookup(&self, query: Kmer) -> Vec<TaxId> {
        let mut taxa = Vec::new();
        if let Ok(i) = self.kmax_table.binary_search_by(|(k, _)| k.cmp(&query)) {
            taxa.extend_from_slice(&self.kmax_table[i].1);
        }
        for table in &self.prefix_tables {
            if table.k > query.k() {
                continue;
            }
            let prefix = query.prefix(table.k);
            if let Ok(i) = table.entries.binary_search_by(|(k, _)| k.cmp(&prefix)) {
                // The stored entry holds only the taxa *not* attributed to a
                // k_max-mer sharing this prefix; the attributed ones are
                // recovered from the k_max table during the same streaming
                // pass (the Index Generator walks that contiguous run).
                // Together they reproduce exactly the taxa the baseline's
                // sketch lookup returns for this prefix.
                taxa.extend_from_slice(&table.entries[i].1);
                taxa.extend(KssTables::taxa_of_kmax_with_prefix(
                    &self.kmax_table,
                    prefix,
                ));
            }
        }
        taxa.sort();
        taxa.dedup();
        taxa
    }

    /// Streaming taxID retrieval over a *sorted* list of intersecting query
    /// k-mers, mirroring the in-SSD dataflow. Returns per-taxon support
    /// counts: each taxon [`KssTables::lookup`] returns for a query counts
    /// once per occurrence of that query.
    ///
    /// The pass is a single sorted merge. The k_max table, each prefix
    /// table, and each prefix table's run of k_max-mers sharing the current
    /// prefix have one cursor each, and every cursor only gallops forward
    /// from where the previous query left it. That is sound because the
    /// length-k prefixes of sorted queries are non-decreasing for every k,
    /// so each cursor's target is too. Work is proportional to the queries
    /// and the log of the distances the cursors skip, not to the table
    /// sizes. One taxa buffer is reused across queries: it is refilled,
    /// sorted and deduplicated once per distinct query, and a run of equal
    /// queries reuses it (the Index Generator optimization).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `sorted_queries` is not sorted.
    pub fn stream_retrieve(&self, sorted_queries: &[Kmer]) -> HashMap<TaxId, u32> {
        debug_assert!(sorted_queries.windows(2).all(|w| w[0] <= w[1]));
        let mut support: HashMap<TaxId, u32> = HashMap::new();
        let mut kmax_cursor = 0;
        // Per prefix table: (entry cursor, start of the k_max-mer run).
        let mut cursors = vec![(0, 0); self.prefix_tables.len()];
        let mut taxa: Vec<TaxId> = Vec::new();
        let mut previous: Option<Kmer> = None;
        for &query in sorted_queries {
            if previous != Some(query) {
                previous = Some(query);
                taxa.clear();
                kmax_cursor = advance(&self.kmax_table, kmax_cursor, |(k, _)| *k < query);
                if let Some((k, t)) = self.kmax_table.get(kmax_cursor) {
                    if *k == query {
                        taxa.extend_from_slice(t);
                    }
                }
                for (table, (entry, run)) in self.prefix_tables.iter().zip(&mut cursors) {
                    if table.k > query.k() {
                        continue;
                    }
                    let prefix = query.prefix(table.k);
                    *entry = advance(&table.entries, *entry, |(k, _)| *k < prefix);
                    match table.entries.get(*entry) {
                        Some((k, t)) if *k == prefix => taxa.extend_from_slice(t),
                        _ => continue,
                    }
                    // As in `lookup`: the taxa attributed to the k_max-mers
                    // sharing this prefix, a contiguous run of the k_max table.
                    *run = advance(&self.kmax_table, *run, |(k, _)| k.prefix(table.k) < prefix);
                    for (_, t) in self.kmax_table[*run..]
                        .iter()
                        .take_while(|(k, _)| k.prefix(table.k) == prefix)
                    {
                        taxa.extend_from_slice(t);
                    }
                }
                taxa.sort_unstable();
                taxa.dedup();
            }
            for t in &taxa {
                *support.entry(*t).or_insert(0) += 1;
            }
        }
        support
    }
}

/// First index at or after `from` whose element fails `before`, where
/// `before` holds on a prefix of `slice` that ends at or after `from`.
/// Gallops: probes 1, 2, 4, … elements ahead until it overshoots, then
/// binary-searches the bracket, so it costs `O(log d)` comparisons for an
/// advance of `d`.
fn advance<T>(slice: &[T], from: usize, before: impl Fn(&T) -> bool) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step < slice.len() && before(&slice[lo + step]) {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(slice.len());
    lo + slice[lo..hi].partition_point(before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::reference::ReferenceCollection;
    use megis_genomics::sketch::SketchConfig;

    fn sketches() -> SketchDatabase {
        let refs = ReferenceCollection::synthetic(6, 700, 21);
        SketchDatabase::build(&refs, SketchConfig::small())
    }

    #[test]
    fn kss_lookup_matches_flat_table_lookup() {
        let db = sketches();
        let kss = KssTables::build(&db);
        assert!(!kss.is_empty());
        let kmax = db.k_max().unwrap();
        for (kmer, _) in db.table(kmax).unwrap().iter().take(60) {
            assert_eq!(
                kss.lookup(*kmer),
                db.lookup_with_prefixes(*kmer),
                "KSS and flat lookups disagree for {kmer}"
            );
        }
    }

    #[test]
    fn kss_matches_ternary_tree_support() {
        use megis_tools::ternary::TernarySketchTree;
        let db = sketches();
        let kss = KssTables::build(&db);
        let tree = TernarySketchTree::build(&db);
        let kmax = db.k_max().unwrap();
        let queries: Vec<Kmer> = db.table(kmax).unwrap().iter().map(|(k, _)| *k).collect();
        let kss_support = kss.stream_retrieve(&queries);
        let mut tree_support: HashMap<TaxId, u32> = HashMap::new();
        for q in &queries {
            for t in tree.lookup_with_prefixes(*q) {
                *tree_support.entry(t).or_insert(0) += 1;
            }
        }
        assert_eq!(kss_support, tree_support);
    }

    #[test]
    fn missing_query_yields_prefix_only_matches() {
        let db = sketches();
        let kss = KssTables::build(&db);
        let kmax = db.k_max().unwrap();
        let query = Kmer::from_ascii(&vec![b'A'; kmax]).unwrap();
        assert_eq!(kss.lookup(query), db.lookup_with_prefixes(query));
    }

    #[test]
    fn size_is_larger_than_kmax_payload_only() {
        let db = sketches();
        let kss = KssTables::build(&db);
        assert!(kss.size_bytes().as_bytes() > 0);
        // The k_max table dominates; smaller tables add only taxID payloads.
        assert!(kss.size_bytes().as_bytes() < db.flat_table_bytes() * 2);
    }

    #[test]
    fn stream_retrieve_counts_duplicates() {
        let db = sketches();
        let kss = KssTables::build(&db);
        let kmax = db.k_max().unwrap();
        let (kmer, taxa) = &db.table(kmax).unwrap()[0];
        let support = kss.stream_retrieve(&[*kmer, *kmer, *kmer]);
        for t in taxa {
            assert_eq!(support.get(t), Some(&3));
        }
    }

    #[test]
    fn empty_sketch_builds_empty_kss() {
        let kss = KssTables::build(&SketchDatabase::default());
        assert!(kss.is_empty());
        assert_eq!(kss.size_bytes(), ByteSize::ZERO);
        let q = Kmer::from_ascii(b"ACGTACGTACGTACGTACGTACGTACGTACG").unwrap();
        assert!(kss.lookup(q).is_empty());
        assert!(kss.stream_retrieve(&[]).is_empty());
        assert!(kss.stream_retrieve(&[q, q]).is_empty());
    }

    /// Support counts as the per-query oracle sees them: `lookup` on every
    /// query, summed.
    fn support_by_lookup(kss: &KssTables, queries: &[Kmer]) -> HashMap<TaxId, u32> {
        let mut support = HashMap::new();
        for q in queries {
            for t in kss.lookup(*q) {
                *support.entry(t).or_insert(0) += 1;
            }
        }
        support
    }

    /// `kmer` followed by `extra` random bases.
    fn extend(rng: &mut rand::rngs::StdRng, kmer: Kmer, extra: usize) -> Kmer {
        use rand::Rng;
        let mut bits = kmer.bits();
        for _ in 0..extra {
            bits = (bits << 2) | rng.gen_range(0..4u64) as u128;
        }
        Kmer::from_bits(bits, kmer.k() + extra)
    }

    #[test]
    fn stream_retrieve_matches_per_query_lookup() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let refs = ReferenceCollection::synthetic(12, 1500, 77);
        for config in [SketchConfig::small(), SketchConfig::default()] {
            let kss = KssTables::build(&SketchDatabase::build(&refs, config));
            let k_max = kss.k_max();
            assert!(!kss.is_empty() && !kss.prefix_tables.is_empty());
            let mut rng = StdRng::seed_from_u64(0x6b55);
            for _ in 0..60 {
                let mut queries = Vec::new();
                for _ in 0..rng.gen_range(0..120usize) {
                    match rng.gen_range(0..5u32) {
                        // An exact k_max hit.
                        0 => {
                            let i = rng.gen_range(0..kss.kmax_table.len());
                            queries.push(kss.kmax_table[i].0);
                        }
                        // A k-mer that matches a smaller-k prefix entry.
                        1 => {
                            let table =
                                &kss.prefix_tables[rng.gen_range(0..kss.prefix_tables.len())];
                            let prefix = table.entries[rng.gen_range(0..table.entries.len())].0;
                            queries.push(extend(&mut rng, prefix, k_max - prefix.k()));
                        }
                        // A long run of k-mers sharing the prefix of a hit.
                        2 => {
                            let kmer = kss.kmax_table[rng.gen_range(0..kss.kmax_table.len())].0;
                            let prefix = kmer.prefix(config.k_min);
                            for _ in 0..rng.gen_range(2..30usize) {
                                queries.push(extend(&mut rng, prefix, k_max - config.k_min));
                            }
                        }
                        // Consecutive duplicates of an exact hit.
                        3 => {
                            let kmer = kss.kmax_table[rng.gen_range(0..kss.kmax_table.len())].0;
                            let copies = rng.gen_range(2..6usize);
                            queries.extend(std::iter::repeat_n(kmer, copies));
                        }
                        // Almost surely absent from every table.
                        _ => {
                            let first = Kmer::from_bits(rng.gen_range(0..4u64) as u128, 1);
                            queries.push(extend(&mut rng, first, k_max - 1));
                        }
                    }
                }
                queries.sort();
                assert_eq!(
                    kss.stream_retrieve(&queries),
                    support_by_lookup(&kss, &queries),
                    "{config:?}, {} queries",
                    queries.len()
                );
            }
        }
    }
}

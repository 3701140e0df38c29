//! Seeded inputs, their digest, and the plaintext oracle.
//!
//! Everything a run feeds the system derives from `--seed`: the same seed
//! gives the same dataset, keys, queries and ingest batches, and the report
//! carries an FNV-1a digest of them so two runs can prove they measured the
//! same inputs.

use crate::adapter::{self, Batch, Dataset, DocId, Range};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

/// Records of the static workloads' dataset.
///
/// Half the 200 k of the sizing run: set-up runs three times per process
/// and the whole run has to fit the driver's ~30 s per-run budget.
pub const STATIC_RECORDS: usize = 100_000;
/// Queries per `answer_batch` round in `disk_hot_batch`.
pub const BATCH_ROUND: usize = 32;
/// Ingest batches of `updates_mixed`: set-up, then the measured run.
pub const SETUP_BATCHES: usize = 8;
pub const RUN_BATCHES: usize = 32;
/// Inserts per ingest batch, and queries after each measured ingest.
pub const BATCH_RECORDS: usize = 1_000;
pub const QUERIES_PER_BATCH: usize = 50;

/// FNV-1a, the digest the trace harness already uses.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// An independent RNG stream of the run's seed, named by purpose, so that
/// drawing more from one stream never shifts another.
pub fn stream(seed: u64, purpose: &str) -> ChaCha20Rng {
    let mut h = Fnv::new();
    h.u64(seed);
    for byte in purpose.bytes() {
        h.u64(u64::from(byte));
    }
    ChaCha20Rng::seed_from_u64(h.finish())
}

/// Which query set a static workload cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryShape {
    /// 4 096 uniform ranges of 16 values (~1.5 ids, ~4 tokens).
    Point,
    /// 512 uniform ranges of 1 % of the domain (~1 000 ids).
    Scan,
    /// 2 048 hot tenant ranges of 0.1 % of the domain (~100 ids).
    Hot,
}

/// The inputs of a static workload.
pub struct StaticInputs {
    pub dataset: Dataset,
    pub queries: Vec<Range>,
    pub digest: u64,
}

pub fn static_inputs(seed: u64, shape: QueryShape) -> StaticInputs {
    let dataset = adapter::gen_dataset(STATIC_RECORDS, &mut stream(seed, "dataset"));
    let rng = &mut stream(seed, "queries");
    let queries = match shape {
        QueryShape::Point => adapter::uniform_ranges(16, 4096, rng),
        QueryShape::Scan => adapter::uniform_ranges(adapter::domain().size() / 100, 512, rng),
        QueryShape::Hot => adapter::hotspot_ranges(2048, rng),
    };
    let mut h = Fnv::new();
    digest_pairs(&mut h, &adapter::dataset_pairs(&dataset));
    digest_ranges(&mut h, &queries);
    StaticInputs {
        dataset,
        queries,
        digest: h.finish(),
    }
}

/// The inputs of `updates_mixed`.
pub struct UpdateInputs {
    pub setup_batches: Vec<Batch>,
    pub run_batches: Vec<Batch>,
    /// `QUERIES_PER_BATCH` ranges per run batch, in order.
    pub queries: Vec<Range>,
    pub digest: u64,
}

pub fn update_inputs(seed: u64) -> UpdateInputs {
    let mut batches = adapter::gen_batches(
        SETUP_BATCHES + RUN_BATCHES,
        BATCH_RECORDS,
        &mut stream(seed, "batches"),
    );
    let queries = adapter::uniform_ranges(
        adapter::domain().size() / 100,
        RUN_BATCHES * QUERIES_PER_BATCH,
        &mut stream(seed, "queries"),
    );
    let mut h = Fnv::new();
    for batch in &batches {
        digest_pairs(&mut h, &adapter::batch_pairs(batch));
    }
    digest_ranges(&mut h, &queries);
    let run_batches = batches.split_off(SETUP_BATCHES);
    UpdateInputs {
        setup_batches: batches,
        run_batches,
        queries,
        digest: h.finish(),
    }
}

fn digest_pairs(h: &mut Fnv, pairs: &[(u64, DocId)]) {
    h.u64(pairs.len() as u64);
    for &(value, id) in pairs {
        h.u64(value);
        h.u64(id);
    }
}

fn digest_ranges(h: &mut Fnv, ranges: &[Range]) {
    h.u64(ranges.len() as u64);
    for range in ranges {
        h.u64(range.lo());
        h.u64(range.hi());
    }
}

/// The plaintext oracle: `(value, id)` pairs in sorted order, so a range
/// is one binary-searched slice.
#[derive(Default)]
pub struct Oracle {
    sorted: Vec<(u64, DocId)>,
}

impl Oracle {
    pub fn new(pairs: Vec<(u64, DocId)>) -> Self {
        let mut oracle = Self::default();
        oracle.extend(pairs);
        oracle
    }

    /// Adds fresh records (ids never repeat in these workloads).
    pub fn extend(&mut self, pairs: Vec<(u64, DocId)>) {
        self.sorted.extend(pairs);
        self.sorted.sort_unstable();
    }

    fn slice(&self, range: Range) -> &[(u64, DocId)] {
        let lo = self
            .sorted
            .partition_point(|&(value, _)| value < range.lo());
        let hi = self
            .sorted
            .partition_point(|&(value, _)| value <= range.hi());
        &self.sorted[lo..hi]
    }

    pub fn count(&self, range: Range) -> usize {
        self.slice(range).len()
    }

    /// The matching ids, ascending.
    pub fn ids(&self, range: Range) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self.slice(range).iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_digest() {
        let a = static_inputs(7, QueryShape::Hot);
        let b = static_inputs(7, QueryShape::Hot);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.digest, static_inputs(8, QueryShape::Hot).digest);
        // The digest covers the queries, not only the dataset.
        assert_ne!(a.digest, static_inputs(7, QueryShape::Scan).digest);

        assert_eq!(update_inputs(7).digest, update_inputs(7).digest);
        assert_ne!(update_inputs(7).digest, update_inputs(8).digest);
    }

    #[test]
    fn query_sets_have_their_stated_shape() {
        let domain = adapter::domain().size();
        let point = static_inputs(1, QueryShape::Point);
        assert_eq!(point.queries.len(), 4096);
        assert!(point.queries.iter().all(|q| q.len() == 16));
        let scan = static_inputs(1, QueryShape::Scan);
        assert_eq!(scan.queries.len(), 512);
        assert!(scan.queries.iter().all(|q| q.len() == domain / 100));
        let hot = static_inputs(1, QueryShape::Hot);
        assert_eq!(hot.queries.len(), 2048);
        assert!(hot.queries.iter().all(|q| q.len() == domain / 1000));
        let updates = update_inputs(1);
        assert_eq!(updates.setup_batches.len(), SETUP_BATCHES);
        assert_eq!(updates.run_batches.len(), RUN_BATCHES);
        assert_eq!(updates.queries.len(), RUN_BATCHES * QUERIES_PER_BATCH);
    }

    #[test]
    fn oracle_answers_like_a_scan() {
        let pairs = vec![(5, 0), (9, 1), (5, 2), (100, 3), (6, 4)];
        let mut oracle = Oracle::new(pairs.clone());
        assert_eq!(oracle.ids(Range::new(5, 6)), vec![0, 2, 4]);
        assert_eq!(oracle.count(Range::new(5, 6)), 3);
        assert_eq!(oracle.ids(Range::new(10, 99)), Vec::<DocId>::new());
        oracle.extend(vec![(7, 9), (5, 7)]);
        assert_eq!(oracle.ids(Range::new(5, 7)), vec![0, 2, 4, 7, 9]);
        for lo in 0..12 {
            for hi in lo..12 {
                let scan = pairs.iter().filter(|p| lo <= p.0 && p.0 <= hi).count();
                assert_eq!(Oracle::new(pairs.clone()).count(Range::new(lo, hi)), scan);
            }
        }
    }
}

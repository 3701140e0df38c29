//! A long batch of one splits its live lists across the pool's lanes, and
//! nothing a caller can see moves.
//!
//! Over a memory-resident index, `ResilientServer::answer` walks a query on
//! the calling thread until 128 probes have resolved; if a token is still
//! live then, the rest of its list is walked by counter residue, one lane
//! per pool thread `BatchConfig::workers` allows, and each token's hits are
//! merged back in counter order. Pinned here:
//!
//! * the default server, a one-lane server (`workers: Some(1)`) and the raw
//!   `QueryServer::answer` give byte-identical outcomes, and the two
//!   resilient servers identical `ServeStats` — with a corrupt entry
//!   inside a split list skipped where the single walk skips it;
//! * a deadline that cuts a split query is a typed `DeadlineExceeded`
//!   whose partial is one prefix of each token's group, in token order;
//! * an on-disk index never splits: storage sees exactly the single walk's
//!   probes.
//!
//! The split needs two pool threads. On a one-CPU host every query walks on
//! the caller and these tests pin the single walk alone; the `rsse-serve`
//! unit tests (`executor::tests`) force two and three lanes on any host.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::QueryServer;
use rsse::serve::{
    BatchConfig, Clock, Query, ResilientServer, ServeConfig, ServeError, ServeIndex, ServeStats,
    VirtualClock,
};
use rsse::sse::formats::arm_faults;
use rsse::sse::pibas::reference::build_stored;
use rsse::sse::test_support::TempDir;
use rsse::sse::{
    CacheStats, CipherSpan, FaultPlan, Label, SearchToken, ShardedIndex, SseDatabase, SseScheme,
    StorageConfig, StorageError,
};
use rsse::{DocId, QueryOutcome};
use std::sync::Arc;
use std::time::Duration;

/// One keyword per length in `lengths`: keyword `i`'s entry `j` holds id
/// `1000 i + j`, except that the entries at `corrupt` (`(keyword,
/// position)`) hold a 3-byte payload that decodes to no id. Returns the
/// index built under `config`, one token per keyword with an absent
/// keyword's second, and each token's expected id group.
fn corpus(
    lengths: &[usize],
    corrupt: &[(usize, usize)],
    config: &StorageConfig,
    seed: u64,
) -> (ShardedIndex, Vec<SearchToken>, Vec<Vec<DocId>>) {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let key = SseScheme::setup(&mut rng);
    let mut db = SseDatabase::new();
    let mut tokens = Vec::new();
    let mut groups = Vec::new();
    for (i, &len) in lengths.iter().enumerate() {
        let keyword = format!("kw{i}").into_bytes();
        let mut group = Vec::new();
        for j in 0..len {
            let id = (i * 1000 + j) as DocId;
            if corrupt.contains(&(i, j)) {
                db.add(keyword.clone(), vec![0xC0; 3]);
            } else {
                db.add(keyword.clone(), id.to_le_bytes().to_vec());
                group.push(id);
            }
        }
        tokens.push(SseScheme::trapdoor(&key, &keyword));
        groups.push(group);
    }
    tokens.insert(1, SseScheme::trapdoor(&key, b"absent"));
    groups.insert(1, Vec::new());
    let index = build_stored(&key, &db, config, &mut rng).expect("build");
    (index, tokens, groups)
}

fn one_lane() -> ServeConfig {
    ServeConfig {
        batch: BatchConfig { workers: Some(1) },
        ..ServeConfig::default()
    }
}

/// Answers `queries` through each path: the default server, the one-lane
/// server and the raw endpoint, plus both resilient servers' stats.
fn answer_three_ways(
    index: &ShardedIndex,
    queries: &[Vec<SearchToken>],
) -> ([Vec<QueryOutcome>; 3], [ServeStats; 2]) {
    let default = ResilientServer::new(QueryServer::new(index.clone()), ServeConfig::default());
    let single = ResilientServer::new(QueryServer::new(index.clone()), one_lane());
    let raw = QueryServer::new(index.clone());
    let outcomes = [
        queries.iter().map(|q| default.answer(q).unwrap()).collect(),
        queries.iter().map(|q| single.answer(q).unwrap()).collect(),
        queries.iter().map(|q| raw.answer(q).unwrap()).collect(),
    ];
    (outcomes, [default.stats(), single.stats()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_split_query_answers_and_counts_as_the_single_walk(
        lengths in proptest::collection::vec(0usize..420, 1..9),
        corrupt_at in any::<u64>(),
        shard_bits in 0u32..5,
        seed in any::<u64>(),
    ) {
        // A corrupt entry inside the longest list: it splits whenever any does.
        let longest = (0..lengths.len()).max_by_key(|&i| lengths[i]).unwrap();
        let corrupt: Vec<(usize, usize)> = (lengths[longest] > 0)
            .then(|| (longest, (corrupt_at % lengths[longest] as u64) as usize))
            .into_iter()
            .collect();
        let (index, tokens, groups) =
            corpus(&lengths, &corrupt, &StorageConfig::in_memory(shard_bits), seed);
        let mut reversed = tokens.clone();
        reversed.reverse();
        let queries = vec![tokens.clone(), reversed, tokens[..1].to_vec()];
        let (outcomes, stats) = answer_three_ways(&index, &queries);

        let want: Vec<DocId> = groups.iter().flatten().copied().collect();
        prop_assert_eq!(&outcomes[0][0].ids, &want);
        prop_assert_eq!(&outcomes[0], &outcomes[1]);
        prop_assert_eq!(&outcomes[0], &outcomes[2]);
        prop_assert_eq!(&stats[0], &stats[1]);
        let entries: usize = lengths.iter().sum();
        // Every hit and each token's first miss, over the three queries.
        let probes = 2 * (entries + tokens.len()) + lengths[0] + 1;
        prop_assert_eq!(stats[0].probes_resolved, probes as u64);
    }
}

#[test]
fn a_split_query_keeps_the_corrupt_entry_where_the_single_walk_skips_it() {
    let lengths = [600, 3, 0, 250];
    for position in [0, 127, 128, 129, 300, 599] {
        let (index, tokens, groups) =
            corpus(&lengths, &[(0, position)], &StorageConfig::in_memory(4), 3);
        let (outcomes, stats) = answer_three_ways(&index, std::slice::from_ref(&tokens));
        let want: Vec<DocId> = groups.iter().flatten().copied().collect();
        assert_eq!(outcomes[0][0].ids, want, "corrupt at {position}");
        assert_eq!(outcomes[0][0].stats.entries_touched, 853);
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        assert_eq!(stats[0], stats[1]);
    }
}

/// A memory-resident backend on which every probe takes 1 µs of a virtual
/// clock, so a deadline cuts a query after a fixed number of probes
/// (across all its lanes).
struct Ticking {
    index: ShardedIndex,
    clock: Arc<VirtualClock>,
}

impl ServeIndex for Ticking {
    fn probe(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        self.clock.advance(Duration::from_micros(1));
        self.index.probe(label)
    }
    fn shard_of(&self, label: &Label) -> u32 {
        ServeIndex::shard_of(&self.index, label)
    }
    fn shard_count(&self) -> usize {
        ServeIndex::shard_count(&self.index)
    }
    fn cache_stats(&self) -> CacheStats {
        ServeIndex::cache_stats(&self.index)
    }
    fn memory_resident(&self) -> bool {
        self.index.memory_resident()
    }
}

#[test]
fn a_deadline_cuts_a_split_query_to_one_prefix_per_token() {
    let lengths = [400, 7, 300, 0, 129];
    let (index, tokens, groups) = corpus(&lengths, &[(2, 150)], &StorageConfig::in_memory(3), 4);
    let probes: u64 = (lengths.iter().sum::<usize>() + tokens.len()) as u64;
    let clock = Arc::new(VirtualClock::new());
    let ticking = Ticking {
        index,
        clock: Arc::clone(&clock),
    };
    let server = ResilientServer::with_clock(ticking, ServeConfig::default(), clock.clone());
    let mut cut = 0;
    for budget in (0..probes + 50).step_by(13) {
        let query = Query {
            tokens: &tokens,
            tenant: None,
            deadline: Some(Duration::from_micros(budget)),
        };
        let started = clock.now();
        match server.answer_batch(&[query]).pop().unwrap() {
            Ok(outcome) => {
                assert_eq!(outcome.ids, groups.concat(), "{budget} µs");
            }
            Err(ServeError::DeadlineExceeded {
                deadline, partial, ..
            }) => {
                cut += 1;
                assert_eq!(deadline, Duration::from_micros(budget));
                assert!(clock.now() >= started + deadline);
                assert_eq!(partial.tokens_total, tokens.len());
                // The partial is a prefix of every token's group, the
                // groups in token order.
                let mut rest = &partial.ids[..];
                for group in &groups {
                    let taken = group
                        .iter()
                        .zip(rest)
                        .take_while(|(want, got)| want == got)
                        .count();
                    rest = &rest[taken..];
                }
                assert!(rest.is_empty(), "{budget} µs: {:?}", partial.ids);
                assert!(partial.ids.len() as u64 <= partial.probes_resolved);
                assert!(partial.probes_resolved < probes, "{budget} µs");
            }
            Err(other) => panic!("{budget} µs: {other}"),
        }
    }
    assert!(cut > 0, "some budget cuts the query");
    assert_eq!(server.stats().deadline_expired, cut);
}

#[test]
fn an_on_disk_query_over_the_split_threshold_probes_as_the_single_walk() {
    let lengths = [400, 7, 300, 0, 129];
    let dir = TempDir::new("split-scan-disk");
    let config = StorageConfig::on_disk(3, dir.path()).with_cache_budget(64 << 10);
    let (index, tokens, groups) = corpus(&lengths, &[], &config, 5);
    assert!(!index.memory_resident());
    let single_walk = (lengths.iter().sum::<usize>() + tokens.len()) as u64;
    let server = ResilientServer::new(index, ServeConfig::default());
    let faults = arm_faults(dir.path(), FaultPlan::seeded(1), None);
    for _ in 0..4 {
        assert_eq!(server.answer(&tokens).unwrap().ids, groups.concat());
    }
    assert_eq!(faults.probes_issued(), 4 * single_walk);
    assert_eq!(server.stats().probes_resolved, 4 * single_walk);
}

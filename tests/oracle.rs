//! The mutability oracle: randomized interleavings of
//! insert/delete/compact/query (plus mid-stream save → open cycles) checked
//! against a brute-force exact-scan oracle, for every supported
//! `(method, DivergenceKind)` pair.
//!
//! The oracle is the always-correct fallback for small collections: it keeps
//! the live set as `external id → row` and answers kNN by scanning it with
//! the plain divergence, sorted by `(distance, id)`. After *any* interleaving
//! of operations the index must return identical neighbor ids with distances
//! within `1e-10`, before and after a save/open round-trip.
//!
//! `proptest` is not available in the offline build environment, so the
//! interleavings are driven by a seeded `ChaCha8Rng` (the pattern of
//! `tests/properties.rs`): deterministic, reproducible, and re-runnable
//! under a different seed via `BREPARTITION_ORACLE_SEED` (CI runs two).
//!
//! The ABP spec runs at probability 1.0, its exactness point, where the
//! index serves the exact search — the only operating point where an
//! oracle comparison is sound for ABP. Pairs rejected by spec validation
//! (BP/ABP over the non-cumulative Generalized-I divergence) are asserted
//! to be exactly the known-unsupported ones and skipped.

mod common;

use std::collections::BTreeMap;

use brepartition::prelude::*;
use common::TempDir;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DIM: usize = 8;
const INITIAL_POINTS: usize = 48;
const OPS: usize = 110;
const DEFAULT_SEED: u64 = 0x0D15EA5E;

fn seed_from_env() -> u64 {
    match std::env::var("BREPARTITION_ORACLE_SEED") {
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("BREPARTITION_ORACLE_SEED must be a u64, got {raw:?}")),
        Err(_) => DEFAULT_SEED,
    }
}

/// The brute-force reference: the live set, scanned exactly.
struct Oracle {
    kind: DivergenceKind,
    live: BTreeMap<u32, Vec<f64>>,
}

impl Oracle {
    fn knn(&self, query: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> =
            self.live.iter().map(|(&id, row)| (id, self.kind.divergence(row, query))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Strictly positive rows keep every divergence (ISD, GI) in domain, and
/// the modest range keeps exponential-distance magnitudes sane.
fn random_row(rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..DIM).map(|_| rng.gen_range(0.2..8.0)).collect()
}

fn spec_for(method: Method, kind: DivergenceKind) -> IndexSpec {
    tuned(IndexSpec::new(method, kind))
}

fn tuned(spec: IndexSpec) -> IndexSpec {
    spec.with_partitions(2)
        .with_leaf_capacity(8)
        .with_page_size(1024)
        .with_sample_size(64)
        .with_seed(0x0B5)
}

/// The paper's four methods over `kind` — BP, ABP, BBT and VAF — each with
/// a stable salt for its RNG stream.
fn setups(kind: DivergenceKind) -> [(&'static str, u64, IndexSpec); 4] {
    [
        ("BP", 1, IndexSpec::brepartition(kind)),
        // p = 1.0 is the exactness point of the approximate search.
        ("ABP", 2, IndexSpec::approximate(kind).with_probability(1.0)),
        ("BBT", 3, IndexSpec::bbtree(kind)),
        ("VAF", 4, IndexSpec::vafile(kind)),
    ]
    .map(|(name, salt, spec)| (name, salt, tuned(spec)))
}

#[track_caller]
fn assert_matches_oracle(ctx: &str, index: &Index, oracle: &Oracle, query: &[f64], k: usize) {
    let got = index.query(&QueryRequest::new(query, k)).unwrap().neighbors;
    let want = oracle.knn(query, k);
    let got_ids: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
    let want_ids: Vec<u32> = want.iter().map(|(id, _)| *id).collect();
    assert_eq!(got_ids, want_ids, "{ctx}: neighbor ids diverged from brute force");
    for (rank, ((_, gd), (_, wd))) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (gd - wd).abs() <= 1e-10 * (1.0 + wd.abs()),
            "{ctx}: rank {rank} distance {gd} vs brute-force {wd}"
        );
    }
}

fn run_interleaving(name: &str, salt: u64, spec: IndexSpec, seed: u64) {
    let kind = spec.divergence;
    if spec.validate().is_err() {
        assert!(
            spec.method == Method::BrePartition && kind == DivergenceKind::GeneralizedI,
            "only BP/ABP over GI may be unsupported, got {name}/{kind}"
        );
        return;
    }
    let label = format!("{name}/{}", kind.short_name());
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ (salt << 32 | kind.short_name().len() as u64) ^ (kind as u64) << 8,
    );

    let rows: Vec<Vec<f64>> = (0..INITIAL_POINTS).map(|_| random_row(&mut rng)).collect();
    let data = DenseDataset::from_rows(&rows).unwrap();
    let mut index = Index::build(&spec, &data).unwrap();
    let mut oracle = Oracle {
        kind,
        live: rows.iter().enumerate().map(|(i, r)| (i as u32, r.clone())).collect(),
    };
    let mut issued: Vec<u32> = (0..INITIAL_POINTS as u32).collect();
    let mut expected_next = INITIAL_POINTS as u32;
    let root = TempDir::new(&format!("oracle-{name}-{}", kind.short_name()));

    for op in 0..OPS {
        let ctx = format!("{label} op {op}");
        match rng.gen_range(0..100u32) {
            // Insert a fresh row; ids must be issued monotonically.
            0..=37 => {
                let row = random_row(&mut rng);
                let id = index.insert(&row).unwrap();
                assert_eq!(id.0, expected_next, "{ctx}: id issue order");
                expected_next += 1;
                oracle.live.insert(id.0, row);
                issued.push(id.0);
            }
            // Delete: a previously issued id (live or already dead), or
            // occasionally a never-issued one; the reported liveness must
            // agree with the oracle either way.
            38..=57 => {
                let target = if rng.gen_range(0..8u32) == 0 {
                    expected_next + rng.gen_range(1..10u32)
                } else {
                    issued[rng.gen_range(0..issued.len())]
                };
                let got = index.delete(PointId(target)).unwrap();
                let want = oracle.live.remove(&target).is_some();
                assert_eq!(got, want, "{ctx}: delete({target}) liveness");
            }
            // Compact: fold the delta into a rebuilt backend. External ids
            // must survive, so the oracle is untouched.
            58..=65 => {
                if oracle.live.len() >= 4 {
                    index.compact().unwrap();
                    assert_eq!(index.len(), oracle.live.len(), "{ctx}: live count after compact");
                }
            }
            // Save → open mid-stream: the delta log must round-trip the
            // whole mutable state.
            66..=73 => {
                let dir = root.join(format!("step{op}"));
                index.save(&dir).unwrap();
                index = Index::open(&dir).unwrap();
                std::fs::remove_dir_all(&dir).unwrap();
                assert_eq!(index.len(), oracle.live.len(), "{ctx}: live count after reopen");
            }
            // Query against the brute-force oracle (k may exceed the live
            // count; both sides then return everything).
            _ => {
                let query = random_row(&mut rng);
                let k = rng.gen_range(1..11usize);
                assert_matches_oracle(&ctx, &index, &oracle, &query, k);
            }
        }
    }

    // Final acceptance sweep: a query battery, a save/open round-trip, the
    // same battery again (identical answers demanded on the reopened
    // index), and the batch path over the reopened serving snapshot.
    while oracle.live.len() < 4 {
        let row = random_row(&mut rng);
        let id = index.insert(&row).unwrap();
        oracle.live.insert(id.0, row);
    }
    let finals: Vec<Vec<f64>> = (0..6).map(|_| random_row(&mut rng)).collect();
    for (qi, q) in finals.iter().enumerate() {
        assert_matches_oracle(&format!("{label} final query {qi}"), &index, &oracle, q, 5);
    }
    let dir = root.join("final");
    index.save(&dir).unwrap();
    let reopened = Index::open(&dir).unwrap();
    assert_eq!(reopened.len(), oracle.live.len(), "{label}: live count after final reopen");
    for (qi, q) in finals.iter().enumerate() {
        assert_matches_oracle(&format!("{label} reopened query {qi}"), &reopened, &oracle, q, 5);
    }
    let batch = reopened.run(&Request::uniform(&finals, 5)).unwrap();
    for (qi, outcome) in batch.outcomes.iter().enumerate() {
        let want = oracle.knn(&finals[qi], 5);
        let got_ids: Vec<u32> = outcome.neighbors.iter().map(|(id, _)| id.0).collect();
        let want_ids: Vec<u32> = want.iter().map(|(id, _)| *id).collect();
        assert_eq!(got_ids, want_ids, "{label} batch query {qi}: ids diverged from brute force");
    }
}

#[track_caller]
fn assert_sharded_matches_oracle(
    ctx: &str,
    index: &ShardedIndex,
    oracle: &Oracle,
    query: &[f64],
    k: usize,
) {
    let got = index.query(&QueryRequest::new(query, k)).unwrap().neighbors;
    let want = oracle.knn(query, k);
    let got_ids: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
    let want_ids: Vec<u32> = want.iter().map(|(id, _)| *id).collect();
    assert_eq!(got_ids, want_ids, "{ctx}: neighbor ids diverged from brute force");
    for (rank, ((_, gd), (_, wd))) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (gd - wd).abs() <= 1e-10 * (1.0 + wd.abs()),
            "{ctx}: rank {rank} distance {gd} vs brute-force {wd}"
        );
    }
}

/// The sharded mirror of [`run_interleaving`]: the same op mix driven
/// through a `ShardedIndex`, so routed inserts/deletes, per-shard compaction
/// and the sharded directory layout all face the brute-force oracle.
fn run_sharded_interleaving(name: &str, salt: u64, base: IndexSpec, seed: u64) {
    let kind = base.divergence;
    let spec = ShardSpec::capacity(base, 3);
    if spec.validate().is_err() {
        assert!(
            base.method == Method::BrePartition && kind == DivergenceKind::GeneralizedI,
            "only BP/ABP over GI may be unsupported, got {name}/{kind}"
        );
        return;
    }
    let label = format!("sharded-{name}/{}", kind.short_name());
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed.rotate_left(17) ^ (salt << 32 | kind.short_name().len() as u64) ^ (kind as u64) << 8,
    );

    let rows: Vec<Vec<f64>> = (0..INITIAL_POINTS).map(|_| random_row(&mut rng)).collect();
    let data = DenseDataset::from_rows(&rows).unwrap();
    let mut index = ShardedIndex::build(&spec, &data).unwrap();
    let mut oracle = Oracle {
        kind,
        live: rows.iter().enumerate().map(|(i, r)| (i as u32, r.clone())).collect(),
    };
    let mut issued: Vec<u32> = (0..INITIAL_POINTS as u32).collect();
    let mut expected_next = INITIAL_POINTS as u32;
    let root = TempDir::new(&format!("oracle-sharded-{name}-{}", kind.short_name()));

    for op in 0..OPS {
        let ctx = format!("{label} op {op}");
        match rng.gen_range(0..100u32) {
            0..=37 => {
                let row = random_row(&mut rng);
                let id = index.insert(&row).unwrap();
                assert_eq!(id.0, expected_next, "{ctx}: global id issue order");
                expected_next += 1;
                oracle.live.insert(id.0, row);
                issued.push(id.0);
            }
            38..=57 => {
                let target = if rng.gen_range(0..8u32) == 0 {
                    expected_next + rng.gen_range(1..10u32)
                } else {
                    issued[rng.gen_range(0..issued.len())]
                };
                let got = index.delete(PointId(target)).unwrap();
                let want = oracle.live.remove(&target).is_some();
                assert_eq!(got, want, "{ctx}: delete({target}) liveness");
            }
            58..=65 => {
                if oracle.live.len() >= 4 {
                    index.compact().unwrap();
                    assert_eq!(index.len(), oracle.live.len(), "{ctx}: live count after compact");
                }
            }
            66..=73 => {
                let dir = root.join(format!("step{op}"));
                index.save(&dir).unwrap();
                index = ShardedIndex::open(&dir).unwrap();
                std::fs::remove_dir_all(&dir).unwrap();
                assert_eq!(index.len(), oracle.live.len(), "{ctx}: live count after reopen");
            }
            _ => {
                let query = random_row(&mut rng);
                let k = rng.gen_range(1..11usize);
                assert_sharded_matches_oracle(&ctx, &index, &oracle, &query, k);
            }
        }
    }

    // Final sweep mirrors the unsharded one, plus the fan-out batch path
    // under two different thread budgets (answers must not depend on it).
    while oracle.live.len() < 4 {
        let row = random_row(&mut rng);
        let id = index.insert(&row).unwrap();
        oracle.live.insert(id.0, row);
    }
    let finals: Vec<Vec<f64>> = (0..6).map(|_| random_row(&mut rng)).collect();
    for (qi, q) in finals.iter().enumerate() {
        assert_sharded_matches_oracle(&format!("{label} final query {qi}"), &index, &oracle, q, 5);
    }
    let dir = root.join("final");
    index.save(&dir).unwrap();
    let reopened = ShardedIndex::open(&dir).unwrap();
    assert_eq!(reopened.len(), oracle.live.len(), "{label}: live count after final reopen");
    for budget in [1usize, 4] {
        let batch = reopened.run_with_budget(&Request::uniform(&finals, 5), budget).unwrap();
        for (qi, outcome) in batch.outcomes.iter().enumerate() {
            let want = oracle.knn(&finals[qi], 5);
            let got_ids: Vec<u32> = outcome.neighbors.iter().map(|(id, _)| id.0).collect();
            let want_ids: Vec<u32> = want.iter().map(|(id, _)| *id).collect();
            assert_eq!(
                got_ids, want_ids,
                "{label} batch query {qi} (budget {budget}): ids diverged from brute force"
            );
        }
    }
}

/// One applied mutation of the concurrent run, recorded in application
/// order under the ledger lock (the concurrent analogue of the loadgen
/// mutation log).
enum Applied {
    Insert { id: u32, row: Vec<f64> },
    Delete { id: u32 },
}

/// N mutator threads race query batches against one shared `Index` with
/// background compaction armed on an aggressive trigger. Mutations are
/// applied under a ledger lock (so the ledger's order *is* the application
/// order, exactly like `loadgen::run_open_loop_concurrent`); sampled
/// queries pin the ledger version they executed under. Afterwards a fresh
/// index replays the ledger serially and every sample must come back
/// bit-identical in ids (distances within the oracle tolerance) — however
/// the threads interleaved and however many epoch swaps the compactor
/// performed mid-flight. Finishes with a save → open immediately after a
/// compaction-triggering burst, so persistence during the
/// compaction-requested state is exercised too.
#[test]
fn oracle_concurrent_mutators_match_serial_replay() {
    use std::sync::Mutex;

    let seed = seed_from_env();
    let kind = DivergenceKind::ItakuraSaito;
    let spec = spec_for(Method::BrePartition, kind)
        .with_background_compaction(true)
        .with_compaction_ratios(0.05, 0.05);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC04C);
    let rows: Vec<Vec<f64>> = (0..INITIAL_POINTS).map(|_| random_row(&mut rng)).collect();
    let data = DenseDataset::from_rows(&rows).unwrap();
    let index = Index::build(&spec, &data).unwrap();

    struct Ledger {
        live: Vec<u32>,
        dead: Vec<u32>,
        log: Vec<Applied>,
    }
    let ledger = Mutex::new(Ledger {
        live: (0..INITIAL_POINTS as u32).collect(),
        dead: Vec::new(),
        log: Vec::new(),
    });
    // (version, query, k, answered neighbors)
    type Sample = (usize, Vec<f64>, usize, Vec<(u32, f64)>);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());

    const MUTATORS: usize = 3;
    const READERS: usize = 2;
    const OPS_PER_MUTATOR: usize = 60;
    const QUERIES_PER_READER: usize = 48;

    std::thread::scope(|scope| {
        for t in 0..MUTATORS {
            let index = &index;
            let ledger = &ledger;
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0xA11CE + ((t as u64) << 20)));
            scope.spawn(move || {
                for _ in 0..OPS_PER_MUTATOR {
                    match rng.gen_range(0..8u32) {
                        0..=4 => {
                            let row = random_row(&mut rng);
                            let mut guard = ledger.lock().unwrap();
                            let id = index.insert(&row).unwrap();
                            guard.live.push(id.0);
                            guard.log.push(Applied::Insert { id: id.0, row });
                        }
                        5..=6 => {
                            let mut guard = ledger.lock().unwrap();
                            if guard.live.len() <= 4 {
                                continue;
                            }
                            let slot = rng.gen_range(0..guard.live.len());
                            let id = guard.live.swap_remove(slot);
                            assert!(
                                index.delete(PointId(id)).unwrap(),
                                "ledger said {id} was live"
                            );
                            guard.dead.push(id);
                            guard.log.push(Applied::Delete { id });
                        }
                        // A dead or never-issued delete: must report false
                        // and is deliberately *not* logged — the replay
                        // below only works if these were true no-ops.
                        _ => {
                            let guard = ledger.lock().unwrap();
                            let target = if guard.dead.is_empty() || rng.gen_range(0..2u32) == 0 {
                                u32::MAX - rng.gen_range(0..512u32)
                            } else {
                                guard.dead[rng.gen_range(0..guard.dead.len())]
                            };
                            assert!(
                                !index.delete(PointId(target)).unwrap(),
                                "delete({target}) resurrected a dead id"
                            );
                        }
                    }
                }
            });
        }
        for r in 0..READERS {
            let index = &index;
            let ledger = &ledger;
            let samples = &samples;
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0xBEAD + ((r as u64) << 20)));
            scope.spawn(move || {
                for i in 0..QUERIES_PER_READER {
                    let query = random_row(&mut rng);
                    let k = rng.gen_range(1..8usize);
                    if i % 3 == 0 {
                        // Sampled: hold the ledger closed so no mutation
                        // lands between the version read and the query.
                        let guard = ledger.lock().unwrap();
                        let version = guard.log.len();
                        let answer = index.query(&QueryRequest::new(&query, k)).unwrap().neighbors;
                        drop(guard);
                        let answer = answer.into_iter().map(|(id, d)| (id.0, d)).collect();
                        samples.lock().unwrap().push((version, query, k, answer));
                    } else {
                        // Unsampled: no harness lock at all — these run
                        // concurrently with mutations and epoch swaps.
                        index.query(&QueryRequest::new(&query, k)).unwrap();
                    }
                }
            });
        }
        // One explicit compactor kicker: request-and-wait folds while the
        // mutators keep writing.
        {
            let index = &index;
            scope.spawn(move || {
                for _ in 0..4 {
                    index.compact().unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });

    assert!(
        index.compactions() >= 1,
        "the aggressive trigger plus explicit compacts must have folded at least once"
    );

    // Save immediately after a compaction-triggering burst — the worker
    // may be mid-rebuild — then reopen; the reopened index must hold
    // exactly the ledger's live set.
    let ledger = ledger.into_inner().unwrap();
    let mut index = index;
    {
        let mut burst_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0057);
        for _ in 0..6 {
            index.insert(&random_row(&mut burst_rng)).unwrap();
        }
        let dir = TempDir::new(&format!("oracle-concurrent-{}", kind.short_name()));
        index.save(&dir).unwrap();
        index = Index::open(&dir).unwrap();
        assert_eq!(index.len(), ledger.live.len() + 6, "live count after reopen");
    }

    // Serial replay: apply the ledger in order against a fresh
    // single-threaded index (no background compactor) and demand every
    // sample back, id-for-id.
    let replay = Index::build(&spec_for(Method::BrePartition, kind), &data).unwrap();
    let mut samples = samples.into_inner().unwrap();
    samples.sort_by_key(|s| s.0);
    let mut applied = 0usize;
    for (version, query, k, answer) in &samples {
        while applied < *version {
            match &ledger.log[applied] {
                Applied::Insert { id, row } => {
                    assert_eq!(replay.insert(row).unwrap().0, *id, "replay id issue order");
                }
                Applied::Delete { id } => {
                    assert!(replay.delete(PointId(*id)).unwrap(), "replay delete({id})");
                }
            }
            applied += 1;
        }
        let want = replay.query(&QueryRequest::new(query, *k)).unwrap().neighbors;
        let want_ids: Vec<u32> = want.iter().map(|(id, _)| id.0).collect();
        let got_ids: Vec<u32> = answer.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            got_ids, want_ids,
            "sample at version {version} diverged from the serial replay"
        );
        for (rank, ((_, wd), (_, gd))) in want.iter().zip(answer.iter()).enumerate() {
            assert!(
                (gd - wd).abs() <= 1e-10 * (1.0 + wd.abs()),
                "version {version} rank {rank}: concurrent {gd} vs replay {wd}"
            );
        }
    }
}

/// Deleting a never-issued or already-dead id must not dirty the delta or
/// reschedule work: after a fold, a barrage of dead deletes leaves the
/// epoch, the compaction counter, the fold timer and the pending-write flag
/// untouched, and an explicit `compact()` stays a no-op. Exercised through
/// both the inline and the background compaction paths.
#[test]
fn idempotent_deletes_keep_compaction_a_noop() {
    let seed = seed_from_env();
    for background in [false, true] {
        let kind = DivergenceKind::SquaredEuclidean;
        let mut spec = spec_for(Method::BBTree, kind);
        if background {
            spec = spec.with_background_compaction(true);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1DE0);
        let rows: Vec<Vec<f64>> = (0..INITIAL_POINTS).map(|_| random_row(&mut rng)).collect();
        let data = DenseDataset::from_rows(&rows).unwrap();
        let index = Index::build(&spec, &data).unwrap();
        let ctx = if background { "background" } else { "inline" };

        // A fresh index: a never-issued delete is a no-op and an explicit
        // compact has nothing to do.
        assert!(!index.delete(PointId(9_999)).unwrap());
        assert!(!index.delta().has_pending_writes(), "{ctx}: dead delete dirtied the delta");
        index.compact().unwrap();
        assert_eq!(index.epoch(), 0, "{ctx}: no-op compact bumped the epoch");
        assert_eq!(index.compactions(), 0);
        assert_eq!(index.compaction_nanos(), 0, "{ctx}: no-op compact was timed");

        // One real delete, folded.
        assert!(index.delete(PointId(3)).unwrap());
        index.compact().unwrap();
        let epoch = index.epoch();
        let folds = index.compactions();
        assert_eq!(folds, 1, "{ctx}: the real tombstone must fold");
        let fold_nanos = index.compaction_nanos();
        assert!(fold_nanos > 0, "{ctx}: the fold was not timed");

        // Dead deletes (the folded id, plus never-issued ids) must change
        // nothing, and compaction must stay a no-op.
        for target in [3u32, 9_999, u32::MAX] {
            assert!(!index.delete(PointId(target)).unwrap(), "{ctx}: delete({target})");
        }
        assert!(!index.delta().has_pending_writes(), "{ctx}: dead deletes dirtied the delta");
        index.compact().unwrap();
        assert_eq!(index.epoch(), epoch, "{ctx}: idempotent deletes rescheduled a fold");
        assert_eq!(index.compactions(), folds, "{ctx}: compaction count moved");
        assert_eq!(index.compaction_nanos(), fold_nanos, "{ctx}: fold timer moved");
        assert_eq!(index.len(), INITIAL_POINTS - 1);
    }
}

/// The overlay must *clamp* a caller's candidate budget to cover its
/// tombstone over-fetch, not truncate below it: with more than `k`
/// tombstones concentrated on the very best base results and a budget
/// sized for `k`, all `k` live answers must still come back. (Before the
/// clamp, the inner backend refined only `budget` candidates — all of
/// them tombstoned — and returned fewer than `k` live results even though
/// they exist.) The row layout makes VA-file lower bounds exact-ordered,
/// so the oracle comparison is sound despite the budget.
#[test]
fn tombstoned_top_results_survive_a_tight_candidate_budget() {
    const N: usize = 32;
    const K: usize = 3;
    const TOMBSTONES: usize = 5;
    let kind = DivergenceKind::SquaredEuclidean;
    // Strictly increasing distance from the query for ascending ids, with
    // rows far enough apart that every point lands in its own
    // quantization cell.
    let rows: Vec<Vec<f64>> = (0..N).map(|i| vec![1.0 + i as f64; 4]).collect();
    let data = DenseDataset::from_rows(&rows).unwrap();
    let index = Index::build(&spec_for(Method::VaFile, kind), &data).unwrap();
    let query = vec![1.0; 4];

    // Tombstone the TOMBSTONES nearest points — more than k, all at the
    // top of the ranking.
    for id in 0..TOMBSTONES as u32 {
        assert!(index.delete(PointId(id)).unwrap());
    }

    let request = QueryRequest::new(&query, K).with_candidate_budget(K);
    let got = index.query(&request).unwrap().neighbors;
    let got_ids: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
    let want_ids: Vec<u32> = (TOMBSTONES as u32..(TOMBSTONES + K) as u32).collect();
    assert_eq!(
        got_ids, want_ids,
        "the k best live points must survive the tombstone over-fetch under a tight budget"
    );
    assert_eq!(got.len(), K, "budget clamping must never truncate below k");
}

#[test]
fn oracle_all_methods_and_kinds() {
    let seed = seed_from_env();
    for kind in DivergenceKind::ALL {
        for (name, salt, spec) in setups(kind) {
            run_interleaving(name, salt, spec, seed);
        }
    }
}

#[test]
fn oracle_sharded_capacity_all_methods_and_kinds() {
    let seed = seed_from_env();
    for kind in DivergenceKind::ALL {
        for (name, salt, spec) in setups(kind) {
            run_sharded_interleaving(name, salt, spec, seed);
        }
    }
}

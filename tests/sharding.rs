//! The sharded serving tier's core guarantees.
//!
//! * **Bit-identity**: for every exact `(method, DivergenceKind)` pair, a
//!   sharded index returns neighbor ids and distances bit-identical to the
//!   equivalent unsharded `Index` — single queries and batches, before and
//!   after a save → open cycle. (The ABP spec is included at probability
//!   1.0, its exactness point.)
//! * **Thread budget**: the fan-out splits one worker budget across shards
//!   instead of multiplying it — pinned by counting concurrently live
//!   backend searches from inside a probe backend.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use brepartition::prelude::*;
use common::TempDir;

const DIM: usize = 8;

/// Strictly positive rows keep every divergence in domain.
fn rows(n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..DIM)
                .map(|j| {
                    let x = (i as u64).wrapping_mul(2654435761).wrapping_add(j as u64 * 97 + salt);
                    0.2 + (x % 1000) as f64 / 125.0
                })
                .collect()
        })
        .collect()
}

/// The paper's four methods over `kind`: BP, ABP, BBT and VAF.
fn setups(kind: DivergenceKind) -> [(&'static str, IndexSpec); 4] {
    [
        ("BP", IndexSpec::brepartition(kind)),
        ("ABP", IndexSpec::approximate(kind)),
        ("BBT", IndexSpec::bbtree(kind)),
        ("VAF", IndexSpec::vafile(kind)),
    ]
}

fn tuned(spec: IndexSpec) -> IndexSpec {
    spec.with_partitions(2)
        .with_leaf_capacity(8)
        .with_page_size(1024)
        .with_sample_size(64)
        .with_seed(0x5EED)
}

#[track_caller]
fn assert_bit_identical(ctx: &str, got: &[(PointId, f64)], want: &[(PointId, f64)]) {
    assert_eq!(got.len(), want.len(), "{ctx}: neighbor count");
    for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.0, w.0, "{ctx}: id at rank {rank}");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{ctx}: distance bits at rank {rank}");
    }
}

/// The acceptance criterion: `ShardedIndex` ≡ unsharded `Index`, bit for
/// bit, for every exact pair — including after mutation and across a save
/// → open cycle.
#[test]
fn capacity_mode_is_bit_identical_to_unsharded_for_every_exact_pair() {
    let data_rows = rows(60, 1);
    let data = DenseDataset::from_rows(&data_rows).unwrap();
    let queries = rows(12, 77);
    for kind in DivergenceKind::ALL {
        for (name, spec) in setups(kind) {
            // p = 1.0 is the exactness point of the approximate search, the
            // only operating point where a bit-identity comparison is sound
            // for ABP.
            let base = tuned(spec).with_probability(1.0);
            if base.validate().is_err() {
                continue; // BP/ABP over GI, pinned by the oracle suite
            }
            let label = format!("{name}/{}", kind.short_name());
            let plain = Index::build(&base, &data).unwrap();
            let sharded = ShardedIndex::build(&ShardSpec::capacity(base, 3), &data).unwrap();
            assert_eq!(sharded.len(), plain.len(), "{label}: build size");

            // Identical mutations on both sides: inserts keep issuing the
            // same global ids, deletes agree on liveness.
            for (i, row) in rows(6, 9).iter().enumerate() {
                let a = plain.insert(row).unwrap();
                let b = sharded.insert(row).unwrap();
                assert_eq!(a, b, "{label}: insert {i} id");
            }
            for target in [3u32, 17, 41, 62, 200] {
                let a = plain.delete(PointId(target)).unwrap();
                let b = sharded.delete(PointId(target)).unwrap();
                assert_eq!(a, b, "{label}: delete({target}) liveness");
            }
            assert_eq!(sharded.len(), plain.len(), "{label}: live size after mutation");

            // Single queries and a batch, bit-identical.
            for (qi, q) in queries.iter().enumerate() {
                let got = sharded.query(&QueryRequest::new(q, 7)).unwrap();
                let want = plain.query(&QueryRequest::new(q, 7)).unwrap();
                assert_bit_identical(
                    &format!("{label} query {qi}"),
                    &got.neighbors,
                    &want.neighbors,
                );
            }
            let got = sharded.run_with_budget(&Request::uniform(&queries, 9), 4).unwrap();
            let want = plain.run(&Request::uniform(&queries, 9)).unwrap();
            for (qi, (g, w)) in got.outcomes.iter().zip(want.outcomes.iter()).enumerate() {
                assert_bit_identical(&format!("{label} batch {qi}"), &g.neighbors, &w.neighbors);
            }

            // Across a save → open cycle (with compaction in between on the
            // sharded side, which must not disturb global ids).
            sharded.compact().unwrap();
            let dir = TempDir::new(&format!("sharding-{}", label.replace('/', "-")));
            sharded.save(&dir).unwrap();
            let reopened = ShardedIndex::open(&dir).unwrap();
            assert_eq!(reopened.len(), plain.len(), "{label}: reopened size");
            let got = reopened.run_with_budget(&Request::uniform(&queries, 9), 2).unwrap();
            for (qi, (g, w)) in got.outcomes.iter().zip(want.outcomes.iter()).enumerate() {
                assert_bit_identical(&format!("{label} reopened {qi}"), &g.neighbors, &w.neighbors);
            }
        }
    }
}

/// Counters shared across every probe shard: one global live count and its
/// high-water mark. Per-shard counters would each peak at 1 and say nothing
/// about the fleet-wide concurrency this test pins.
#[derive(Default)]
struct Counters {
    live: AtomicUsize,
    peak: AtomicUsize,
}

/// A probe backend that records how many searches run at the same time
/// across all shards sharing its counters.
struct ConcurrencyProbe {
    counters: Arc<Counters>,
}

impl ConcurrencyProbe {
    fn sharing(counters: &Arc<Counters>) -> Arc<Self> {
        Arc::new(ConcurrencyProbe { counters: Arc::clone(counters) })
    }
}

impl SearchBackend for ConcurrencyProbe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn dim(&self) -> usize {
        2
    }
    fn len(&self) -> usize {
        1
    }
    fn new_scratch(&self) -> Scratch {
        Scratch::new(BufferPool::new(0))
    }
    fn knn_with_options(
        &self,
        _scratch: &mut Scratch,
        _query: &[f64],
        k: usize,
        _options: &QueryOptions,
    ) -> std::result::Result<BackendAnswer, EngineError> {
        let live = self.counters.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.counters.peak.fetch_max(live, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(2));
        self.counters.live.fetch_sub(1, Ordering::SeqCst);
        Ok(BackendAnswer {
            neighbors: vec![(PointId(0), 0.0); k.min(1)],
            candidates: 1,
            io: IoStats::default(),
        })
    }
    fn save(&self, _dir: &std::path::Path) -> std::result::Result<(), EngineError> {
        Err(EngineError::Config("probe backends do not persist".to_string()))
    }
    fn export_rows(&self) -> std::result::Result<DenseDataset, EngineError> {
        Err(EngineError::Config("probe backends hold no rows".to_string()))
    }
}

/// The oversubscription pin: 8 shards sharing a budget of 4 never run more
/// than 4 concurrent searches — the budget is split, not multiplied.
#[test]
fn shard_fanout_splits_one_thread_budget_instead_of_multiplying_it() {
    let budget = 4;
    let shards = 8;
    let counters = Arc::new(Counters::default());
    let backends: Vec<Arc<dyn SearchBackend>> = (0..shards)
        .map(|_| ConcurrencyProbe::sharing(&counters) as Arc<dyn SearchBackend>)
        .collect();
    let engine = ShardedEngine::new(backends, budget).unwrap();
    assert_eq!(engine.shards(), shards);
    assert_eq!(engine.budget(), budget);
    assert_eq!(engine.concurrent_shards(), budget);
    assert_eq!(engine.shard_threads(), vec![1; shards]);
    assert_eq!(engine.shard_threads().iter().sum::<usize>(), shards);

    let queries: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, 1.0]).collect();
    let requests: Vec<EngineRequest<'_>> =
        queries.iter().map(|q| EngineRequest::new(q, 1)).collect();
    let results = engine.run_requests(&requests).unwrap();
    assert_eq!(results.len(), shards);
    let peak = counters.peak.load(Ordering::SeqCst);
    assert!(peak > 1, "the probe never observed concurrency — the pin is vacuous");
    assert!(
        peak <= budget,
        "{peak} concurrent searches exceeded the budget of {budget} (oversubscribed fan-out)"
    );

    // A budget covering every shard divides itself across them.
    let spare = Arc::new(Counters::default());
    let wide = ShardedEngine::new(
        (0..3).map(|_| ConcurrencyProbe::sharing(&spare) as Arc<dyn SearchBackend>).collect(),
        8,
    )
    .unwrap();
    assert_eq!(wide.shard_threads(), vec![3, 3, 2]);
    assert_eq!(wide.shard_threads().iter().sum::<usize>(), 8);
    assert_eq!(wide.concurrent_shards(), 3);

    // Degenerate configurations are rejected, not served.
    assert!(ShardedEngine::new(Vec::new(), 4).is_err());
    assert!(ShardedEngine::new(
        vec![ConcurrencyProbe::sharing(&spare) as Arc<dyn SearchBackend>],
        0
    )
    .is_err());
}

/// Regression: deleting every point homed on one capacity shard must not
/// kill the sharded index. The emptied shard *parks* — `compact()`
/// succeeds, queries keep serving bit-identically from the surviving
/// shards, save → open round-trips the parked shard, and a later insert
/// routed there revives it. (Earlier releases aborted the whole sharded
/// compact with `EmptyDataset` as soon as any shard's live set hit zero.)
#[test]
fn capacity_shard_emptied_by_deletes_parks_and_revives() {
    const N: u32 = 48;
    let data_rows = rows(N as usize, 7);
    let data = DenseDataset::from_rows(&data_rows).unwrap();
    let base = tuned(IndexSpec::bbtree(DivergenceKind::SquaredEuclidean));
    let sspec = ShardSpec::capacity(base, 3);
    let sharded = ShardedIndex::build(&sspec, &data).unwrap();
    // An unsharded twin mutated identically supplies the ground truth.
    let plain = Index::build(&base, &data).unwrap();

    // Delete the entire slice homed on shard 0.
    let victims: Vec<u32> = (0..N).filter(|id| sspec.route(PointId(*id)) == 0).collect();
    assert!(!victims.is_empty(), "the salt routed nothing to shard 0; adjust the dataset");
    for id in &victims {
        assert!(sharded.delete(PointId(*id)).unwrap(), "victim {id} was live");
        assert!(plain.delete(PointId(*id)).unwrap());
    }
    assert_eq!(sharded.len(), (N as usize) - victims.len());

    // Compacting with a fully-emptied shard parks it instead of failing.
    sharded.compact().unwrap();

    // The surviving shards keep serving, bit-identical to the twin.
    let queries = rows(8, 23);
    for (qi, q) in queries.iter().enumerate() {
        let got = sharded.query(&QueryRequest::new(q, 5)).unwrap();
        let want = plain.query(&QueryRequest::new(q, 5)).unwrap();
        assert_bit_identical(&format!("parked query {qi}"), &got.neighbors, &want.neighbors);
    }

    // The parked shard survives a save → open cycle.
    let dir = TempDir::new("sharding-parked-shard");
    sharded.save(&dir).unwrap();
    let reopened = ShardedIndex::open(&dir).unwrap();
    assert_eq!(reopened.len(), sharded.len(), "reopened live size");

    // Reinsert until an issued id routes back to shard 0: the parked
    // shard revives and serves its new point (distance 0 ⇒ its own 1-NN).
    let mut fresh_rows = rows(64, 999).into_iter();
    let mut next = N;
    loop {
        let row = fresh_rows.next().expect("64 inserts never routed to shard 0");
        let id = reopened.insert(&row).unwrap();
        assert_eq!(id.0, next, "global ids stay monotonic across the parked epoch");
        next += 1;
        if sspec.route(id) == 0 {
            let hit = reopened.query(&QueryRequest::new(&row, 1)).unwrap();
            assert_eq!(hit.neighbors[0].0, id, "the revived shard must serve its new point");
            break;
        }
    }
}

/// Build rejects a shard count the dataset cannot populate,
/// and the spec rails reject nonsense before any build work.
#[test]
fn sharded_build_rejects_unbuildable_configurations() {
    let data = DenseDataset::from_rows(&rows(3, 1)).unwrap();
    let base = tuned(IndexSpec::bbtree(DivergenceKind::SquaredEuclidean));
    // 3 points over 64 shards: some capacity shard must come up empty.
    let err = ShardedIndex::build(&ShardSpec::capacity(base, 64), &data).unwrap_err();
    assert!(matches!(err, Error::Spec(_)), "expected a spec error, got {err:?}");
    assert!(err.to_string().contains("shard"), "unhelpful error: {err}");
    // Zero shards is invalid.
    assert!(ShardedIndex::build(&ShardSpec::capacity(base, 0), &data).is_err());
    // One shard over tiny data builds.
    let one = ShardedIndex::build(&ShardSpec::capacity(base, 1), &data).unwrap();
    assert_eq!(one.len(), 3);
}

//! Loom-free seeded concurrency stress for the LSM mutable layer.
//!
//! Races N mutator threads, two readers and an explicit compactor against
//! one shared `Index` with background compaction armed on an aggressive
//! trigger, then replays the mutation ledger serially and demands every
//! version-pinned sample back id-for-id. One reader calls `Index::query`;
//! the other sends its queries as `Index::run_with` batches of four on two
//! threads, so the batch engine and its helper pool race the writers too.
//! The schedule is fully seeded — same seed, same ledger, same verdict — so
//! a CI failure here is a repro recipe, not a flake. The process exits
//! non-zero on any divergence (assertions propagate out of
//! `thread::scope`).
//!
//! Knobs (all environment variables):
//!
//! * `BREPARTITION_STRESS_SEED` — base seed (default `0xD0C5_EED`).
//! * `BREPARTITION_STRESS_ROUNDS` — index lifetimes per run (default 2).
//! * `BREPARTITION_STRESS_THREADS` — mutator threads (default 4).
//! * `BREPARTITION_STRESS_OPS` — mutations per mutator thread (default 250).

use std::sync::Mutex;
use std::time::Instant;

use brepartition::prelude::*;
use loadgen::SplitMix64;

const DIM: usize = 6;
const INITIAL_POINTS: usize = 64;
const READERS: usize = 2;
/// The reader that sends its queries as engine batches, so the run (and
/// the sanitizer job that runs it) covers the batch engine's helper pool.
const BATCHED_READER: usize = 1;
const READER_BATCH: usize = 4;
const BATCH_THREADS: usize = 2;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Strictly positive rows keep every divergence in domain.
fn random_row(rng: &mut SplitMix64) -> Vec<f64> {
    (0..DIM).map(|_| 0.2 + rng.next_f64() * 8.0).collect()
}

/// One applied mutation, recorded in application order under the ledger
/// lock — the replay script.
enum Applied {
    Insert { id: u32, row: Vec<f64> },
    Delete { id: u32 },
}

struct Ledger {
    live: Vec<u32>,
    dead: Vec<u32>,
    log: Vec<Applied>,
}

/// A version-pinned sample: (ledger version, query, k, answered ids).
type Sample = (usize, Vec<f64>, usize, Vec<u32>);

/// Answer `(query, k)` pairs, each as its neighbour ids: as one engine
/// batch on [`BATCH_THREADS`] threads when `batched`, otherwise one
/// `Index::query` at a time.
fn answer(index: &Index, requests: &[(Vec<f64>, usize)], batched: bool) -> Vec<Vec<u32>> {
    let ids = |neighbors: Vec<(PointId, f64)>| neighbors.into_iter().map(|(id, _)| id.0).collect();
    if batched {
        let request = Request::batch(requests.iter().map(|(q, k)| QueryRequest::new(q, *k)));
        let config = EngineConfig::default().with_threads(BATCH_THREADS);
        let batch = index.run_with(&request, config).expect("stress batch");
        batch.outcomes.into_iter().map(|o| ids(o.neighbors)).collect()
    } else {
        requests
            .iter()
            .map(|(q, k)| {
                ids(index.query(&QueryRequest::new(q, *k)).expect("stress query").neighbors)
            })
            .collect()
    }
}

fn stress_round(round: u64, seed: u64, mutators: usize, ops_per_mutator: usize) {
    let spec = IndexSpec::new(Method::BrePartition, DivergenceKind::ItakuraSaito)
        .with_partitions(2)
        .with_leaf_capacity(8)
        .with_page_size(1024)
        .with_sample_size(64)
        .with_seed(0x0B5)
        .with_background_compaction(true)
        .with_compaction_ratios(0.05, 0.05);
    let mut rng = SplitMix64::new(seed ^ (round << 32));
    let rows: Vec<Vec<f64>> = (0..INITIAL_POINTS).map(|_| random_row(&mut rng)).collect();
    let data = DenseDataset::from_rows(&rows).expect("stress dataset");
    let index = Index::build(&spec, &data).expect("stress build");

    let ledger = Mutex::new(Ledger {
        live: (0..INITIAL_POINTS as u32).collect(),
        dead: Vec::new(),
        log: Vec::new(),
    });
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..mutators {
            let index = &index;
            let ledger = &ledger;
            let mut rng = SplitMix64::new(seed ^ (round << 32) ^ (0xA110 + ((t as u64) << 16)));
            scope.spawn(move || {
                for _ in 0..ops_per_mutator {
                    match rng.next_below(8) {
                        0..=4 => {
                            let row = random_row(&mut rng);
                            let mut guard = ledger.lock().unwrap();
                            let id = index.insert(&row).expect("stress insert");
                            guard.live.push(id.0);
                            guard.log.push(Applied::Insert { id: id.0, row });
                        }
                        5..=6 => {
                            let mut guard = ledger.lock().unwrap();
                            if guard.live.len() <= 8 {
                                continue;
                            }
                            let slot = rng.next_below(guard.live.len() as u64) as usize;
                            let id = guard.live.swap_remove(slot);
                            assert!(
                                index.delete(PointId(id)).expect("stress delete"),
                                "ledger said {id} was live"
                            );
                            guard.dead.push(id);
                            guard.log.push(Applied::Delete { id });
                        }
                        // Dead / never-issued deletes: strict no-ops, never
                        // logged — the replay depends on it.
                        _ => {
                            let guard = ledger.lock().unwrap();
                            let target = if guard.dead.is_empty() || rng.next_below(2) == 0 {
                                u32::MAX - rng.next_below(512) as u32
                            } else {
                                guard.dead[rng.next_below(guard.dead.len() as u64) as usize]
                            };
                            assert!(
                                !index.delete(PointId(target)).expect("stress dead delete"),
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
            let batched = r == BATCHED_READER;
            let batch = if batched { READER_BATCH } else { 1 };
            let batches = mutators * ops_per_mutator / READERS / batch;
            let mut rng = SplitMix64::new(seed ^ (round << 32) ^ (0xBEAD + ((r as u64) << 16)));
            scope.spawn(move || {
                for i in 0..batches {
                    let requests: Vec<(Vec<f64>, usize)> = (0..batch)
                        .map(|_| (random_row(&mut rng), 1 + rng.next_below(7) as usize))
                        .collect();
                    if i % 5 == 0 {
                        // Sampled: hold the ledger closed so the version
                        // read and the queries see the same state.
                        let guard = ledger.lock().unwrap();
                        let version = guard.log.len();
                        let answers = answer(index, &requests, batched);
                        drop(guard);
                        samples.lock().unwrap().extend(
                            requests
                                .into_iter()
                                .zip(answers)
                                .map(|((q, k), ids)| (version, q, k, ids)),
                        );
                    } else {
                        // Unsampled: no harness lock — these race the
                        // mutators and the compactor's epoch swaps.
                        answer(index, &requests, batched);
                    }
                }
            });
        }
        // Explicit request-and-wait folds interleaved with the writes.
        {
            let index = &index;
            scope.spawn(move || {
                for _ in 0..6 {
                    index.compact().expect("stress compact");
                    std::thread::yield_now();
                }
            });
        }
    });

    let compactions = index.compactions();
    assert!(compactions >= 1, "the stress schedule must fold at least once");

    // Serial replay on a fresh single-threaded index: every sample must
    // come back id-for-id.
    let replay_spec = spec.with_background_compaction(false);
    let replay = Index::build(&replay_spec, &data).expect("replay build");
    let ledger = ledger.into_inner().unwrap();
    let mut samples = samples.into_inner().unwrap();
    samples.sort_by_key(|a| a.0);
    let mut applied = 0usize;
    for (version, query, k, answer) in &samples {
        while applied < *version {
            match &ledger.log[applied] {
                Applied::Insert { id, row } => {
                    assert_eq!(
                        replay.insert(row).expect("replay insert").0,
                        *id,
                        "replay id issue order"
                    );
                }
                Applied::Delete { id } => {
                    assert!(replay.delete(PointId(*id)).expect("replay delete"), "delete({id})");
                }
            }
            applied += 1;
        }
        let want: Vec<u32> = replay
            .query(&QueryRequest::new(query, *k))
            .expect("replay query")
            .neighbors
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(
            answer, &want,
            "round {round}: sample at version {version} diverged from the serial replay"
        );
    }
    println!(
        "round {round}: ok — {} mutations, {} samples, {} live, {compactions} compactions",
        ledger.log.len(),
        samples.len(),
        ledger.live.len(),
    );
}

fn main() {
    let seed = env_u64("BREPARTITION_STRESS_SEED", 0xD0C_5EED);
    let rounds = env_u64("BREPARTITION_STRESS_ROUNDS", 2);
    let mutators = env_u64("BREPARTITION_STRESS_THREADS", 4) as usize;
    let ops = env_u64("BREPARTITION_STRESS_OPS", 250) as usize;
    println!(
        "stress: seed={seed} rounds={rounds} mutators={mutators} ops/mutator={ops} \
         readers={READERS}"
    );
    let start = Instant::now();
    for round in 0..rounds {
        stress_round(round, seed, mutators, ops);
    }
    println!("stress: all rounds clean in {:.2?}", start.elapsed());
}

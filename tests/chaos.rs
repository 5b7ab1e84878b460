//! Chaos suite: the sharded serving tier under seeded fault schedules.
//!
//! Every scenario drives a [`ShardedIndex`] through [`ShardedIndex::run_with_policy`] with per-shard
//! [`FaultPlan`]s armed — transient failures, permanent shard death,
//! latency spikes, injected panics — and checks the recovery contract
//! against a brute-force oracle:
//!
//! * retries recover **exact** results when faults are transient (the
//!   schedule is attempt-gated, so a retried query deterministically
//!   succeeds);
//! * permanent death degrades explicitly — the batch fails fast, or under
//!   `allow_partial` answers over the surviving slices and flags the
//!   unreached id-space fraction — never silently incomplete;
//! * the breaker opens exactly once per dead shard (a failed half-open
//!   probe re-opens without double-counting);
//! * the whole run replays **bit-identically** under the same seed.
//!
//! Worker budgets equal the shard count throughout, so each shard's engine
//! runs one worker and the fault schedule's operation order is
//! deterministic. The base seed is overridable via
//! `BREPARTITION_CHAOS_SEED` (CI runs two seeds).

use brepartition::prelude::*;

const DIM: usize = 8;
const K: usize = 5;

/// One query's merged answer, best first.
type NeighborList = Vec<(PointId, f64)>;

fn seed_from_env() -> u64 {
    match std::env::var("BREPARTITION_CHAOS_SEED") {
        Err(_) => 0xC4A05,
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("BREPARTITION_CHAOS_SEED must be a u64, got {raw:?}")),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Strictly positive rows keep every divergence in domain; full-precision
/// mantissas keep distances tie-free, so neighbor order is unambiguous.
fn rows(n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..DIM)
                .map(|j| {
                    let z = splitmix64(salt ^ ((i as u64) << 16) ^ j as u64);
                    0.2 + (z >> 11) as f64 / (1u64 << 53) as f64 * 8.0
                })
                .collect()
        })
        .collect()
}

fn base_spec(method: Method, kind: DivergenceKind, seed: u64) -> IndexSpec {
    IndexSpec::new(method, kind)
        .with_partitions(2)
        .with_leaf_capacity(8)
        .with_page_size(1024)
        .with_sample_size(64)
        .with_seed(seed)
}

/// Brute-force exact kNN over `data` restricted to ids satisfying `keep`.
fn brute_force(
    data: &[Vec<f64>],
    kind: DivergenceKind,
    query: &[f64],
    k: usize,
    keep: impl Fn(u32) -> bool,
) -> Vec<(PointId, f64)> {
    let mut scored: Vec<(PointId, f64)> = data
        .iter()
        .enumerate()
        .filter(|(i, _)| keep(*i as u32))
        .map(|(i, row)| (PointId(i as u32), kind.divergence(row, query)))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Two *index* runs must agree bit for bit (replay determinism).
#[track_caller]
fn assert_bit_identical(ctx: &str, got: &[(PointId, f64)], want: &[(PointId, f64)]) {
    assert_eq!(got.len(), want.len(), "{ctx}: neighbor count");
    for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.0, w.0, "{ctx}: id at rank {rank}");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{ctx}: distance bits at rank {rank}");
    }
}

/// An index answer vs the brute-force oracle: ids exact, distances within
/// relative tolerance (the index scores with its own columnar kernels, so
/// the last bits may differ from a naive scan).
#[track_caller]
fn assert_matches_oracle(ctx: &str, got: &[(PointId, f64)], want: &[(PointId, f64)]) {
    let got_ids: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
    let want_ids: Vec<u32> = want.iter().map(|(id, _)| id.0).collect();
    assert_eq!(got_ids, want_ids, "{ctx}: neighbor ids diverged from brute force");
    for (rank, ((_, gd), (_, wd))) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (gd - wd).abs() <= 1e-10 * (1.0 + wd.abs()),
            "{ctx}: rank {rank} distance {gd} vs brute-force {wd}"
        );
    }
}

/// Suppress the panic hook's stderr spew for *injected* panics only; real
/// panics (test failures included) keep the default report. Installed once
/// per test binary, so concurrently-running tests never race a hook swap.
fn quiet_injected_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected fault") {
                default(info);
            }
        }));
    });
}

/// A retry policy generous enough to drain any transient schedule in these
/// tests, with no real sleeping (backoff zeroed) and a breaker that stays
/// out of the way unless a scenario tightens it.
fn generous_policy(seed: u64) -> FanoutPolicy {
    FanoutPolicy::default()
        .with_max_retries(24)
        .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO)
        .with_breaker(30, 2)
        .with_seed(seed)
}

/// With no chaos armed, the fault-tolerant path is the plain path: same
/// neighbors, bit for bit, and a `Full` outcome.
#[test]
fn no_faults_means_run_with_policy_equals_run_with_budget() {
    let seed = seed_from_env();
    let data_rows = rows(60, seed);
    let data = DenseDataset::from_rows(&data_rows).unwrap();
    let queries = rows(12, seed ^ 77);
    let request = Request::uniform(&queries, K);
    let spec =
        ShardSpec::capacity(base_spec(Method::BBTree, DivergenceKind::ItakuraSaito, seed), 3);
    let sharded = ShardedIndex::build(&spec, &data).unwrap();
    let plain = sharded.run_with_budget(&request, 3).unwrap();
    let resilient = sharded.run_with_policy(&request, 3, &generous_policy(seed)).unwrap();
    assert!(resilient.availability.is_full());
    assert!(resilient.shard_failures.iter().all(Option::is_none));
    for (qi, (a, b)) in plain.outcomes.iter().zip(resilient.outcomes.iter()).enumerate() {
        assert_bit_identical(&format!("query {qi}"), &b.neighbors, &a.neighbors);
    }
    assert_eq!(sharded.health().retries(), 0);
    assert_eq!(sharded.health().breaker_opens(), 0);
    assert_eq!(sharded.degraded_queries(), 0);
}

/// Transient faults (plus injected panics and latency spikes) on every
/// shard: retries drain the schedule and the batch comes back `Full` and
/// bit-identical to the brute-force oracle. Reruns under the same seed
/// replay the exact same fault counts.
#[test]
fn transient_faults_and_panics_recover_to_exact_results() {
    quiet_injected_panics();
    let seed = seed_from_env();
    let data_rows = rows(60, seed ^ 0xA);
    let data = DenseDataset::from_rows(&data_rows).unwrap();
    let queries = rows(16, seed ^ 0xB);
    let kind = DivergenceKind::SquaredEuclidean;
    let request = Request::uniform(&queries, K);
    let spec = ShardSpec::capacity(base_spec(Method::BBTree, kind, seed), 3);

    let run = |label: &str| -> (Vec<NeighborList>, u64, u64, u64) {
        let mut sharded = ShardedIndex::build(&spec, &data).unwrap();
        sharded
            .arm_chaos(vec![
                // Shard 0: transient errors on ~half the queries.
                Some(FaultPlan::with_seed(seed).with_transient_rate(0.5)),
                // Shard 1: injected panics — contained per query, retried.
                Some(FaultPlan::with_seed(seed ^ 1).with_panic_rate(0.3)),
                // Shard 2: latency spikes only (never an error).
                Some(
                    FaultPlan::with_seed(seed ^ 2)
                        .with_latency(0.5, std::time::Duration::from_micros(200)),
                ),
            ])
            .unwrap();
        let batch = sharded
            .run_with_policy(&request, 3, &generous_policy(seed))
            .unwrap_or_else(|e| panic!("{label}: transient chaos must recover, got {e}"));
        assert!(batch.availability.is_full(), "{label}");
        let transients = sharded.chaos_state(0).unwrap().transients();
        let panics = sharded.chaos_state(1).unwrap().panics();
        let spikes = sharded.chaos_state(2).unwrap().spikes();
        assert!(transients > 0, "{label}: a 50% rate over 16 queries must inject something");
        assert!(panics > 0, "{label}: a 30% panic rate over 16 queries must inject something");
        assert!(spikes > 0, "{label}: a 50% spike rate over 16 queries must inject something");
        assert!(sharded.health().retries() > 0, "{label}: recovery requires retries");
        assert_eq!(
            sharded.health().breaker_opens(),
            0,
            "{label}: recovered fan-outs must not trip the breaker"
        );
        let neighbors: Vec<NeighborList> =
            batch.outcomes.iter().map(|o| o.neighbors.clone()).collect();
        (neighbors, transients, panics, spikes)
    };

    let (first, t1, p1, s1) = run("first");
    for (qi, (query, got)) in queries.iter().zip(first.iter()).enumerate() {
        let want = brute_force(&data_rows, kind, query, K, |_| true);
        assert_matches_oracle(&format!("query {qi}"), got, &want);
    }
    let (second, t2, p2, s2) = run("second");
    assert_eq!(first, second, "the same seed must replay bit-identically");
    assert_eq!((t1, p1), (t2, p2), "fault counts must replay exactly");
    assert_eq!(s1, s2, "spike counts must replay exactly");
}

/// Permanent death of a capacity slice: without `allow_partial` the batch
/// fails fast with a typed `Unavailable`; with it, the answer covers the
/// surviving slices exactly and reports the dead slice's live-point share
/// as the unreached fraction.
#[test]
fn capacity_death_fails_fast_or_flags_the_unreached_fraction() {
    let seed = seed_from_env();
    let data_rows = rows(60, seed ^ 0x10);
    let data = DenseDataset::from_rows(&data_rows).unwrap();
    let queries = rows(10, seed ^ 0x11);
    let kind = DivergenceKind::ItakuraSaito;
    let spec = ShardSpec::capacity(base_spec(Method::BBTree, kind, seed), 3);
    let dead_shard = 1usize;

    let mut sharded = ShardedIndex::build(&spec, &data).unwrap();
    let mut plans: Vec<Option<FaultPlan>> = vec![None; 3];
    plans[dead_shard] = Some(FaultPlan::with_seed(seed).with_die_after(0));
    sharded.arm_chaos(plans).unwrap();
    let policy = generous_policy(seed).with_max_retries(2).with_breaker(2, 2);

    // Fail fast: disjoint slices must never come back silently incomplete.
    let strict = Request::uniform(&queries, K);
    match sharded.run_with_policy(&strict, 3, &policy) {
        Err(Error::Unavailable { shards_failed: 1, shards_answered: 2, reason }) => {
            assert!(reason.contains("permanently dead"), "{reason}");
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }

    // Opt-in partial: the merge equals brute force over the live slices.
    let partial = Request::uniform(&queries, K).allow_partial();
    let batch = sharded.run_with_policy(&partial, 3, &policy).unwrap();
    let dead_points = (0..data.len() as u32).filter(|&id| spec.route(PointId(id)) == dead_shard);
    let expected_fraction = dead_points.count() as f64 / data.len() as f64;
    match batch.availability {
        Outcome::Partial { shards_answered: 2, shards_failed: 1, unreached_fraction } => {
            assert!((unreached_fraction - expected_fraction).abs() < 1e-12);
        }
        other => panic!("expected Partial, got {other:?}"),
    }
    let failure = batch.shard_failures[dead_shard].as_ref().unwrap();
    assert!(!failure.skipped || failure.retries == 0, "first fan-outs really dispatch");
    for (qi, (query, outcome)) in queries.iter().zip(batch.outcomes.iter()).enumerate() {
        let want =
            brute_force(&data_rows, kind, query, K, |id| spec.route(PointId(id)) != dead_shard);
        assert_matches_oracle(&format!("partial query {qi}"), &outcome.neighbors, &want);
    }
    assert_eq!(sharded.degraded_queries(), queries.len() as u64);
}

/// The acceptance scenario: a fault schedule permanently kills 1 of 4
/// slices. A sweep of `allow_partial` batches completes with `Partial`
/// outcomes that equal brute force over the surviving slices, the breaker
/// opens exactly once (half-open probes re-fail without double-counting),
/// and the identical seed reproduces the sweep bit for bit.
#[test]
fn capacity_death_flags_partial_answers_and_opens_one_breaker() {
    let seed = seed_from_env();
    let data_rows = rows(72, seed ^ 0x20);
    let data = DenseDataset::from_rows(&data_rows).unwrap();
    let kind = DivergenceKind::SquaredEuclidean;
    let spec = ShardSpec::capacity(base_spec(Method::BBTree, kind, seed), 4);
    let dead_shard = 2usize;
    let alive = |id: u32| spec.route(PointId(id)) != dead_shard;
    let expected_fraction =
        (0..data.len() as u32).filter(|&id| !alive(id)).count() as f64 / data.len() as f64;
    const SWEEP: usize = 8;

    let sweep = |label: &str| -> Vec<Vec<NeighborList>> {
        let mut sharded = ShardedIndex::build(&spec, &data).unwrap();
        let mut plans: Vec<Option<FaultPlan>> = vec![None; 4];
        plans[dead_shard] = Some(FaultPlan::with_seed(seed).with_die_after(0));
        sharded.arm_chaos(plans).unwrap();
        // Tight breaker: open after 2 failed fan-outs, probe every 2.
        let policy = generous_policy(seed).with_max_retries(1).with_breaker(2, 2);
        let mut per_batch = Vec::new();
        for round in 0..SWEEP {
            let queries = rows(6, seed ^ (0x30 + round as u64));
            let request = Request::uniform(&queries, K).allow_partial();
            let batch = sharded
                .run_with_policy(&request, 4, &policy)
                .unwrap_or_else(|e| panic!("{label} round {round}: {e}"));
            match batch.availability {
                Outcome::Partial { shards_answered: 3, shards_failed: 1, unreached_fraction } => {
                    assert!(
                        (unreached_fraction - expected_fraction).abs() < 1e-12,
                        "{label} round {round}: unreached fraction {unreached_fraction}"
                    );
                }
                other => panic!("{label} round {round}: expected Partial, got {other:?}"),
            }
            for (qi, (query, outcome)) in queries.iter().zip(batch.outcomes.iter()).enumerate() {
                let want = brute_force(&data_rows, kind, query, K, alive);
                assert_matches_oracle(
                    &format!("{label} round {round} query {qi}"),
                    &outcome.neighbors,
                    &want,
                );
            }
            per_batch.push(batch.outcomes.iter().map(|o| o.neighbors.clone()).collect::<Vec<_>>());
        }
        assert_eq!(
            sharded.health().breaker_opens(),
            1,
            "{label}: the breaker must open exactly once across the sweep"
        );
        assert_eq!(sharded.health().state(dead_shard), BreakerState::Open, "{label}");
        // Rounds 0-1 fail and open the breaker; rounds 2-3 and 5-6 are
        // skipped on cooldown (no dispatch, no streak); rounds 4 and 7 are
        // half-open probes that fail and re-open. Four dispatched failures.
        assert_eq!(sharded.health().consecutive_failures(dead_shard), 4, "{label}");
        assert_eq!(sharded.health().consecutive_failures(0), 0, "{label}");
        assert_eq!(sharded.degraded_queries(), (SWEEP * 6) as u64, "{label}");
        per_batch
    };

    let first = sweep("first");
    let second = sweep("second");
    assert_eq!(first, second, "the same seed must reproduce the sweep bit for bit");
}

/// A soft deadline cuts retries short: a shard whose schedule needs more
/// retries than the deadline allows is recorded as a deadline-exceeded
/// failure, and under `allow_partial` the surviving slice still answers.
#[test]
fn soft_deadline_bounds_retries_and_degrades_instead_of_hanging() {
    let seed = seed_from_env();
    let data_rows = rows(48, seed ^ 0x40);
    let data = DenseDataset::from_rows(&data_rows).unwrap();
    let queries = rows(6, seed ^ 0x41);
    let spec =
        ShardSpec::capacity(base_spec(Method::BBTree, DivergenceKind::ItakuraSaito, seed), 2);

    let mut sharded = ShardedIndex::build(&spec, &data).unwrap();
    sharded
        .arm_chaos(vec![
            // Shard 0: every query always fails (depth far past the retry
            // budget) and every attempt burns real time, so the deadline
            // expires before the retry budget does.
            Some(
                FaultPlan::with_seed(seed)
                    .with_transient_rate(1.0)
                    .with_transient_depth(u64::MAX)
                    .with_latency(1.0, std::time::Duration::from_millis(2)),
            ),
            None,
        ])
        .unwrap();
    let policy = generous_policy(seed)
        .with_max_retries(1_000)
        .with_deadline(std::time::Duration::from_millis(1));
    let request = Request::uniform(&queries, K).allow_partial();
    let batch = sharded.run_with_policy(&request, 2, &policy).unwrap();
    match batch.availability {
        Outcome::Partial { shards_answered: 1, shards_failed: 1, .. } => {}
        other => panic!("expected Partial, got {other:?}"),
    }
    let failure = batch.shard_failures[0].as_ref().unwrap();
    assert!(failure.deadline_exceeded, "the deadline, not the retry budget, must stop the shard");
    assert!(failure.retries < 1_000, "the retry budget must not be exhausted");
}

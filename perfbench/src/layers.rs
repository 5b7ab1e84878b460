//! The traced run: per-layer numbers from spans the benchmark records
//! around its calls into each crate's public functions.
//!
//! Every workload's traced run exercises every layer on that workload's
//! data and index configuration, in five phases:
//!
//! 1. **set-up** — generate, build, save, reopen (`datagen`, `index`,
//!    `core`);
//! 2. **stage replay** — BP's exact search replayed stage by stage
//!    (transform → bound → per-subspace `subspace_candidates` → union →
//!    `read_points_block` with `distance_block` inside → top-k), checked
//!    bit for bit against `BrePartitionIndex::knn_with_pool`, beside
//!    untraced `knn_with_pool` and `Index::query` timings (`core`,
//!    `bbtree`, `pagestore`, `bregman`, `index`);
//! 3. **engine** — micro-batches through `Index::run_with` and a 2-shard
//!    capacity tier, each shard also timed on its own (`engine`);
//! 4. **serve** — an open-loop read/insert/delete run with background folds
//!    through a wrapper that times each service call (`index`, `loadgen`);
//! 5. **reference** — BBT, VAF and ABP on the same data (`bbtree`,
//!    `vafile`, `core`).
//!
//! The phase that matches the workload's own traffic is the one that
//! explains its end-to-end numbers; the others show what the same layers
//! cost on this data.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use brepartition::bbtree::SearchStats;
use brepartition::bregman::kernel::{fast_kernels_available, KernelScratch};
use brepartition::core::{QueryBounds, TransformedQuery};
use brepartition::prelude::*;
use loadgen::{
    delete_count, insert_count, operation_stream, oracle, run_open_loop_concurrent,
    ConcurrentServeTarget, OpKind, OpMix, RunnerConfig, Schedule,
};

use crate::report::{Outcome, Stamp};
use crate::scenario::{self, Workload, BATCH, K, SHARDS};
use crate::stats;
use crate::trace::{self, Tracer};

/// Every per-layer metric, with its unit.
pub const METRICS: &[(&str, &str)] = &[
    ("datagen.gen_s", "s"),
    ("index.build_s", "s"),
    ("core.build_s", "s"),
    ("core.build_forest_s", "s"),
    ("index.save_s", "s"),
    ("index.open_s", "s"),
    ("core.open_s", "s"),
    ("core.partitions", "count"),
    ("core.transform_ms", "ms"),
    ("core.bound_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.knn_ms", "ms"),
    ("core.subspace_candidates", "count"),
    ("core.union_candidates", "count"),
    ("core.overlap_factor", "ratio"),
    ("core.union_share", "ratio"),
    ("core.useful_ratio", "ratio"),
    ("bbtree.range_ms", "ms"),
    ("bbtree.nodes_visited", "count"),
    ("bbtree.leaves_visited", "count"),
    ("pagestore.read_ms", "ms"),
    ("pagestore.pages_read", "count"),
    ("pagestore.cache_hits", "count"),
    ("pagestore.hit_rate", "ratio"),
    ("pagestore.disk_bytes_per_data_byte", "ratio"),
    ("bregman.prepare_ms", "ms"),
    ("bregman.kernel_ms", "ms"),
    ("bregman.kernel_evals", "count"),
    ("bregman.ns_per_eval", "ns"),
    ("bregman.fast_kernels", "flag"),
    ("index.query_ms", "ms"),
    ("index.facade_overhead_ms", "ms"),
    ("trace.replay_match", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("engine.batch_ms", "ms"),
    ("engine.busy_ms", "ms"),
    ("engine.dispatch_overhead_share", "ratio"),
    ("engine.hit_rate", "ratio"),
    ("engine.shard_batch_ms", "ms"),
    ("engine.shard_slowest_ms", "ms"),
    ("engine.gather_ms", "ms"),
    ("index.snapshot_us", "us"),
    ("engine.search_us", "us"),
    ("index.insert_us", "us"),
    ("index.delete_us", "us"),
    ("index.delta_rows", "count"),
    ("index.tombstones", "count"),
    ("index.folds", "count"),
    ("index.fold_s", "s"),
    ("index.write_p99_ms", "ms"),
    ("index.serve_p50_ms", "ms"),
    ("index.serve_p99_ms", "ms"),
    ("index.serve_p99_in_fold_ms", "ms"),
    ("index.serve_p99_outside_fold_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.achieved_rate_share", "ratio"),
    ("loadgen.ops", "count"),
    ("bbtree.bbt_query_ms", "ms"),
    ("vafile.vaf_query_ms", "ms"),
    ("vafile.vaf_candidates", "count"),
    ("core.abp_query_ms", "ms"),
    ("core.abp_recall", "ratio"),
    ("index.bp_over_bbt", "ratio"),
];

/// The replay's `core` spans, whose self times make up `core.self_ms`.
const REPLAY_CORE_SPANS: &[&str] = &[
    "core.query",
    "core.transform",
    "core.bound",
    "core.filter",
    "core.refine",
    "core.block",
    "core.select",
];

struct Run {
    workload: Workload,
    tracer: Tracer,
    outcome: Outcome,
    request: u64,
}

impl Run {
    fn put(&mut self, name: &str, value: f64) {
        let unit = METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1;
        self.outcome.metric(name, unit, value);
    }

    /// Start a new request id for the spans that follow.
    fn next_request(&mut self) {
        self.request += 1;
        self.tracer.set_request(self.request);
    }

    /// Run `f` in a top-level span and return its result with the span's
    /// duration in seconds.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.next_request();
        let out = self.tracer.time(name, f);
        let span = self.tracer.spans().last().expect("span just recorded");
        (out, span.duration_ns() as f64 / 1e9)
    }

    fn fail(&mut self, what: String) {
        eprintln!("{}: {what}", self.workload.name());
        self.outcome.failed += 1;
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    spans_out: &Path,
) -> crate::Result<Outcome> {
    let mut stamp = Stamp::new(workload, seed);
    stamp.text("phases", "setup, replay, engine, serve, reference");
    let mut run =
        Run { workload, tracer: Tracer::default(), outcome: Outcome::new(0, 0, stamp), request: 0 };
    let kind = workload.kind();
    let spec = workload.spec();

    // 1. Set-up.
    let (data, gen_s) = run.timed("datagen.generate", || workload.generate());
    run.put("datagen.gen_s", gen_s);
    let (built, build_s) = run.timed("index.build", || Index::build(&spec, &data));
    let built = built?;
    run.put("index.build_s", build_s);
    let dir = scratch.join("index");
    let (saved, save_s) = run.timed("index.save", || built.save(&dir));
    saved?;
    run.put("index.save_s", save_s);
    let (opened, open_s) = run.timed("index.open", || Index::open(&dir));
    let opened = opened?;
    run.put("index.open_s", open_s);
    let (core_disk, core_open_s) = run.timed("core.open", || BrePartitionIndex::open(&dir));
    let core_disk = core_disk?;
    run.put("core.open_s", core_open_s);
    let report = core_disk.build_report();
    run.put("core.build_s", report.total_seconds);
    run.put("core.build_forest_s", report.forest_seconds);
    // The served index and the core index the replay drives: both from the
    // page files on a file-backed workload, both in memory otherwise (the
    // in-memory core index is rebuilt with the same deterministic spec).
    let (serving, core) = if workload.file_backed() {
        drop(built);
        (opened, core_disk)
    } else {
        drop((opened, core_disk));
        let (core, _) = run.timed("core.build", || {
            BrePartitionIndex::build(kind, &data, &spec.brepartition_config())
        });
        (built, core?)
    };
    run.outcome.stamp.num("partitions_m", core.partitions() as f64);

    // 2. Stage replay.
    let queries = scenario::query_pool(workload, &data, seed);
    let traced = if workload == Workload::FontsDisk { 64 } else { 256 };
    let truths: Vec<Vec<(u32, f64)>> =
        queries[..traced].iter().map(|q| scenario::brute_force(kind, &data, q, K)).collect();
    let index_query_ms =
        replay_phase(&mut run, &serving, &core, &data, &queries[..traced], &truths)?;

    // 3. Engine.
    let batches = if workload == Workload::FontsDisk { 24 } else { 192 };
    engine_phase(&mut run, &serving, &spec, &data, &queries, batches)?;

    // 4. Serve.
    serve_phase(&mut run, &spec, &data, &queries, seed, seconds, index_query_ms)?;

    // 5. Reference methods.
    reference_phase(
        &mut run,
        &spec,
        &data,
        &core,
        &queries[..traced],
        &truths,
        scratch,
        index_query_ms,
    )?;

    run.put("trace.spans", run.tracer.spans().len() as f64);
    for (layer, self_ns) in trace::self_by_layer(run.tracer.spans()) {
        run.outcome.stamp.num(&format!("self_s.{layer}"), self_ns as f64 / 1e9);
    }
    run.outcome.stamp.num("traced_queries", traced as f64);
    run.outcome.stamp.num("engine_batches", batches as f64);
    run.outcome.stamp.text("spans_file", &spans_out.display().to_string());
    if let Err(e) = run.tracer.write_jsonl(spans_out) {
        run.fail(format!("writing spans to {}: {e}", spans_out.display()));
    }
    Ok(run.outcome)
}

/// Per-query counts the replay adds up.
#[derive(Default)]
struct ReplayCounts {
    subspace_candidates: u64,
    union: u64,
    kernel_evals: u64,
    pages_read: u64,
    cache_hits: u64,
    search: SearchStats,
}

/// BP's exact search (`knn_with_scratch` without the `f32` screen), one
/// public call per stage, each in a span.
fn replay(
    core: &BrePartitionIndex,
    pool: &mut BufferPool,
    kernel: &mut KernelScratch,
    tracer: &mut Tracer,
    query: &[f64],
    k: usize,
    counts: &mut ReplayCounts,
) -> crate::Result<Vec<(PointId, f64)>> {
    let root = tracer.enter("core.query");
    let tq = tracer.time("core.transform", || {
        TransformedQuery::build(core.kind(), query, core.partitioning())
    });
    let bounds = tracer
        .time("core.bound", || QueryBounds::determine(core.transformed(), &tq, k))
        .ok_or("no bounds for an empty index or k = 0")?;

    let filter = tracer.enter("core.filter");
    let mut in_union = vec![false; core.len()];
    let mut union: Vec<u32> = Vec::new();
    let mut sub_query = Vec::new();
    for (s, &radius) in bounds.per_subspace.iter().enumerate() {
        core.partitioning().project_point_into(s, query, &mut sub_query);
        let candidates = tracer.time("bbtree.range", || {
            core.forest().subspace_candidates(s, &sub_query, radius, &mut counts.search)
        });
        counts.subspace_candidates += candidates.len() as u64;
        for pid in candidates {
            if !in_union[pid.index()] {
                in_union[pid.index()] = true;
                union.push(pid.0);
            }
        }
    }
    tracer.exit(filter);
    counts.union += union.len() as u64;

    let refine = tracer.enter("core.refine");
    let KernelScratch { prepared, lanes, distances, phis, .. } = kernel;
    tracer.time("bregman.prepare", || core.kind().prepare_query_into(prepared, query));
    let mut neighbors: Vec<(PointId, f64)> = Vec::with_capacity(union.len().min(k * 4));
    let io_before = pool.stats();
    let read = tracer.enter("pagestore.read");
    let mut evals = 0u64;
    let phi = core.phi();
    let result =
        pool.read_points_block(core.forest().store(), &union, lanes, &mut |members, block| {
            let block_span = tracer.enter("core.block");
            phis.clear();
            phis.extend(members.iter().map(|&pid| phi[pid as usize]));
            tracer.time("bregman.kernel", || prepared.distance_block(phis, block, distances));
            evals += members.len() as u64;
            neighbors
                .extend(members.iter().zip(distances.iter()).map(|(&pid, &d)| (PointId(pid), d)));
            tracer.exit(block_span);
        });
    tracer.exit(read);
    result?;
    let io = pool.stats().since(&io_before);
    counts.kernel_evals += evals;
    counts.pages_read += io.pages_read;
    counts.cache_hits += io.cache_hits;
    tracer.exit(refine);

    tracer.time("core.select", || {
        if neighbors.len() > k {
            neighbors.select_nth_unstable_by(k - 1, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            neighbors.truncate(k);
        }
        neighbors.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    });
    tracer.exit(root);
    Ok(neighbors)
}

fn same_bits(a: &[(PointId, f64)], b: &[(PointId, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Phase 2; returns the mean `Index::query` latency in milliseconds.
fn replay_phase(
    run: &mut Run,
    serving: &Index,
    core: &BrePartitionIndex,
    data: &DenseDataset,
    queries: &[Vec<f64>],
    truths: &[Vec<(u32, f64)>],
) -> crate::Result<f64> {
    let kind = run.workload.kind();
    let pool_pages = core.config().buffer_pool_pages;
    if core.config().f32_candidates {
        return Err("the stage replay does not model the f32 screening tier".into());
    }
    let mut kernel = KernelScratch::default();
    let mut counts = ReplayCounts::default();
    let (mut knn_ms, mut replay_ms, mut index_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut matched = 0usize;
    for (i, (query, truth)) in queries.iter().zip(truths).enumerate() {
        // The three calls take turns going first, so none of them is the
        // one that always meets this query's pages cold.
        let mut answers: [Vec<(PointId, f64)>; 3] = Default::default();
        for call in 0..3 {
            let which = (call + i) % 3;
            let t = Instant::now();
            answers[which] = match which {
                0 => core.knn_with_pool(&mut BufferPool::new(pool_pages), query, K)?.neighbors,
                1 => {
                    run.next_request();
                    let mut pool = BufferPool::new(pool_pages);
                    replay(core, &mut pool, &mut kernel, &mut run.tracer, query, K, &mut counts)?
                }
                _ => serving.query(&QueryRequest::new(query, K))?.neighbors,
            };
            [&mut knn_ms, &mut replay_ms, &mut index_ms][which].push(ms_since(t));
        }
        let [reference, replayed, served] = answers;
        if same_bits(&replayed, &reference) {
            matched += 1;
        } else {
            run.fail(format!("query {i}: the stage replay differs from knn_with_pool"));
        }
        if !same_bits(&served, &reference) {
            run.fail(format!("query {i}: Index::query differs from knn_with_pool"));
        }
        if !scenario::same_neighbors(kind, data, query, &reference, truth) {
            run.fail(format!("query {i}: BP differs from the brute-force scan"));
        }
        run.outcome.attempted += 1;
    }

    let q = queries.len() as f64;
    let totals = trace::totals_by_name(run.tracer.spans());
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64) / q / 1e6;
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64) / q / 1e6;
    let stages = ["core.transform", "core.bound", "core.filter", "core.refine", "core.select"];
    let stage_sum: f64 = stages.iter().map(|s| total_ms(s)).sum();
    for stage in stages {
        run.put(&format!("{stage}_ms"), total_ms(stage));
    }
    let core_self: f64 = REPLAY_CORE_SPANS.iter().map(|s| self_ms(s)).sum();
    run.put("core.self_ms", core_self);
    run.put("bbtree.range_ms", self_ms("bbtree.range"));
    run.put("pagestore.read_ms", self_ms("pagestore.read"));
    run.put("bregman.prepare_ms", self_ms("bregman.prepare"));
    run.put("bregman.kernel_ms", self_ms("bregman.kernel"));
    let kernel_ns = totals.get("bregman.kernel").map_or(0, |t| t.self_ns);
    run.put("bregman.ns_per_eval", kernel_ns as f64 / counts.kernel_evals.max(1) as f64);
    run.put("bregman.kernel_evals", counts.kernel_evals as f64 / q);
    run.put("bregman.fast_kernels", f64::from(u8::from(fast_kernels_available())));

    let union = counts.union.max(1) as f64;
    run.put("core.partitions", core.partitions() as f64);
    run.put("core.subspace_candidates", counts.subspace_candidates as f64 / q);
    run.put("core.union_candidates", counts.union as f64 / q);
    run.put("core.overlap_factor", counts.subspace_candidates as f64 / union);
    run.put("core.union_share", counts.union as f64 / (q * core.len() as f64));
    run.put("core.useful_ratio", (K as f64 * q) / union);
    run.put("bbtree.nodes_visited", counts.search.nodes_visited as f64 / q);
    run.put("bbtree.leaves_visited", counts.search.leaves_visited as f64 / q);
    run.put("pagestore.pages_read", counts.pages_read as f64 / q);
    run.put("pagestore.cache_hits", counts.cache_hits as f64 / q);
    let logical = (counts.pages_read + counts.cache_hits).max(1) as f64;
    run.put("pagestore.hit_rate", counts.cache_hits as f64 / logical);
    let page_bytes = core.config().page_size_bytes as f64;
    run.put(
        "pagestore.disk_bytes_per_data_byte",
        counts.pages_read as f64 * page_bytes / (union * core.dim() as f64 * 8.0),
    );

    let knn = stats::mean(&knn_ms);
    let index_query = stats::mean(&index_ms);
    let replayed = stats::mean(&replay_ms);
    run.put("core.knn_ms", knn);
    run.put("index.query_ms", index_query);
    run.put("index.facade_overhead_ms", index_query - stage_sum);
    run.put("trace.replay_match", matched as f64 / q);
    run.put("trace.overhead_ms", replayed - knn);
    run.put("trace.overhead_share", (replayed - knn) / knn);
    Ok(index_query)
}

/// Phase 3: micro-batches through `Index::run_with`, then through a
/// 2-shard capacity tier.
fn engine_phase(
    run: &mut Run,
    serving: &Index,
    spec: &IndexSpec,
    data: &DenseDataset,
    queries: &[Vec<f64>],
    batches: usize,
) -> crate::Result<()> {
    let threads = scenario::worker_threads();
    // Warm scratch needs a pool to keep warm; an unbuffered index is
    // served cold, as the engine requires.
    let mut config = EngineConfig::default().with_threads(threads);
    if spec.storage.buffer_pool_pages > 0 {
        config = config.with_warm_scratch();
    }
    let rows_of = |b: usize| &queries[(b % (queries.len() / BATCH)) * BATCH..][..BATCH];
    let (mut wall, mut busy) = (Vec::new(), Vec::new());
    let mut io = IoStats::default();
    let mut answers: Vec<Vec<Vec<PointId>>> = Vec::new();
    for b in 0..batches {
        let (result, seconds) = run
            .timed("engine.batch", || serving.run_with(&Request::uniform(rows_of(b), K), config));
        let result = result?;
        wall.push(seconds * 1e3);
        busy.push(result.outcomes.iter().map(|o| o.latency_seconds).sum::<f64>() * 1e3);
        for outcome in &result.outcomes {
            io.accumulate(&outcome.io);
        }
        answers.push(
            result.outcomes.iter().map(|o| o.neighbors.iter().map(|n| n.0).collect()).collect(),
        );
        run.outcome.attempted += BATCH as u64;
    }
    let (wall_sum, busy_sum): (f64, f64) = (wall.iter().sum(), busy.iter().sum());
    run.put("engine.batch_ms", stats::mean(&wall));
    run.put("engine.busy_ms", stats::mean(&busy));
    run.put("engine.dispatch_overhead_share", 1.0 - busy_sum / (threads as f64 * wall_sum));
    run.put("engine.hit_rate", io.hit_ratio());

    let shard_spec = ShardSpec::capacity(spec.with_background_compaction(false), SHARDS);
    let (sharded, _) = run.timed("index.shard_build", || ShardedIndex::build(&shard_spec, data));
    let sharded = sharded?;
    let (mut fanned, mut slowest) = (Vec::new(), Vec::new());
    for (b, expected) in answers.iter().enumerate() {
        let request = Request::uniform(rows_of(b), K);
        let (result, seconds) =
            run.timed("engine.shard_batch", || sharded.run_with_budget(&request, threads));
        let result = result?;
        fanned.push(seconds * 1e3);
        let got: Vec<Vec<PointId>> =
            result.outcomes.iter().map(|o| o.neighbors.iter().map(|n| n.0).collect()).collect();
        if &got != expected {
            run.fail(format!("batch {b}: the 2-shard tier differs from the single index"));
        }
        let mut worst: f64 = 0.0;
        for s in 0..SHARDS {
            let single = EngineConfig::default().with_threads(1);
            let (result, seconds) =
                run.timed("engine.shard_run", || sharded.shard(s).run_with(&request, single));
            result?;
            worst = worst.max(seconds * 1e3);
        }
        slowest.push(worst);
        run.outcome.attempted += BATCH as u64;
    }
    let (fanned_ms, slowest_ms) = (stats::mean(&fanned), stats::mean(&slowest));
    run.put("engine.shard_batch_ms", fanned_ms);
    run.put("engine.shard_slowest_ms", slowest_ms);
    run.put("engine.gather_ms", fanned_ms - slowest_ms);
    Ok(())
}

/// Serve-phase operation mix, query : insert : delete.
const SERVE_MIX: (u32, u32, u32) = (80, 10, 10);
/// Every `SAMPLE_EVERY`-th serve-phase operation, if a query, is scored
/// against `loadgen`'s version-pinned oracle.
const SAMPLE_EVERY: usize = 25;

/// The open-loop inputs of one run: arrivals, operations and insert rows.
struct OpenLoopPlan {
    schedule: Schedule,
    ops: Vec<loadgen::Operation>,
    inserts: Vec<Vec<f64>>,
    config: RunnerConfig,
}

impl OpenLoopPlan {
    fn new(workload: Workload, data: &DenseDataset, seed: u64, rate: f64, seconds: f64) -> Self {
        let warmup = (rate / 2.0) as usize;
        let count = (rate * seconds) as usize + warmup;
        let (query, insert, delete) = SERVE_MIX;
        let ops =
            operation_stream(seed, OpMix::new(query, insert, delete), count, scenario::QUERY_POOL);
        let inserts = scenario::insert_rows(workload, data, insert_count(&ops), seed);
        let config = RunnerConfig {
            k: K,
            dispatch_threads: 1,
            warmup_ops: warmup,
            sample_every: SAMPLE_EVERY,
            initial_live: (0..data.len() as u64).collect(),
        };
        OpenLoopPlan {
            schedule: Schedule::poisson(seed ^ 0xA11, rate, count),
            ops,
            inserts,
            config,
        }
    }

    /// Sampled answers that differ from the version-pinned oracle's exact
    /// truth.
    fn oracle_failures(
        &self,
        workload: Workload,
        data: &DenseDataset,
        queries: &[Vec<f64>],
        outcome: &loadgen::RunOutcome,
    ) -> u64 {
        let kind = workload.kind();
        let depth = K + delete_count(&self.ops);
        let dist = |query: &[f64], row: &[f64]| kind.divergence(row, query);
        let mut failed = 0;
        for sample in &outcome.samples {
            let query = &queries[sample.query_index];
            let base = oracle::BaseNeighbors {
                neighbors: scenario::brute_force(kind, data, query, depth)
                    .into_iter()
                    .map(|(id, d)| (u64::from(id), d))
                    .collect(),
            };
            let truth = oracle::truth_at_version(
                sample,
                &base,
                query,
                &self.inserts,
                &outcome.log,
                &dist,
                K,
            );
            if oracle::sample_recall(sample, &truth) < 1.0 || sample.answer.len() != truth.len() {
                failed += 1;
            }
        }
        failed
    }
}

/// An [`Index`] behind the open-loop harness, timing each service call.
/// Calls arrive in operation order (one dispatcher), so the `i`-th service
/// time belongs to operation `i`.
struct TracedTarget<'a> {
    index: &'a Index,
    inner: Mutex<TargetState<'a>>,
    errors: AtomicU64,
}

struct TargetState<'a> {
    tracer: &'a mut Tracer,
    request: u64,
    /// `(start_ns, end_ns)` of each call, in call order, tracer time.
    service: Vec<(u64, u64)>,
    /// `(delta rows, tombstones)` sampled every 16th call.
    debt: Vec<(usize, usize)>,
    /// `(end_ns, duration_ns)` of each fold seen to complete.
    folds: Vec<(u64, u64)>,
    last_compaction: (u64, u64),
}

impl TracedTarget<'_> {
    fn call<R>(
        &self,
        name: &'static str,
        fallback: R,
        f: impl FnOnce(&mut Tracer) -> crate::Result<R>,
    ) -> R {
        let mut state = self.inner.lock().expect("traced target lock");
        state.request += 1;
        let request = state.request;
        state.tracer.set_request(request);
        let span = state.tracer.enter(name);
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut *state.tracer)));
        state.tracer.exit(span);
        let (start, end) = {
            let s = &state.tracer.spans()[span];
            (s.start_ns, s.end_ns)
        };
        state.service.push((start, end));
        if state.service.len().is_multiple_of(16) {
            let delta = self.index.delta();
            state.debt.push((delta.delta_rows(), delta.tombstone_count()));
        }
        let seen = (self.index.compactions(), self.index.compaction_nanos());
        if seen.0 > state.last_compaction.0 {
            let duration = seen.1 - state.last_compaction.1;
            state.folds.push((end, duration));
            state.last_compaction = seen;
        }
        match result {
            Ok(Ok(value)) => value,
            _ => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                fallback
            }
        }
    }
}

impl ConcurrentServeTarget for TracedTarget<'_> {
    fn query(&self, query: &[f64], k: usize) -> Vec<u64> {
        self.call("index.query", Vec::new(), |tracer| {
            let backend = tracer.time("index.snapshot", || self.index.backend());
            let mut scratch = backend.new_scratch();
            let answer = tracer.time("engine.search", || {
                backend.knn_with_options(&mut scratch, query, k, &QueryOptions::default())
            })?;
            Ok(answer.neighbors.iter().map(|(id, _)| u64::from(id.0)).collect())
        })
    }

    fn insert(&self, row: &[f64]) -> u64 {
        self.call("index.insert", u64::MAX, |_| Ok(u64::from(self.index.insert(row)?.0)))
    }

    fn delete(&self, id: u64) -> bool {
        let Ok(id) = u32::try_from(id) else { return false };
        self.call("index.delete", false, |_| Ok(self.index.delete(PointId(id))?))
    }
}

/// Phase 4: open-loop reads, inserts and deletes with background folds,
/// one dispatcher, for half the run at a fifth of the rate one dispatcher
/// sustains on the data, with a fold trigger that completes about three
/// folds. (At half of capacity, host stalls of a few milliseconds queue up
/// behind the single dispatcher, and the p99 of ten runs of unchanged code
/// ranged from 3 to 50 ms.)
fn serve_phase(
    run: &mut Run,
    spec: &IndexSpec,
    data: &DenseDataset,
    queries: &[Vec<f64>],
    seed: u64,
    seconds: f64,
    index_query_ms: f64,
) -> crate::Result<()> {
    let workload = run.workload;
    let rate = 200.0 / index_query_ms;
    let serve_s = seconds / 2.0;
    let inserts = 0.1 * rate * serve_s;
    let ratio = (inserts / 3.0).max(1.0) / data.len() as f64;
    let serve_spec = spec.with_background_compaction(true).with_compaction_ratios(ratio, ratio);
    let (index, _) = run.timed("index.build", || Index::build(&serve_spec, data));
    let index = index?;
    let plan = OpenLoopPlan::new(workload, data, seed, rate, serve_s);
    run.outcome.stamp.num("serve_rate_ops_per_s", rate);
    run.outcome.stamp.num("serve_ops", plan.ops.len() as f64);

    let last_compaction = (index.compactions(), index.compaction_nanos());
    let request = run.request;
    let target = TracedTarget {
        index: &index,
        inner: Mutex::new(TargetState {
            tracer: &mut run.tracer,
            request,
            service: Vec::new(),
            debt: Vec::new(),
            folds: Vec::new(),
            last_compaction,
        }),
        errors: AtomicU64::new(0),
    };
    let (target, outcome) = run_open_loop_concurrent(
        target,
        queries,
        &plan.inserts,
        &plan.schedule,
        &plan.ops,
        &plan.config,
    );
    let errors = target.errors.load(Ordering::Relaxed);
    let state = target.inner.into_inner().expect("traced target lock");
    run.request = state.request;
    let (service, debt, folds) = (state.service, state.debt, state.folds);

    run.outcome.attempted += plan.ops.len() as u64;
    run.outcome.failed += errors + plan.oracle_failures(workload, data, queries, &outcome);
    if service.len() != plan.ops.len() {
        run.fail(format!("{} service calls for {} operations", service.len(), plan.ops.len()));
    }

    let totals = trace::totals_by_name(run.tracer.spans());
    let mean_us = |name: &str| {
        totals.get(name).map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e3)
    };
    run.put("index.snapshot_us", mean_us("index.snapshot"));
    run.put("engine.search_us", mean_us("engine.search"));
    run.put("index.insert_us", mean_us("index.insert"));
    run.put("index.delete_us", mean_us("index.delete"));
    let rows: Vec<f64> = debt.iter().map(|d| d.0 as f64).collect();
    let tombstones: Vec<f64> = debt.iter().map(|d| d.1 as f64).collect();
    run.put("index.delta_rows", stats::mean(&rows));
    run.put("index.tombstones", stats::mean(&tombstones));
    let fold_count = index.compactions();
    run.put("index.folds", fold_count as f64);
    run.put("index.fold_s", index.compaction_nanos() as f64 / fold_count.max(1) as f64 / 1e9);

    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let writes = sorted(
        outcome
            .records
            .iter()
            .filter(|r| r.kind != OpKind::Query)
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect(),
    );
    run.put("index.write_p99_ms", stats::percentile_sorted(&writes, 0.99));
    // A query overlaps a fold when its service interval meets a fold's
    // `[end − duration, end]` window (end observed at the first call after
    // the fold landed).
    let in_fold = |op: usize| {
        service.get(op).is_some_and(|&(start, end)| {
            folds.iter().any(|&(fold_end, duration)| {
                start <= fold_end && end >= fold_end.saturating_sub(duration)
            })
        })
    };
    let (mut during, mut outside) = (Vec::new(), Vec::new());
    let mut lags = Vec::new();
    for r in &outcome.records {
        let latency = r.latency_ns as f64 / 1e6;
        if let Some(&(start, end)) = service.get(r.op_index) {
            lags.push(latency - (end - start) as f64 / 1e6);
        }
        if r.kind == OpKind::Query {
            if in_fold(r.op_index) {
                during.push(latency)
            } else {
                outside.push(latency)
            }
        }
    }
    let all = sorted(during.iter().chain(&outside).copied().collect());
    run.put("index.serve_p50_ms", stats::percentile_sorted(&all, 0.5));
    run.put("index.serve_p99_ms", stats::percentile_sorted(&all, 0.99));
    run.outcome.stamp.num("serve_queries_in_fold", during.len() as f64);
    run.outcome.stamp.num("serve_queries_outside_fold", outside.len() as f64);
    run.put("index.serve_p99_in_fold_ms", stats::percentile_sorted(&sorted(during), 0.99));
    run.put("index.serve_p99_outside_fold_ms", stats::percentile_sorted(&sorted(outside), 0.99));
    run.put("loadgen.lag_p99_ms", stats::percentile_sorted(&sorted(lags), 0.99));
    run.put("loadgen.achieved_rate_share", outcome.achieved_qps() / rate);
    run.put("loadgen.ops", outcome.records.len() as f64);
    Ok(())
}

/// Phase 5: BBT, VAF and ABP on the same data and storage settings.
#[allow(clippy::too_many_arguments)]
fn reference_phase(
    run: &mut Run,
    spec: &IndexSpec,
    data: &DenseDataset,
    core: &BrePartitionIndex,
    queries: &[Vec<f64>],
    truths: &[Vec<(u32, f64)>],
    scratch: &Path,
    index_query_ms: f64,
) -> crate::Result<()> {
    let kind = run.workload.kind();
    let mut means = Vec::new();
    for (method, span) in
        [(Method::BBTree, "bbtree.bbt_query"), (Method::VaFile, "vafile.vaf_query")]
    {
        let method_spec = IndexSpec::new(method, kind).with_storage(spec.storage);
        let (index, _) = run.timed("index.build", || Index::build(&method_spec, data));
        let mut index = index?;
        if run.workload.file_backed() {
            let dir = scratch.join(method.short_name());
            index.save(&dir)?;
            index = Index::open(&dir)?;
        }
        let (mut latency, mut candidates) = (Vec::new(), Vec::new());
        for (i, (query, truth)) in queries.iter().zip(truths).enumerate() {
            let (outcome, seconds) = run.timed(span, || index.query(&QueryRequest::new(query, K)));
            let outcome = outcome?;
            latency.push(seconds * 1e3);
            candidates.push(outcome.candidates as f64);
            if !scenario::same_neighbors(kind, data, query, &outcome.neighbors, truth) {
                run.fail(format!(
                    "query {i}: {} differs from the brute-force scan",
                    method.short_name()
                ));
            }
            run.outcome.attempted += 1;
        }
        means.push((stats::mean(&latency), stats::mean(&candidates)));
    }
    let [(bbt_ms, _), (vaf_ms, vaf_candidates)] = means[..] else {
        unreachable!("two reference methods")
    };
    run.put("bbtree.bbt_query_ms", bbt_ms);
    run.put("vafile.vaf_query_ms", vaf_ms);
    run.put("vafile.vaf_candidates", vaf_candidates);
    run.put("index.bp_over_bbt", index_query_ms / bbt_ms);

    let approx = IndexSpec::approximate(kind).approximate_config();
    let pool_pages = core.config().buffer_pool_pages;
    let (mut latency, mut recall) = (Vec::new(), Vec::new());
    for (query, truth) in queries.iter().zip(truths) {
        let (result, seconds) = run.timed("core.abp_query", || {
            core.knn_approximate_with_pool(&mut BufferPool::new(pool_pages), query, K, &approx)
        });
        let result = result?;
        latency.push(seconds * 1e3);
        let hits =
            result.neighbors.iter().filter(|(id, _)| truth.iter().any(|t| t.0 == id.0)).count();
        recall.push(hits as f64 / truth.len().max(1) as f64);
        run.outcome.attempted += 1;
    }
    run.put("core.abp_query_ms", stats::mean(&latency));
    run.put("core.abp_recall", stats::mean(&recall));
    Ok(())
}

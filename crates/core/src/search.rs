//! The BrePartition index: build (Algorithm 5) and exact kNN search
//! (Algorithm 6).

use bbtree::{BBTreeConfig, SearchStats};
use bregman::kernel::{KernelScratch, PreparedQuery};
use bregman::{DenseDataset, DivergenceKind, PointId};
use pagestore::{BufferPool, PageId, PageStore, PageStoreConfig, PageStoreError};
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::approximate::ApproximateConfig;
use crate::bbforest::BBForest;
use crate::bound::QueryBounds;
use crate::config::{BrePartitionConfig, PartitionStrategy};
use crate::error::{CoreError, Result};
use crate::partition::{equal::equal_contiguous, pccp::pccp, Partitioning};
use crate::stats::QueryStats;
use crate::transform::{TransformedDataset, TransformedQuery};

/// Result of one kNN query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The neighbours as `(id, divergence)` pairs, ordered by increasing
    /// divergence.
    pub neighbors: Vec<(PointId, f64)>,
    /// Rows scored, node tests and page reads.
    pub stats: QueryStats,
    /// The bounds the search ran on (see [`BrePartitionIndex::knn`]).
    ///
    /// * One subspace, exact search: Algorithm 4 does not run, and this is
    ///   the best-first loop's final threshold, `{ pivot_point: the kept
    ///   row with the k-th distance, per_subspace: [τ], total: τ }`. `τ` is
    ///   that distance widened by its rounding allowance; every node the
    ///   loop did not expand has a key above it.
    /// * Otherwise: Algorithm 4's per-subspace bounds (shrunken by the
    ///   coefficient for the approximate extension). These are not the
    ///   seeded radii the filter searched with, which scale them down by
    ///   `min(1, r′ / T)`.
    pub bounds: QueryBounds,
    /// The shrink coefficient applied to the Cauchy term (`None` for the
    /// exact search, `Some(c)` for the approximate extension).
    pub coefficient: Option<f64>,
}

/// Summary of the precomputation phase (Algorithm 5), reported for the
/// index-construction experiment (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildReport {
    /// Number of partitions actually used.
    pub partitions: usize,
    /// Wall-clock seconds for the whole precomputation.
    pub total_seconds: f64,
    /// Seconds spent inside BB-forest construction (clustering + layout).
    pub forest_seconds: f64,
    /// Pages written while laying the data out on the simulated disk.
    pub pages_written: u64,
}

/// The disk-resident BrePartition index.
///
/// The page store inside the BB-forest sits behind an `Arc`, so cloning the
/// index (or sharing it via `Arc<BrePartitionIndex>`, as the query engine
/// does) never duplicates the disk image. The index supports a
/// build-once/open-many lifecycle: [`BrePartitionIndex::save`] persists
/// everything the search needs, [`BrePartitionIndex::open`] restores it with
/// data pages served from the page file (see [`crate::persist`]).
#[derive(Debug, Clone)]
pub struct BrePartitionIndex {
    kind: DivergenceKind,
    config: BrePartitionConfig,
    partitioning: Partitioning,
    transformed: TransformedDataset,
    forest: BBForest,
    /// Per-dimension means of the data (used by the approximate extension to
    /// model the distribution of the Cauchy-relaxed term).
    dim_means: Vec<f64>,
    /// Per-dimension variances of the data.
    dim_vars: Vec<f64>,
    /// Per-point full-space generator sums `Φ(x) = Σ_j φ(x_j)`, indexed by
    /// point id — the data side of the prepared-query refine kernel.
    /// Summed over each row in dimension order (`phi_from_rows`); with one
    /// subspace over the dimensions in order that is the persisted `α_x`
    /// column itself, so the build and the open copy it. Not persisted.
    phi: Vec<f64>,
    /// Row-major `f32` copy of the data (`n × dim`), present only when
    /// [`BrePartitionConfig::f32_candidates`] is set. Candidate screening
    /// reads this instead of data pages; survivors are re-ranked from the
    /// full-resolution pages. Behind an `Arc` so cloning the index stays
    /// cheap. Derived from the row bits (not persisted), so it is identical
    /// whether the index was just built or reopened from disk.
    f32_rows: Option<std::sync::Arc<Vec<f32>>>,
    build: BuildReport,
}

impl BrePartitionIndex {
    /// Algorithm 5 (`BrePartitionConstruct`): partition the dimensions into
    /// the configured `M` subspaces, transform every point, and build the
    /// BB-forest.
    pub fn build(
        kind: DivergenceKind,
        dataset: &DenseDataset,
        config: &BrePartitionConfig,
    ) -> Result<BrePartitionIndex> {
        if dataset.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        if !kind.supports_partitioning() {
            return Err(CoreError::UnsupportedDivergence {
                divergence: kind.short_name().to_string(),
            });
        }
        let started = Instant::now();
        let d = dataset.dim();

        // 1. Number of partitions.
        let m = config.partitions;
        if m == 0 || m > d {
            return Err(CoreError::InvalidPartitions { requested: m, dim: d });
        }

        // 2. Dimensionality partitioning.
        let partitioning = match config.strategy {
            PartitionStrategy::Pccp => pccp(dataset, m, config.sample_size, config.seed)?,
            PartitionStrategy::EqualContiguous => equal_contiguous(d, m)?,
        };

        // 3. Transform every point into per-subspace tuples.
        let transformed = TransformedDataset::build(kind, dataset, &partitioning);

        // 4. Build the BB-forest and lay the data out on the simulated disk.
        let forest = BBForest::build(
            kind,
            dataset,
            &partitioning,
            BBTreeConfig {
                leaf_capacity: config.leaf_capacity,
                max_kmeans_iters: 16,
                seed: config.seed,
            },
            PageStoreConfig::with_page_size(config.page_size_bytes),
        )?;

        // Per-dimension moments for the approximate extension.
        let (dim_means, dim_vars) = column_moments(dataset);

        let build = BuildReport {
            partitions: m,
            total_seconds: started.elapsed().as_secs_f64(),
            forest_seconds: forest.build_seconds(),
            pages_written: forest.store().build_writes(),
        };
        let phi = if alpha_is_phi(&partitioning) {
            transformed.subspace_columns(0).0.to_vec()
        } else {
            phi_from_rows(kind, dataset)
        };
        let f32_rows = config.f32_candidates.then(|| {
            let mut rows = Vec::with_capacity(dataset.len() * dataset.dim());
            for i in 0..dataset.len() {
                rows.extend(dataset.row(i).iter().map(|&v| v as f32));
            }
            std::sync::Arc::new(rows)
        });
        Ok(BrePartitionIndex {
            kind,
            config: *config,
            partitioning,
            transformed,
            forest,
            dim_means,
            dim_vars,
            phi,
            f32_rows,
            build,
        })
    }

    /// Reassemble an index from restored parts (the open-from-disk path).
    ///
    /// One pass over the store's rows derives the forest's node boxes, the
    /// Φ column (unless the `α_x` column already is it, see
    /// [`alpha_is_phi`]) and the f32 screening copy; none of them is
    /// persisted. The store holds the exact row bits, so the reopened index
    /// scores bit-identically, and `x as f32` reproduces the build-time
    /// values.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_restored(
        kind: DivergenceKind,
        config: BrePartitionConfig,
        partitioning: Partitioning,
        transformed: TransformedDataset,
        trees: Vec<bbtree::BBTree>,
        store: std::sync::Arc<PageStore>,
        dim_means: Vec<f64>,
        dim_vars: Vec<f64>,
        build: BuildReport,
    ) -> std::result::Result<BrePartitionIndex, PageStoreError> {
        let (n, dim) = (store.point_count(), store.dim());
        let tabulate_phi = !alpha_is_phi(&partitioning);
        let mut phi =
            if tabulate_phi { vec![0.0; n] } else { transformed.subspace_columns(0).0.to_vec() };
        let mut rows32 = if config.f32_candidates { vec![0.0f32; n * dim] } else { Vec::new() };
        let forest = BBForest::from_parts(
            kind,
            &partitioning,
            trees,
            store,
            build.forest_seconds,
            &mut |pid, coords| {
                if tabulate_phi {
                    phi[pid as usize] = kind.phi_sum(coords);
                }
                if config.f32_candidates {
                    let base = pid as usize * dim;
                    for (slot, &v) in rows32[base..base + dim].iter_mut().zip(coords) {
                        *slot = v as f32;
                    }
                }
            },
        )?;
        let f32_rows = config.f32_candidates.then(|| std::sync::Arc::new(rows32));
        Ok(BrePartitionIndex {
            kind,
            config,
            partitioning,
            transformed,
            forest,
            dim_means,
            dim_vars,
            phi,
            f32_rows,
            build,
        })
    }

    /// The divergence the index answers queries for.
    pub fn kind(&self) -> DivergenceKind {
        self.kind
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &BrePartitionConfig {
        &self.config
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.transformed.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.transformed.is_empty()
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.partitioning.dim()
    }

    /// The number of partitions in use (`M`).
    pub fn partitions(&self) -> usize {
        self.partitioning.len()
    }

    /// The dimensionality partitioning in use.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The BB-forest (exposed for experiments that inspect the index).
    pub fn forest(&self) -> &BBForest {
        &self.forest
    }

    /// The per-point transforms (exposed for the approximate extension and
    /// for experiments).
    pub fn transformed(&self) -> &TransformedDataset {
        &self.transformed
    }

    /// Per-dimension means of the indexed data.
    pub fn dimension_means(&self) -> &[f64] {
        &self.dim_means
    }

    /// Per-dimension variances of the indexed data.
    pub fn dimension_variances(&self) -> &[f64] {
        &self.dim_vars
    }

    /// Construction-cost report.
    pub fn build_report(&self) -> BuildReport {
        self.build
    }

    /// A fresh buffer pool sized according to the index configuration.
    pub fn new_buffer_pool(&self) -> BufferPool {
        BufferPool::new(self.config.buffer_pool_pages)
    }

    /// The per-point `Φ(x)` column (indexed by point id).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// Algorithm 6 (`BrePartitionSearch`) and its approximate extension
    /// (Section 8, the paper's **ABP**), reading pages through the caller's
    /// buffer pool and evaluating distances through the caller's
    /// [`KernelScratch`] (the batch-serving hot path reuses both across a
    /// batch).
    ///
    /// **One subspace, exact search: one best-first loop.**
    /// `BBForest::best_first` pops the tree's nodes in increasing order
    /// of their box bound, the closed-form minimum of the divergence over
    /// the node's bounding box less a rounding allowance
    /// ([`crate::node_box`]). A popped leaf's pages that are not yet scored
    /// are read and scored whole, one `distance_block` per page, so no page
    /// is read twice (the store is in the tree's leaf order, so a leaf is a
    /// few contiguous pages). A bounded max-heap keeps the best `min(k, n)`
    /// rows by `(distance, id)`. Once it is full, the threshold `τ` is its
    /// worst distance `r̂` widened by a `1e-12` rounding allowance on that
    /// row's kernel terms (`|Φ(x)| + |c_q| + |⟨φ′(q), x⟩|`). The loop stops
    /// when the smallest key on the frontier exceeds `τ`.
    ///
    /// **Otherwise: seed, bound, filter, refine.**
    ///
    /// 1. **Seed.** The same loop, stopped once it has scored `min(k, n)`
    ///    rows. Its `τ` is the seeded radius `r′`.
    /// 2. **Bound.** Transform the query, run Algorithm 4 for its `k`-th
    ///    smallest summed bound `T` and that bound's per-subspace split, and
    ///    scale the split to `search_radii[s] · min(1, r′ / T)`
    ///    ([`QueryBounds::search_radii`]).
    /// 3. **Filter.** Range-search each subspace `s` with its radius, testing
    ///    nodes by their box bound ([`BBForest::subspace_candidates`]).
    /// 4. **Refine.** Score the union members that are not on a seeded page
    ///    and select the top `k` over the seeded and refined rows.
    ///
    /// **Why it stays exact.** Every row off the scored pages lies in a leaf
    /// whose key, a lower bound on its members' divergences, exceeds `τ`,
    /// and `τ` is at least the `min(k, n)`-th smallest distance among the
    /// scored rows. So no such row can enter the answer, ties included. At
    /// more than one subspace, `r′` is a `min(k, n)`-th smallest distance
    /// over at least `min(k, n)` rows, so every true neighbour has
    /// `D ≤ r′`. The split radii sum to at least `r′`, so a point with
    /// `D_s > r_s` in every subspace has `D = Σ_s D_s > r′`: every point
    /// with `D ≤ r′` survives some subspace's range search.
    ///
    /// `approximate: None` is the exact search; `Some(config)` shrinks each
    /// radius's Cauchy term by Proposition 1's coefficient for
    /// `config.probability` and searches each subspace with the smaller of
    /// the shrunken and the seeded radius, so `p = 1` is the exact search.
    /// The seed scores at least `min(k, n)` rows, so an answer always has
    /// `min(k, n)` neighbours.
    ///
    /// A query of the wrong dimensionality is
    /// [`CoreError::QueryDimensionMismatch`]; one with a coordinate outside
    /// the divergence's domain (NaN, ±∞, ≤ 0 under Itakura–Saito, `|t| ≥ 700`
    /// under the exponential distance) is [`CoreError::Bregman`] wrapping
    /// [`BregmanError::OutOfDomain`](bregman::BregmanError::OutOfDomain). A
    /// page that fails its read (post-open bit rot, device error) is
    /// [`CoreError::Persist`], never a panic.
    pub fn knn(
        &self,
        pool: &mut BufferPool,
        kernel: &mut KernelScratch,
        query: &[f64],
        k: usize,
        approximate: Option<&ApproximateConfig>,
    ) -> Result<QueryResult> {
        if let Some(config) = approximate {
            if !(config.probability > 0.0 && config.probability <= 1.0) {
                return Err(CoreError::InvalidProbability(config.probability));
            }
        }
        self.validate_query(query)?;
        if self.is_empty() || k == 0 {
            return Ok(QueryResult {
                neighbors: Vec::new(),
                stats: QueryStats::default(),
                bounds: QueryBounds { pivot_point: 0, per_subspace: Vec::new(), total: 0.0 },
                coefficient: approximate.map(|_| 1.0),
            });
        }
        let io_before = pool.stats();
        let mut search_stats = SearchStats::new();
        self.kind.prepare_query_into(&mut kernel.prepared, query);
        let mut sub_query = Vec::new();
        self.partitioning.project_point_into(0, query, &mut sub_query);
        let exact_loop = self.partitions() == 1 && approximate.is_none();
        let scored =
            self.score_best_first(pool, kernel, &sub_query, k, exact_loop, &mut search_stats)?;
        if exact_loop {
            let pivot = scored.best.peek().map_or(0, |worst| worst.pid as usize);
            let total = scored.threshold;
            let stats = QueryStats {
                candidates: scored.rows,
                search: search_stats,
                io: pool.stats().since(&io_before),
            };
            let neighbors =
                scored.best.into_sorted_vec().into_iter().map(|e| (PointId(e.pid), e.dist));
            return Ok(QueryResult {
                neighbors: neighbors.collect(),
                stats,
                bounds: QueryBounds { pivot_point: pivot, per_subspace: vec![total], total },
                coefficient: None,
            });
        }
        let r_prime = scored.threshold;
        let seeded_rows = scored.rows;
        let mut neighbors: Vec<(PointId, f64)> =
            scored.best.into_iter().map(|e| (PointId(e.pid), e.dist)).collect();
        let transformed_query = TransformedQuery::build(self.kind, query, &self.partitioning);
        let exact = QueryBounds::determine(&self.transformed, &transformed_query, k)
            .expect("a non-empty index has bounds for k > 0");
        // Split r′ across the subspaces in Algorithm 4's proportions. When
        // r′ ≥ T the bounds already cover it and stay as they are.
        let total = exact.total;
        let scale = if r_prime < total { r_prime / total } else { 1.0 };
        let mut radii = exact.search_radii(&self.transformed, &transformed_query);
        for radius in &mut radii {
            *radius *= scale;
        }
        let (bounds, coefficient) = match approximate {
            None => (exact, None),
            Some(config) => {
                let (shrunk, c) =
                    self.shrunken_bounds(query, &transformed_query, &exact, config.probability);
                let shrunk_radii = shrunk.search_radii(&self.transformed, &transformed_query);
                for (radius, shrunk) in radii.iter_mut().zip(shrunk_radii) {
                    *radius = radius.min(shrunk);
                }
                (shrunk, Some(c))
            }
        };

        // Filter: union of the per-subspace range-query candidates that are
        // not on a seeded page.
        let store = self.forest.store();
        let mut seen = vec![false; self.transformed.len()];
        let mut union: Vec<u32> = Vec::new();
        for (s, &radius) in radii.iter().enumerate() {
            self.partitioning.project_point_into(s, query, &mut sub_query);
            let candidates =
                self.forest.subspace_candidates(s, &sub_query, radius, &mut search_stats);
            for pid in candidates {
                let seeded = store
                    .address_of(pid.0)
                    .is_some_and(|a| page_bit(&scored.pages, a.page.0 as usize));
                if !seeded && !std::mem::replace(&mut seen[pid.index()], true) {
                    union.push(pid.0);
                }
            }
        }
        let candidates = seeded_rows + union.len();

        // Refine: load the remaining candidates page by page and score them
        // through the prepared kernel (query-side transcendentals hoisted
        // once, data-side generator sums from the Φ column). Each page group
        // is decoded as one lane-major block and scored in a single batched
        // kernel call, so the dot products vectorize across a page's
        // candidates.
        let KernelScratch { prepared, coords, lanes, distances, phis, .. } = kernel;
        match self.f32_rows.as_deref() {
            Some(rows32) => screen_candidates_f32(
                prepared,
                rows32,
                &self.phi,
                &union,
                k,
                pool,
                store,
                coords,
                &mut search_stats,
                &mut neighbors,
            )?,
            None => pool.read_points_block(store, &union, lanes, &mut |members, block| {
                phis.clear();
                phis.extend(members.iter().map(|&pid| self.phi[pid as usize]));
                prepared.distance_block(phis, block, distances);
                search_stats.distance_computations += members.len() as u64;
                neighbors.extend(
                    members.iter().zip(distances.iter()).map(|(&pid, &d)| (PointId(pid), d)),
                );
            })?,
        }
        // Partial selection: only the k best need ordering, so candidates
        // beyond k cost O(c) instead of the O(c log c) of a full sort. The
        // (distance, id) total order makes the selection deterministic and
        // identical to sort-then-truncate.
        if neighbors.len() > k {
            neighbors.select_nth_unstable_by(k - 1, by_distance_then_id);
            neighbors.truncate(k);
        }
        neighbors.sort_by(by_distance_then_id);
        let stats =
            QueryStats { candidates, search: search_stats, io: pool.stats().since(&io_before) };
        Ok(QueryResult { neighbors, stats, bounds, coefficient })
    }

    /// Exact [`BrePartitionIndex::knn`] with fresh kernel buffers.
    pub fn knn_with_pool(
        &self,
        pool: &mut BufferPool,
        query: &[f64],
        k: usize,
    ) -> Result<QueryResult> {
        self.knn(pool, &mut KernelScratch::default(), query, k, None)
    }

    /// Approximate [`BrePartitionIndex::knn`] with fresh kernel buffers.
    pub fn knn_approximate_with_pool(
        &self,
        pool: &mut BufferPool,
        query: &[f64],
        k: usize,
        config: &ApproximateConfig,
    ) -> Result<QueryResult> {
        self.knn(pool, &mut KernelScratch::default(), query, k, Some(config))
    }

    /// The best-first loop of [`BrePartitionIndex::knn`] over the first
    /// tree, with `kernel.prepared` already prepared for the query and
    /// `sub_query` its projection onto the first subspace. Every page a
    /// popped leaf spans is read once and scored whole; the best
    /// `min(k, n)` rows are kept. With `to_threshold` the loop runs until
    /// its frontier's smallest key exceeds `τ`; without, it stops once it
    /// has scored `min(k, n)` rows (the seed).
    fn score_best_first(
        &self,
        pool: &mut BufferPool,
        kernel: &mut KernelScratch,
        sub_query: &[f64],
        k: usize,
        to_threshold: bool,
        search_stats: &mut SearchStats,
    ) -> Result<BestFirst> {
        let store = self.forest.store();
        let KernelScratch { prepared, lanes, distances, phis, .. } = kernel;
        let offset = prepared.offset();
        let wanted = k.min(self.len());
        let mut best: BinaryHeap<Ranked> = BinaryHeap::with_capacity(wanted + 1);
        let mut pages = vec![0u64; store.page_count().div_ceil(64)];
        let (mut rows, mut threshold) = (0usize, f64::INFINITY);
        self.forest.best_first(sub_query, search_stats, |span| {
            for page in span {
                let (word, bit) = (page as usize / 64, 1u64 << (page % 64));
                if pages[word] & bit != 0 {
                    continue;
                }
                pages[word] |= bit;
                let Some(page) = pool.try_fetch(store, PageId(page))? else { continue };
                page.decode_all_into(lanes);
                phis.clear();
                phis.extend(page.point_ids().iter().map(|&pid| self.phi[pid as usize]));
                prepared.distance_block(phis, lanes, distances);
                for (&pid, &dist) in page.point_ids().iter().zip(distances.iter()) {
                    let entry = Ranked { dist, pid };
                    if best.len() < wanted {
                        best.push(entry);
                    } else if let Some(mut worst) = best.peek_mut() {
                        if entry < *worst {
                            *worst = entry;
                        }
                    }
                }
                rows += page.len();
            }
            if best.len() == wanted {
                let worst = best.peek().expect("k > 0 and a non-empty index keep a row");
                let phi_x = self.phi[worst.pid as usize];
                let dot = phi_x + offset - worst.dist;
                threshold = worst.dist + 1e-12 * (phi_x.abs() + offset.abs() + dot.abs());
            }
            Ok((to_threshold || rows < wanted).then_some(threshold))
        })?;
        search_stats.distance_computations += rows as u64;
        Ok(BestFirst { best, threshold, pages, rows })
    }

    fn validate_query(&self, query: &[f64]) -> Result<()> {
        if query.len() != self.dim() {
            return Err(CoreError::QueryDimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        Ok(self.kind.check_domain(query)?)
    }
}

/// The `(distance, id)` total order every answer is ranked by.
fn by_distance_then_id(a: &(PointId, f64), b: &(PointId, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// What [`BrePartitionIndex::score_best_first`] leaves behind.
struct BestFirst {
    /// The best `min(k, n)` rows scored (fewer if a page was unreadable).
    best: BinaryHeap<Ranked>,
    /// `τ`: the worst kept distance widened by its rounding allowance, or
    /// +∞ while fewer than `min(k, n)` rows are kept.
    threshold: f64,
    /// One bit per page of the store: the pages the loop read.
    pages: Vec<u64>,
    /// Rows scored.
    rows: usize,
}

/// Whether bit `page` is set in a page bitset.
fn page_bit(pages: &[u64], page: usize) -> bool {
    pages.get(page / 64).is_some_and(|word| word & (1 << (page % 64)) != 0)
}

/// Max-heap entry for the bounded top-`k` heaps: the heap's greatest
/// element under the `(distance, id)` total order is the current worst of
/// the `k` best, i.e. the pruning threshold `τ`.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    dist: f64,
    pid: u32,
}

impl Ranked {
    fn key_cmp(&self, other: &Ranked) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist).then(self.pid.cmp(&other.pid))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key_cmp(other)
    }
}

/// The `f32` candidate-screening tier: estimate every candidate's
/// divergence from the in-memory `f32` row copy, then fetch pages and
/// re-rank at full resolution only for candidates whose estimate cannot be
/// ruled out. `neighbors` enters holding at most `k` exactly scored rows
/// (the seed's), which set the pruning threshold from the start, and leaves
/// holding the `k` best of those and the screened candidates. A candidate
/// page that fails its read aborts the screen with the read error.
///
/// **Safety of the skip rule.** The exact refine computes
/// `d = Φ(x) + c_q − Σ_i φ'(q_i)·x_i` in the block kernel's
/// (= `dot8`'s) summation order; survivors here are scored through
/// `distance_block` with a single-row block, so the screened path is
/// bit-identical to the unscreened one. The screening estimate
/// replaces `x_i` by `f64::from(x_i as f32)`. The error of the estimate is
/// bounded by the three terms below: `K_REL·Σ|φ'(q_i)·x̃_i|` covers the
/// `2⁻²⁴` relative rounding of every `f64 → f32` conversion plus both
/// sides' accumulation error (16× margin), `K_SUB·Σ|φ'(q_i)|` covers
/// conversions that land in the `f32` subnormal range (absolute, not
/// relative, error), and `K_FIN·|estimate|` covers the final
/// additions/subtractions. A candidate is skipped only when
/// `estimate − bound` *strictly* exceeds the current `k`-th best exact
/// distance, so a skipped candidate's exact distance is strictly worse
/// than `τ` and can never displace a kept neighbor, ties included.
#[allow(clippy::too_many_arguments)]
fn screen_candidates_f32(
    prepared: &PreparedQuery,
    rows32: &[f32],
    phi: &[f64],
    union: &[u32],
    k: usize,
    pool: &mut BufferPool,
    store: &PageStore,
    coords: &mut Vec<f64>,
    search_stats: &mut SearchStats,
    neighbors: &mut Vec<(PointId, f64)>,
) -> std::result::Result<(), PageStoreError> {
    if k == 0 {
        return Ok(());
    }
    let (grad, offset) = (prepared.gradient(), prepared.offset());
    const K_REL: f64 = 1.0 / (1u64 << 20) as f64; // ≥ 16 × 2⁻²⁴
    const K_SUB: f64 = 1.0 / (1u64 << 62) as f64 / (1u64 << 38) as f64; // 2⁻¹⁰⁰
    const K_FIN: f64 = 1.0 / (1u64 << 48) as f64; // ≥ 16 × 2⁻⁵²
    let dim = grad.len();
    let gsum: f64 = grad.iter().map(|g| g.abs()).sum();

    // Estimate every candidate from the f32 copy (no page I/O), then visit
    // them most-promising first so the pruning threshold tightens early.
    let mut scored: Vec<(f64, f64, u32)> = Vec::with_capacity(union.len());
    for &pid in union {
        let row = &rows32[pid as usize * dim..(pid as usize + 1) * dim];
        let mut acc = 0.0f64;
        let mut mag = 0.0f64;
        for (&g, &x) in grad.iter().zip(row) {
            let t = g * f64::from(x);
            acc += t;
            mag += t.abs();
        }
        let estimate = phi[pid as usize] + offset - acc;
        let bound = mag * K_REL + gsum * K_SUB + estimate.abs() * K_FIN;
        scored.push((estimate, bound, pid));
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

    let mut heap: BinaryHeap<Ranked> =
        neighbors.drain(..).map(|(pid, dist)| Ranked { dist, pid: pid.0 }).collect();
    let mut one_dist = Vec::with_capacity(1);
    for &(estimate, bound, pid) in &scored {
        if heap.len() == k {
            let worst = heap.peek().expect("heap holds k > 0 entries");
            if estimate - bound > worst.dist {
                continue;
            }
        }
        if !pool.read_point_into(store, pid, coords)? {
            continue;
        }
        search_stats.distance_computations += 1;
        // A single-row block: for m = 1 the lane-major block *is* the row,
        // and the arithmetic matches the batched refine bit for bit.
        prepared.distance_block(std::slice::from_ref(&phi[pid as usize]), coords, &mut one_dist);
        let entry = Ranked { dist: one_dist[0], pid };
        if heap.len() < k {
            heap.push(entry);
        } else if entry.cmp(heap.peek().expect("heap holds k > 0 entries"))
            == std::cmp::Ordering::Less
        {
            heap.pop();
            heap.push(entry);
        }
    }
    neighbors.extend(heap.into_iter().map(|e| (PointId(e.pid), e.dist)));
    Ok(())
}

/// The full-space `Φ(x) = Σ_j φ(x_j)` column, evaluated over each row in
/// its original dimension order.
///
/// Deliberately *not* reassembled from the per-subspace transform tuples
/// (`Σ_s α_x(s)`): that sum's floating-point order depends on the partition
/// layout, so two indexes holding the same point under different
/// partitionings would score it with different low-order bits. Summing the
/// row directly makes the refine distance a pure function of `(row, query)`
/// — the invariant [`DeltaSegment`](crate::delta::DeltaSegment) and the
/// sharded serving tier rely on.
fn phi_from_rows(kind: DivergenceKind, dataset: &DenseDataset) -> Vec<f64> {
    (0..dataset.len()).map(|i| kind.phi_sum(dataset.row(i))).collect()
}

/// Whether the `α_x` column of the one subspace is the [`phi_from_rows`]
/// column bit for bit: with one subspace holding dimensions `0..d` in
/// order, both sum `φ(x_j)` over the row in the same order, so the build
/// and the open take `Φ` from it instead of tabulating it again.
fn alpha_is_phi(partitioning: &Partitioning) -> bool {
    partitioning.len() == 1 && partitioning.subspace(0).iter().enumerate().all(|(i, &j)| i == j)
}

/// Per-column means and variances of a dataset.
fn column_moments(dataset: &DenseDataset) -> (Vec<f64>, Vec<f64>) {
    let d = dataset.dim();
    let n = dataset.len().max(1) as f64;
    let mut means = vec![0.0; d];
    for i in 0..dataset.len() {
        for (j, &v) in dataset.row(i).iter().enumerate() {
            means[j] += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut vars = vec![0.0; d];
    for i in 0..dataset.len() {
        for (j, &v) in dataset.row(i).iter().enumerate() {
            let dv = v - means[j];
            vars[j] += dv * dv;
        }
    }
    for v in &mut vars {
        *v /= n;
    }
    (means, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bregman::kernel::KernelScratch;
    use datagen::correlated::CorrelatedSpec;
    use datagen::ground_truth::single_query_knn;

    fn dataset(n: usize, dim: usize, seed: u64) -> DenseDataset {
        CorrelatedSpec {
            n,
            dim,
            blocks: (dim / 4).max(1),
            correlation: 0.8,
            mean: 5.0,
            scale: 1.0,
            seed,
        }
        .generate()
    }

    fn config() -> BrePartitionConfig {
        BrePartitionConfig::default().with_partitions(4).with_leaf_capacity(16).with_page_size(4096)
    }

    #[test]
    fn knn_matches_brute_force_itakura_saito() {
        let ds = dataset(500, 24, 1);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config()).unwrap();
        for qi in [0usize, 7, 99, 250] {
            let query = ds.row(qi).to_vec();
            let got = index
                .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, 10, None)
                .unwrap();
            let expected = single_query_knn(DivergenceKind::ItakuraSaito, &ds, &query, 10);
            assert_eq!(got.neighbors.len(), 10);
            for (g, e) in got.neighbors.iter().zip(expected.iter()) {
                assert!(
                    (g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()),
                    "query {qi}: {} vs {}",
                    g.1,
                    e.1
                );
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_exponential_with_auto_partitions() {
        let ds = dataset(400, 16, 2);
        let cfg = BrePartitionConfig::default().with_leaf_capacity(8).with_page_size(2048);
        let index = BrePartitionIndex::build(DivergenceKind::Exponential, &ds, &cfg).unwrap();
        assert!(index.partitions() >= 1 && index.partitions() <= 16);
        let query = ds.row(42).to_vec();
        let got = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, 5, None)
            .unwrap();
        let expected = single_query_knn(DivergenceKind::Exponential, &ds, &query, 5);
        for (g, e) in got.neighbors.iter().zip(expected.iter()) {
            assert!((g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()));
        }
    }

    #[test]
    fn candidates_contain_the_true_knn() {
        // Theorem 3: the union of per-subspace candidates is a superset of
        // the exact kNN result.
        let ds = dataset(600, 20, 3);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config()).unwrap();
        let query = ds.row(13).to_vec();
        let k = 20;
        let got = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, k, None)
            .unwrap();
        let expected = single_query_knn(DivergenceKind::ItakuraSaito, &ds, &query, k);
        let got_ids: std::collections::HashSet<_> =
            got.neighbors.iter().map(|(id, _)| *id).collect();
        for (id, _) in expected {
            assert!(got_ids.contains(&id), "true neighbour {id} missing");
        }
        assert!(got.stats.candidates >= k);
        assert!(got.stats.candidates <= ds.len());
    }

    #[test]
    fn filter_prunes_part_of_the_dataset() {
        // Clustered positive data: neighbours of a query are concentrated in
        // its own cluster, so the k-th upper bound is tight enough to prune
        // the other clusters.
        // Hierarchically clustered positive data: within-point coordinate
        // scales are homogeneous relative to the between-cluster separation,
        // the regime where the paper's Cauchy filter is effective.
        let ds = datagen::HierarchicalSpec {
            n: 1500,
            dim: 32,
            clusters: 15,
            blocks: 8,
            ..Default::default()
        }
        .generate();
        let cfg = config().with_partitions(8);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &cfg).unwrap();
        let query = ds.row(3).to_vec();
        let got = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, 10, None)
            .unwrap();
        assert!(
            got.stats.candidates < ds.len(),
            "expected pruning, got {} candidates out of {}",
            got.stats.candidates,
            ds.len()
        );
        assert!(got.stats.io.pages_read > 0);
        assert!(got.stats.io.pages_read <= index.forest().page_count() as u64);
    }

    #[test]
    fn bounds_report_the_radius_the_filter_searched() {
        let ds = dataset(800, 16, 11);
        let kind = DivergenceKind::ItakuraSaito;
        let k = 10;
        for m in [1, 4] {
            let index = BrePartitionIndex::build(kind, &ds, &config().with_partitions(m)).unwrap();
            for qi in [3usize, 400] {
                let query = ds.row(qi).iter().map(|v| v * 1.01).collect::<Vec<_>>();
                let got = index
                    .knn(
                        &mut index.new_buffer_pool(),
                        &mut KernelScratch::default(),
                        &query,
                        k,
                        None,
                    )
                    .unwrap();
                let bounds = &got.bounds;
                if m > 1 {
                    let tq = TransformedQuery::build(kind, &query, index.partitioning());
                    let alg4 = QueryBounds::determine(index.transformed(), &tq, k).unwrap();
                    assert_eq!(bounds, &alg4, "M = {m}, query {qi}");
                    continue;
                }
                // M = 1: Algorithm 4 does not run; the bounds are the loop's
                // final threshold τ.
                assert_eq!(bounds.per_subspace, vec![bounds.total], "query {qi}");
                // τ is the k-th scored distance, widened: at least the
                // answer's k-th distance, and within the allowance of its
                // pivot row's.
                assert!(bounds.total >= got.neighbors[k - 1].1, "query {qi}");
                let pivot = kind.divergence(ds.row(bounds.pivot_point), &query);
                let slack = 1e-9 * (1.0 + pivot.abs());
                assert!((bounds.total - pivot).abs() <= slack, "query {qi}");
                // There is no range search to compare with: the answer is
                // brute force's, and every row within τ was scored.
                let expected = single_query_knn(kind, &ds, &query, k);
                let ids = |n: &[(PointId, f64)]| n.iter().map(|p| p.0).collect::<Vec<_>>();
                assert_eq!(ids(&got.neighbors), ids(&expected), "query {qi}");
                let within =
                    (0..ds.len()).filter(|&i| kind.divergence(ds.row(i), &query) <= bounds.total);
                assert!(got.stats.candidates >= within.count(), "query {qi}");
            }
        }
    }

    #[test]
    fn alpha_column_is_the_phi_column_bit_for_bit_at_one_partition() {
        // With one subspace over `0..d` in order, the build and the open take
        // Φ from the `α_x` column; it must equal the row-order tabulation
        // bit for bit, for every kind.
        let fonts = datagen::PaperDataset::Fonts.paper_spec().with_points(200).generate(3);
        let mut rows: Vec<Vec<f64>> = (0..fonts.len()).map(|i| fonts.row(i).to_vec()).collect();
        // Every Itakura–Saito term of an all-ones row is −0.0.
        rows.push(vec![1.0; fonts.dim()]);
        rows.push(vec![0.25; fonts.dim()]);
        let ds = DenseDataset::from_rows(&rows).unwrap();
        for p in [equal_contiguous(ds.dim(), 1).unwrap(), pccp(&ds, 1, 64, 5).unwrap()] {
            assert!(alpha_is_phi(&p));
            for kind in DivergenceKind::ALL {
                let t = TransformedDataset::build(kind, &ds, &p);
                let (alpha, _) = t.subspace_columns(0);
                for (i, (a, phi)) in alpha.iter().zip(phi_from_rows(kind, &ds)).enumerate() {
                    assert_eq!(a.to_bits(), phi.to_bits(), "{kind} row {i}: {a} vs {phi}");
                }
            }
        }
        let index = BrePartitionIndex::build(
            DivergenceKind::ItakuraSaito,
            &ds,
            &config().with_partitions(1),
        )
        .unwrap();
        let tabulated = phi_from_rows(DivergenceKind::ItakuraSaito, &ds);
        assert!(index.phi().iter().zip(&tabulated).all(|(a, b)| a.to_bits() == b.to_bits()));
        // Any other layout tabulates Φ from the rows.
        assert!(!alpha_is_phi(&Partitioning::new(vec![vec![1, 0, 2]]).unwrap()));
        assert!(!alpha_is_phi(&equal_contiguous(8, 2).unwrap()));
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let ds = dataset(100, 8, 5);
        assert!(matches!(
            BrePartitionIndex::build(DivergenceKind::GeneralizedI, &ds, &config()),
            Err(CoreError::UnsupportedDivergence { .. })
        ));
        let empty = DenseDataset::empty(8).unwrap();
        assert!(matches!(
            BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &empty, &config()),
            Err(CoreError::EmptyDataset)
        ));
        let too_many = BrePartitionConfig::default().with_partitions(99);
        assert!(matches!(
            BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &too_many),
            Err(CoreError::InvalidPartitions { .. })
        ));
    }

    #[test]
    fn query_dimension_is_validated() {
        let ds = dataset(100, 8, 6);
        let index = BrePartitionIndex::build(
            DivergenceKind::ItakuraSaito,
            &ds,
            &config().with_partitions(2),
        )
        .unwrap();
        let approx = ApproximateConfig::with_probability(0.9);
        for actual in [2, 12] {
            for mode in [None, Some(&approx)] {
                let query = vec![1.0; actual];
                let mut pool = index.new_buffer_pool();
                assert_eq!(
                    index.knn(&mut pool, &mut KernelScratch::default(), &query, 3, mode),
                    Err(CoreError::QueryDimensionMismatch { expected: 8, actual })
                );
            }
        }
    }

    #[test]
    fn out_of_domain_queries_are_typed_errors() {
        // These used to return k neighbours whose distances were all NaN.
        let ds = dataset(300, 8, 6);
        let index = BrePartitionIndex::build(
            DivergenceKind::ItakuraSaito,
            &ds,
            &config().with_partitions(2),
        )
        .unwrap();
        let approx = ApproximateConfig::with_probability(0.9);
        for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let mut query = ds.row(0).to_vec();
            query[3] = bad;
            for mode in [None, Some(&approx)] {
                let mut pool = index.new_buffer_pool();
                match index.knn(&mut pool, &mut KernelScratch::default(), &query, 3, mode) {
                    Err(CoreError::Bregman(bregman::BregmanError::OutOfDomain {
                        divergence,
                        value,
                    })) => {
                        assert_eq!((divergence, value.to_bits()), ("ISD", bad.to_bits()));
                    }
                    other => panic!("coordinate {bad}: expected a domain error, got {other:?}"),
                }
                assert_eq!(pool.stats(), pagestore::IoStats::default(), "rejected before any read");
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let ds = dataset(60, 12, 7);
        let index = BrePartitionIndex::build(
            DivergenceKind::ItakuraSaito,
            &ds,
            &config().with_partitions(3),
        )
        .unwrap();
        let query = ds.row(0).to_vec();
        let got = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, 500, None)
            .unwrap();
        assert_eq!(got.neighbors.len(), 60);
    }

    #[test]
    fn accessors_and_build_report() {
        let ds = dataset(200, 16, 8);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config()).unwrap();
        assert_eq!(index.len(), 200);
        assert!(!index.is_empty());
        assert_eq!(index.dim(), 16);
        assert_eq!(index.partitions(), 4);
        assert_eq!(index.kind(), DivergenceKind::ItakuraSaito);
        assert_eq!(index.partitioning().len(), 4);
        assert_eq!(index.dimension_means().len(), 16);
        assert_eq!(index.dimension_variances().len(), 16);
        let report = index.build_report();
        assert_eq!(report.partitions, 4);
        assert!(report.total_seconds >= report.forest_seconds);
        assert!(report.pages_written > 0);
        assert_eq!(index.config().leaf_capacity, 16);
    }

    #[test]
    fn pccp_and_equal_strategies_both_return_exact_results() {
        let ds = dataset(400, 24, 9);
        for strategy in [PartitionStrategy::Pccp, PartitionStrategy::EqualContiguous] {
            let cfg = config().with_strategy(strategy);
            let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &cfg).unwrap();
            let query = ds.row(77).to_vec();
            let got = index
                .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, 8, None)
                .unwrap();
            let expected = single_query_knn(DivergenceKind::ItakuraSaito, &ds, &query, 8);
            for (g, e) in got.neighbors.iter().zip(expected.iter()) {
                assert!((g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()), "{strategy:?}");
            }
        }
    }

    #[test]
    fn warm_pool_reduces_physical_reads() {
        let ds = dataset(800, 16, 10);
        let cfg = config().with_buffer_pool_pages(0);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &cfg).unwrap();
        let query = ds.row(5).to_vec();
        let cold = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, 10, None)
            .unwrap();
        let mut warm_pool = BufferPool::new(4096);
        index.knn(&mut warm_pool, &mut KernelScratch::default(), &query, 10, None).unwrap();
        let second =
            index.knn(&mut warm_pool, &mut KernelScratch::default(), &query, 10, None).unwrap();
        assert!(second.stats.io.pages_read <= cold.stats.io.pages_read);
        assert!(second.stats.io.cache_hits > 0);
    }
}

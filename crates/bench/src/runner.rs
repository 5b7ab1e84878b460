//! Workload construction and method runners shared by every experiment.

use std::time::Instant;

use bbtree::{BBTreeConfig, DiskBBTree, VariationalConfig};
use bregman::kernel::KernelScratch;
use bregman::{
    DenseDataset, DivergenceKind, Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean,
};
use brepartition_core::{
    ApproximateConfig, BrePartitionConfig, BrePartitionIndex, PartitionStrategy,
};
use datagen::{
    ground_truth_knn, overall_ratio, DatasetSpec, GroundTruth, PaperDataset, QueryWorkload,
};
use pagestore::{BufferPool, PageStoreConfig};
use vafile::{VaFile, VaFileConfig};

use crate::scale::Scale;

/// One generated workload: a proxy dataset, its divergence, its queries and
/// the page size the paper associates with the dataset.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name of the dataset (paper naming).
    pub name: String,
    /// The generated points.
    pub dataset: DenseDataset,
    /// Divergence used with this dataset.
    pub kind: DivergenceKind,
    /// Query batch.
    pub queries: QueryWorkload,
    /// Page size in bytes.
    pub page_size: usize,
}

/// Aggregated per-method measurements over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodMetrics {
    /// Method label ("BP", "VAF", "BBT", "ABP (p=0.9)", "Var").
    pub method: String,
    /// Index construction time in seconds.
    pub build_seconds: f64,
    /// Average physical page reads per query.
    pub avg_io_pages: f64,
    /// Average query time in milliseconds.
    pub avg_time_ms: f64,
    /// Average rows scored exactly per query.
    pub avg_candidates: f64,
    /// Average overall ratio against the exact results (1.0 for exact
    /// methods).
    pub overall_ratio: f64,
}

/// Experiment workbench: builds workloads and runs every method.
#[derive(Debug, Clone, Copy)]
pub struct Workbench {
    /// The scale preset in effect.
    pub scale: Scale,
}

impl Workbench {
    /// A workbench at the given scale.
    pub fn new(scale: Scale) -> Workbench {
        Workbench { scale }
    }

    /// Generate the proxy workload for one of the paper's datasets.
    pub fn workload(&self, dataset: PaperDataset, seed: u64) -> Workload {
        let spec = dataset.scaled_spec(self.scale.max_points);
        let spec = spec.with_dim(self.scale.dim(spec.dim)).with_points(self.scale.points(spec.n));
        self.workload_from_spec(dataset.name(), spec, seed)
    }

    /// Generate a workload from an explicit spec (used by the dimensionality
    /// and data-size sweeps).
    pub fn workload_from_spec(&self, name: &str, spec: DatasetSpec, seed: u64) -> Workload {
        let dataset = spec.generate(seed);
        let queries = QueryWorkload::perturbed_from(
            &dataset,
            spec.divergence,
            self.scale.queries,
            0.02,
            seed ^ 0x51DE,
        );
        Workload {
            name: name.to_string(),
            dataset,
            kind: spec.divergence,
            queries,
            page_size: spec.page_size_bytes.min(64 * 1024),
        }
    }

    /// Exact ground truth for a workload (used by the approximate
    /// experiments).
    pub fn ground_truth(&self, workload: &Workload, k: usize) -> GroundTruth {
        ground_truth_knn(workload.kind, &workload.dataset, &workload.queries.queries, k, 4)
    }

    /// The number of partitions the paper's Table 4 would use for this
    /// dimensionality: the paper's optimized M keeps roughly `d/M ≈ 7`
    /// dimensions per subspace on its full-size datasets, so comparison
    /// experiments on the scaled proxies reuse that ratio.
    pub fn paper_m(&self, dim: usize) -> usize {
        (dim / 7).clamp(2, dim.max(2))
    }

    /// Run BrePartition (exact) with `partitions` subspaces.
    pub fn run_brepartition(
        &self,
        workload: &Workload,
        k: usize,
        partitions: usize,
        strategy: PartitionStrategy,
    ) -> MethodMetrics {
        let config = BrePartitionConfig::default()
            .with_page_size(workload.page_size)
            .with_strategy(strategy)
            .with_partitions(partitions);
        let build_started = Instant::now();
        let index = BrePartitionIndex::build(workload.kind, &workload.dataset, &config)
            .expect("BrePartition build");
        let build_seconds = build_started.elapsed().as_secs_f64();
        let mut io = 0u64;
        let mut candidates = 0usize;
        let mut kernel = KernelScratch::default();
        let query_started = Instant::now();
        for query in workload.queries.iter() {
            let mut pool = index.new_buffer_pool();
            let result =
                index.knn(&mut pool, &mut kernel, query, k, None).expect("BrePartition query");
            io += result.stats.io.pages_read;
            candidates += result.stats.candidates;
        }
        let elapsed = query_started.elapsed().as_secs_f64();
        let q = workload.queries.len() as f64;
        MethodMetrics {
            method: "BP".to_string(),
            build_seconds,
            avg_io_pages: io as f64 / q,
            avg_time_ms: elapsed * 1e3 / q,
            avg_candidates: candidates as f64 / q,
            overall_ratio: 1.0,
        }
    }

    /// Run the approximate BrePartition (ABP) at probability `p`, with the
    /// paper-ratio number of partitions.
    pub fn run_abp(
        &self,
        workload: &Workload,
        k: usize,
        p: f64,
        truth: &GroundTruth,
    ) -> MethodMetrics {
        let config = BrePartitionConfig::default()
            .with_page_size(workload.page_size)
            .with_partitions(self.paper_m(workload.dataset.dim()));
        let build_started = Instant::now();
        let index =
            BrePartitionIndex::build(workload.kind, &workload.dataset, &config).expect("ABP build");
        let build_seconds = build_started.elapsed().as_secs_f64();
        let approx = ApproximateConfig::with_probability(p);
        let mut io = 0u64;
        let mut candidates = 0usize;
        let mut ratios = Vec::new();
        let mut kernel = KernelScratch::default();
        let query_started = Instant::now();
        for (qi, query) in workload.queries.iter().enumerate() {
            let mut pool = index.new_buffer_pool();
            let result =
                index.knn(&mut pool, &mut kernel, query, k, Some(&approx)).expect("ABP query");
            io += result.stats.io.pages_read;
            candidates += result.stats.candidates;
            ratios.push(overall_ratio(&result.neighbors, truth.neighbors_of(qi)));
        }
        let elapsed = query_started.elapsed().as_secs_f64();
        let q = workload.queries.len() as f64;
        MethodMetrics {
            method: format!("ABP (p={p})"),
            build_seconds,
            avg_io_pages: io as f64 / q,
            avg_time_ms: elapsed * 1e3 / q,
            avg_candidates: candidates as f64 / q,
            overall_ratio: datagen::metrics::mean(&ratios),
        }
    }

    /// Run the disk-resident BB-tree baseline (exact, "BBT").
    pub fn run_bbt(&self, workload: &Workload, k: usize) -> MethodMetrics {
        self.run_bbt_impl(workload, k, None, "BBT")
    }

    /// Run the variational approximate BB-tree baseline ("Var").
    pub fn run_var(
        &self,
        workload: &Workload,
        k: usize,
        explore_fraction: f64,
        truth: &GroundTruth,
    ) -> MethodMetrics {
        let mut metrics = self.run_bbt_impl(workload, k, Some((explore_fraction, truth)), "Var");
        metrics.method = "Var".to_string();
        metrics
    }

    fn run_bbt_impl(
        &self,
        workload: &Workload,
        k: usize,
        variational: Option<(f64, &GroundTruth)>,
        label: &str,
    ) -> MethodMetrics {
        macro_rules! go {
            ($div:expr) => {{
                let build_started = Instant::now();
                let index = DiskBBTree::build(
                    $div,
                    &workload.dataset,
                    BBTreeConfig::with_leaf_capacity(32),
                    PageStoreConfig::with_page_size(workload.page_size),
                );
                let build_seconds = build_started.elapsed().as_secs_f64();
                let (mut io, mut candidates) = (0u64, 0u64);
                let mut ratios = Vec::new();
                let mut kernel = KernelScratch::default();
                let leaf_budget = variational.map(|(fraction, _)| {
                    VariationalConfig { explore_fraction: fraction }
                        .leaf_budget(index.tree().leaf_count())
                });
                let query_started = Instant::now();
                for (qi, query) in workload.queries.iter().enumerate() {
                    let mut pool = BufferPool::unbuffered();
                    let result = index
                        .knn(&mut pool, &mut kernel, query, k, leaf_budget)
                        .expect("bbt query");
                    io += result.io.pages_read;
                    candidates += result.search.distance_computations;
                    if let Some((_, truth)) = variational {
                        ratios.push(overall_ratio(&result.neighbors, truth.neighbors_of(qi)));
                    }
                }
                let elapsed = query_started.elapsed().as_secs_f64();
                let q = workload.queries.len() as f64;
                MethodMetrics {
                    method: label.to_string(),
                    build_seconds,
                    avg_io_pages: io as f64 / q,
                    avg_time_ms: elapsed * 1e3 / q,
                    avg_candidates: candidates as f64 / q,
                    overall_ratio: if ratios.is_empty() {
                        1.0
                    } else {
                        datagen::metrics::mean(&ratios)
                    },
                }
            }};
        }
        match workload.kind {
            DivergenceKind::SquaredEuclidean => go!(SquaredEuclidean),
            DivergenceKind::ItakuraSaito => go!(ItakuraSaito),
            DivergenceKind::Exponential => go!(Exponential),
            DivergenceKind::GeneralizedI => go!(GeneralizedI),
        }
    }

    /// Run the VA-file baseline (exact, "VAF").
    pub fn run_vaf(&self, workload: &Workload, k: usize) -> MethodMetrics {
        macro_rules! go {
            ($div:expr) => {{
                let build_started = Instant::now();
                let index = VaFile::build(
                    $div,
                    &workload.dataset,
                    VaFileConfig { page_size_bytes: workload.page_size, ..VaFileConfig::default() },
                );
                let build_seconds = build_started.elapsed().as_secs_f64();
                let mut io = 0u64;
                let mut candidates = 0usize;
                let mut kernel = KernelScratch::default();
                let query_started = Instant::now();
                for query in workload.queries.iter() {
                    let mut pool = BufferPool::unbuffered();
                    let result =
                        index.knn(&mut pool, &mut kernel, query, k, None).expect("vaf query");
                    io += result.io.pages_read;
                    candidates += result.candidates;
                }
                let elapsed = query_started.elapsed().as_secs_f64();
                let q = workload.queries.len() as f64;
                MethodMetrics {
                    method: "VAF".to_string(),
                    build_seconds,
                    avg_io_pages: io as f64 / q,
                    avg_time_ms: elapsed * 1e3 / q,
                    avg_candidates: candidates as f64 / q,
                    overall_ratio: 1.0,
                }
            }};
        }
        match workload.kind {
            DivergenceKind::SquaredEuclidean => go!(SquaredEuclidean),
            DivergenceKind::ItakuraSaito => go!(ItakuraSaito),
            DivergenceKind::Exponential => go!(Exponential),
            DivergenceKind::GeneralizedI => go!(GeneralizedI),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench() -> (Workbench, Workload) {
        let bench = Workbench::new(Scale::tiny());
        let workload = bench.workload(PaperDataset::Audio, 1);
        (bench, workload)
    }

    #[test]
    fn workload_respects_scale() {
        let (bench, workload) = tiny_bench();
        assert!(workload.dataset.len() <= bench.scale.max_points);
        assert!(workload.dataset.dim() <= bench.scale.max_dim);
        assert_eq!(workload.queries.len(), bench.scale.queries);
        assert_eq!(workload.kind, DivergenceKind::Exponential);
    }

    #[test]
    fn exact_methods_report_unit_ratio_and_positive_io() {
        let (bench, workload) = tiny_bench();
        let bp = bench.run_brepartition(&workload, 5, 4, PartitionStrategy::Pccp);
        let bbt = bench.run_bbt(&workload, 5);
        let vaf = bench.run_vaf(&workload, 5);
        for m in [&bp, &bbt, &vaf] {
            assert_eq!(m.overall_ratio, 1.0, "{}", m.method);
            assert!(m.avg_io_pages > 0.0, "{}", m.method);
            assert!(m.avg_time_ms >= 0.0);
            assert!(m.build_seconds >= 0.0);
        }
        assert!(bp.avg_candidates > 0.0);
    }

    #[test]
    fn approximate_methods_report_ratio_at_least_one() {
        let (bench, workload) = tiny_bench();
        let truth = bench.ground_truth(&workload, 5);
        let abp = bench.run_abp(&workload, 5, 0.8, &truth);
        let var = bench.run_var(&workload, 5, 0.2, &truth);
        assert!(abp.overall_ratio >= 1.0 - 1e-9);
        assert!(var.overall_ratio >= 1.0 - 1e-9);
        assert!(abp.method.contains("0.8"));
        assert_eq!(var.method, "Var");
    }
}

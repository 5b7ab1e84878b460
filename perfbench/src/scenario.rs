//! The workloads: the data each one indexes, how the index is configured
//! and set up, and the inputs derived from the run's seed.
//!
//! Every workload indexes one fixed dataset (a fixed generator seed), so a
//! run measures the program rather than the luck of one dataset draw: on
//! the Fonts proxy the Auto partition count and the per-query cost swing by
//! a factor of two between dataset seeds. The run's `--seed` drives
//! everything else — the query pool, the correctness sample, the arrival
//! schedule, the operation stream and the inserted rows.

use std::path::Path;
use std::time::Instant;

use brepartition::prelude::*;

/// Neighbours per query.
pub const K: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Distinct queries a run cycles through.
pub const QUERY_POOL: usize = 512;
/// Queries per run checked id for id against a brute-force scan.
pub const CHECKED_QUERIES: usize = 16;
/// Queries per micro-batch.
pub const BATCH: usize = 8;
/// Shards of the sharded tier the traced run probes (at most the host's
/// two cores).
pub const SHARDS: usize = 2;
/// Latency samples a run collects at least, so that 10 samples lie beyond
/// the p99 its stamp records.
pub const MIN_LATENCY_SAMPLES: usize = 1000;

const FONTS_POINTS: usize = 3_000;
const FONTS_DATA_SEED: u64 = 7;
const HIER_DIM: usize = 32;
const HIER_DATA_SEED: u64 = 2024;
const HIER_PAGE_BYTES: usize = 32 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FontsDisk,
    Microbatch,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::FontsDisk, Workload::Microbatch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FontsDisk => "fonts-disk",
            Workload::Microbatch => "microbatch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FontsDisk => {
                "the paper's headline regime: d = 400 Itakura-Saito data served from page files \
                 with no buffer pool, where the bound, the filter, page reads and refine all do \
                 real work"
            }
            Workload::Microbatch => {
                "low-dimensional data where Auto picks one partition and batches are small, so \
                 per-batch dispatch is a visible share of the time"
            }
        }
    }

    pub fn kind(self) -> DivergenceKind {
        DivergenceKind::ItakuraSaito
    }

    pub fn points(self) -> usize {
        match self {
            Workload::FontsDisk => FONTS_POINTS,
            Workload::Microbatch => 16_000,
        }
    }

    pub fn dim(self) -> usize {
        match self {
            Workload::FontsDisk => PaperDataset::Fonts.paper_spec().dim,
            Workload::Microbatch => HIER_DIM,
        }
    }

    /// Whether the served index is reopened from its saved directory, so
    /// data pages come from page files.
    pub fn file_backed(self) -> bool {
        self == Workload::FontsDisk
    }

    /// The index configuration. The in-memory workloads get a buffer pool
    /// that holds every data page; `fonts-disk` gets none.
    pub fn spec(self) -> IndexSpec {
        let kind = self.kind();
        match self {
            Workload::FontsDisk => IndexSpec::brepartition(kind)
                .with_page_size(PaperDataset::Fonts.paper_spec().page_size_bytes)
                .with_buffer_pool_pages(0),
            Workload::Microbatch => {
                let per_page =
                    PageStoreConfig::with_page_size(HIER_PAGE_BYTES).records_per_page(HIER_DIM);
                IndexSpec::brepartition(kind)
                    .with_page_size(HIER_PAGE_BYTES)
                    .with_buffer_pool_pages(self.points().div_ceil(per_page))
            }
        }
    }

    /// The workload's fixed dataset.
    pub fn generate(self) -> DenseDataset {
        match self {
            Workload::FontsDisk => PaperDataset::Fonts
                .paper_spec()
                .with_points(self.points())
                .generate(FONTS_DATA_SEED),
            Workload::Microbatch => HierarchicalSpec {
                n: self.points(),
                dim: HIER_DIM,
                clusters: (self.points() / 100).clamp(8, 32),
                blocks: HIER_DIM / 4,
                seed: HIER_DATA_SEED,
                ..Default::default()
            }
            .generate(),
        }
    }
}

/// Worker threads for batches, shard budgets and dispatch + compaction:
/// two, or fewer on a smaller host.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// The seeded query pool: perturbed copies of distinct data points.
pub fn query_pool(workload: Workload, data: &DenseDataset, seed: u64) -> Vec<Vec<f64>> {
    QueryWorkload::perturbed_from(data, workload.kind(), QUERY_POOL, 0.02, seed)
        .iter()
        .map(<[f64]>::to_vec)
        .collect()
}

/// Rows for `count` inserts: perturbed copies of data points, drawn from the
/// same distribution as the indexed data.
pub fn insert_rows(
    workload: Workload,
    data: &DenseDataset,
    count: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    if count == 0 {
        return Vec::new();
    }
    QueryWorkload::perturbed_from(data, workload.kind(), count, 0.02, seed ^ 0x001A_5E47)
        .iter()
        .map(<[f64]>::to_vec)
        .collect()
}

/// `count` distinct pool positions chosen by the seed.
pub fn checked_positions(seed: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut rng = loadgen::SplitMix64::new(seed ^ 0x0C4E_C4ED);
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    while picked.len() < count.min(pool) {
        let candidate = rng.next_below(pool as u64) as usize;
        if !picked.contains(&candidate) {
            picked.push(candidate);
        }
    }
    picked
}

/// A set-up index, its data and how long the set-up took.
pub struct Setup {
    pub data: DenseDataset,
    pub index: Index,
    pub seconds: f64,
}

/// Generate the data and build the index; `fonts-disk` also saves it to
/// `scratch` and reopens it from there.
pub fn set_up(workload: Workload, scratch: &Path) -> crate::Result<Setup> {
    let started = Instant::now();
    let data = workload.generate();
    let mut index = Index::build(&workload.spec(), &data)?;
    if workload.file_backed() {
        let dir = scratch.join("index");
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        index.save(&dir)?;
        drop(index);
        index = Index::open(&dir)?;
    }
    Ok(Setup { data, index, seconds: started.elapsed().as_secs_f64() })
}

/// The exact `k` nearest neighbours of `query` by a linear scan of
/// `kind.divergence(x, query)`, ordered by `(divergence, id)`.
pub fn brute_force(
    kind: DivergenceKind,
    data: &DenseDataset,
    query: &[f64],
    k: usize,
) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> =
        (0..data.len()).map(|i| (i as u32, kind.divergence(data.row(i), query))).collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Whether `got` names the brute-force neighbours id for id. A differing id
/// is accepted only where the scan scores it exactly as the expected one
/// (a genuine tie, which the index may order either way).
pub fn same_neighbors(
    kind: DivergenceKind,
    data: &DenseDataset,
    query: &[f64],
    got: &[(PointId, f64)],
    truth: &[(u32, f64)],
) -> bool {
    got.len() == truth.len()
        && got.iter().zip(truth).all(|(&(id, _), &(want, want_d))| {
            id.0 == want
                || ((id.0 as usize) < data.len()
                    && kind.divergence(data.row(id.0 as usize), query) == want_d)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_positions_are_distinct_and_seeded() {
        let a = checked_positions(3, 64, 16);
        assert_eq!(a.len(), 16);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        assert_eq!(a, checked_positions(3, 64, 16));
        assert_ne!(a, checked_positions(4, 64, 16));
        assert_eq!(checked_positions(1, 5, 16).len(), 5);
    }

    #[test]
    fn brute_force_orders_by_divergence_then_id() {
        let data =
            DenseDataset::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![1.0, 1.0]]).unwrap();
        let truth = brute_force(DivergenceKind::ItakuraSaito, &data, &[1.0, 1.0], 2);
        assert_eq!(truth.iter().map(|t| t.0).collect::<Vec<_>>(), vec![0, 2]);
        // Swapping the tied ids 0 and 2 is accepted; a wrong id is not.
        let query = [1.0, 1.0];
        let kind = DivergenceKind::ItakuraSaito;
        assert!(same_neighbors(
            kind,
            &data,
            &query,
            &[(PointId(2), 0.0), (PointId(0), 0.0)],
            &truth
        ));
        assert!(!same_neighbors(
            kind,
            &data,
            &query,
            &[(PointId(1), 0.0), (PointId(0), 0.0)],
            &truth
        ));
        assert!(!same_neighbors(kind, &data, &query, &[(PointId(0), 0.0)], &truth));
    }

    #[test]
    fn every_workload_parses_its_own_name() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(workload.spec().validate().is_ok());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

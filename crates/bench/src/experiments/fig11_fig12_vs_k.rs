//! Figs. 11 & 12: per-query I/O cost and running time of BP, VAF and BBT as
//! k grows from 20 to 100, on the four "real" proxies.
//!
//! Paper shape: BP has the lowest I/O and running time almost everywhere;
//! VAF sits between BP and BBT (its approximation-file scan gives it
//! moderate I/O but scanning all approximations costs CPU); BBT is the worst
//! in high dimensions because cluster overlap forces it to visit most
//! leaves.

use std::time::Instant;

use bbtree::{BBTreeConfig, DiskBBTree};
use bregman::kernel::KernelScratch;
use bregman::{DivergenceKind, Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean};
use brepartition_core::{BrePartitionConfig, BrePartitionIndex};
use datagen::PaperDataset;
use pagestore::{BufferPool, PageStoreConfig};
use vafile::{VaFile, VaFileConfig};

use crate::report::{fmt_f64, Table};
use crate::runner::{Workbench, Workload};

const KS: [usize; 5] = [20, 40, 60, 80, 100];

/// Reproduce Figs. 11 and 12.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let datasets =
        [PaperDataset::Audio, PaperDataset::Fonts, PaperDataset::Deep, PaperDataset::Sift];
    let mut tables = Vec::new();
    for dataset in datasets {
        let workload = bench.workload(dataset, 11);
        let mut io_table = Table::new(
            format!("Fig. 11 — {} : per-query I/O (pages) vs k", dataset),
            &["k", "BP", "VAF", "BBT"],
        );
        let mut time_table = Table::new(
            format!("Fig. 12 — {} : per-query running time (ms) vs k", dataset),
            &["k", "BP", "VAF", "BBT"],
        );
        let series = run_methods(&workload, bench.paper_m(workload.dataset.dim()));
        for (i, &k) in KS.iter().enumerate() {
            io_table.row(vec![
                k.to_string(),
                fmt_f64(series.bp[i].0),
                fmt_f64(series.vaf[i].0),
                fmt_f64(series.bbt[i].0),
            ]);
            time_table.row(vec![
                k.to_string(),
                fmt_f64(series.bp[i].1),
                fmt_f64(series.vaf[i].1),
                fmt_f64(series.bbt[i].1),
            ]);
        }
        tables.push(io_table);
        tables.push(time_table);
    }
    tables
}

struct Series {
    /// `(avg I/O pages, avg ms)` per k, per method.
    bp: Vec<(f64, f64)>,
    vaf: Vec<(f64, f64)>,
    bbt: Vec<(f64, f64)>,
}

fn run_methods(workload: &Workload, paper_m: usize) -> Series {
    // Build each index once and sweep k over it.
    let bp_config =
        BrePartitionConfig::default().with_page_size(workload.page_size).with_partitions(paper_m);
    let bp_index =
        BrePartitionIndex::build(workload.kind, &workload.dataset, &bp_config).expect("BP build");
    let bp: Vec<(f64, f64)> = KS
        .iter()
        .map(|&k| {
            let mut pages = 0u64;
            let mut kernel = KernelScratch::default();
            let started = Instant::now();
            for query in workload.queries.iter() {
                let mut pool = bp_index.new_buffer_pool();
                let result = bp_index.knn(&mut pool, &mut kernel, query, k, None);
                pages += result.expect("BP query").stats.io.pages_read;
            }
            let q = workload.queries.len() as f64;
            (pages as f64 / q, started.elapsed().as_secs_f64() * 1e3 / q)
        })
        .collect();

    macro_rules! baselines {
        ($div:expr) => {{
            let bbt_index = DiskBBTree::build(
                $div,
                &workload.dataset,
                BBTreeConfig::with_leaf_capacity(32),
                PageStoreConfig::with_page_size(workload.page_size),
            );
            let bbt: Vec<(f64, f64)> = KS
                .iter()
                .map(|&k| {
                    let mut pages = 0u64;
                    let mut kernel = KernelScratch::default();
                    let started = Instant::now();
                    for query in workload.queries.iter() {
                        let mut pool = BufferPool::unbuffered();
                        let result = bbt_index.knn(&mut pool, &mut kernel, query, k, None);
                        pages += result.expect("bbt query").io.pages_read;
                    }
                    let q = workload.queries.len() as f64;
                    (pages as f64 / q, started.elapsed().as_secs_f64() * 1e3 / q)
                })
                .collect();
            let vaf_index = VaFile::build(
                $div,
                &workload.dataset,
                VaFileConfig { page_size_bytes: workload.page_size, ..VaFileConfig::default() },
            );
            let vaf: Vec<(f64, f64)> = KS
                .iter()
                .map(|&k| {
                    let mut pages = 0u64;
                    let mut kernel = KernelScratch::default();
                    let started = Instant::now();
                    for query in workload.queries.iter() {
                        let mut pool = BufferPool::unbuffered();
                        let result = vaf_index.knn(&mut pool, &mut kernel, query, k, None);
                        pages += result.expect("vaf query").io.pages_read;
                    }
                    let q = workload.queries.len() as f64;
                    (pages as f64 / q, started.elapsed().as_secs_f64() * 1e3 / q)
                })
                .collect();
            (vaf, bbt)
        }};
    }
    let (vaf, bbt) = match workload.kind {
        DivergenceKind::SquaredEuclidean => baselines!(SquaredEuclidean),
        DivergenceKind::ItakuraSaito => baselines!(ItakuraSaito),
        DivergenceKind::Exponential => baselines!(Exponential),
        DivergenceKind::GeneralizedI => baselines!(GeneralizedI),
    };
    Series { bp, vaf, bbt }
}

//! Figs. 8 & 9: I/O cost and running time as a function of the number of
//! partitions `M`, for k ∈ {20, 60, 100}, on the four "real" proxies.
//!
//! Paper shape: I/O decreases monotonically (and with diminishing returns)
//! as M grows; running time first falls then rises again, with its minimum
//! at (or near) the cost-model optimum. With the seeded search radius the
//! union of the M range searches grows with M instead, so M = 1 is the
//! cheapest setting (README, "Choosing the number of partitions").
//!
//! Each row also prints the mean candidates the index keeps at `k = 10`.

use std::time::Instant;

use bregman::kernel::KernelScratch;
use brepartition_core::{BrePartitionConfig, BrePartitionIndex};
use datagen::PaperDataset;

use crate::report::{fmt_f64, Table};
use crate::runner::Workbench;

/// The M values swept, expressed as divisors/multiples of the dimensionality.
fn m_sweep(dim: usize) -> Vec<usize> {
    let candidates = [1, 2, 4, 8, 12, 16, 24, 32, 48, 64];
    candidates.iter().copied().filter(|&m| m <= dim).collect()
}

/// Reproduce Figs. 8 and 9.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let datasets =
        [PaperDataset::Audio, PaperDataset::Fonts, PaperDataset::Deep, PaperDataset::Sift];
    let ks = [20usize, 60, 100];
    let mut tables = Vec::new();
    for dataset in datasets {
        let workload = bench.workload(dataset, 8);
        let mut table = Table::new(
            format!("Figs. 8/9 — {} : per-query I/O (pages) and running time (ms) vs M", dataset),
            &[
                "M",
                "I/O k=20",
                "I/O k=60",
                "I/O k=100",
                "time k=20",
                "time k=60",
                "time k=100",
                "candidates k=20",
                "candidates k=10",
            ],
        );
        for m in m_sweep(workload.dataset.dim()) {
            let config =
                BrePartitionConfig::default().with_partitions(m).with_page_size(workload.page_size);
            let Ok(index) = BrePartitionIndex::build(workload.kind, &workload.dataset, &config)
            else {
                continue;
            };
            let mut io = Vec::new();
            let mut time = Vec::new();
            let mut candidates_k20 = 0.0;
            for &k in &ks {
                let mut pages = 0u64;
                let mut cands = 0usize;
                let mut kernel = KernelScratch::default();
                let started = Instant::now();
                for query in workload.queries.iter() {
                    let mut pool = index.new_buffer_pool();
                    let result = index.knn(&mut pool, &mut kernel, query, k, None).expect("query");
                    pages += result.stats.io.pages_read;
                    cands += result.stats.candidates;
                }
                let elapsed = started.elapsed().as_secs_f64();
                let q = workload.queries.len() as f64;
                io.push(pages as f64 / q);
                time.push(elapsed * 1e3 / q);
                if k == 20 {
                    candidates_k20 = cands as f64 / q;
                }
            }
            let mut kernel = KernelScratch::default();
            let mut candidates_k10 = 0.0;
            for query in workload.queries.iter() {
                let mut pool = index.new_buffer_pool();
                let result = index.knn(&mut pool, &mut kernel, query, 10, None).expect("query");
                candidates_k10 += result.stats.candidates as f64;
            }
            candidates_k10 /= workload.queries.len() as f64;
            table.row(vec![
                m.to_string(),
                fmt_f64(io[0]),
                fmt_f64(io[1]),
                fmt_f64(io[2]),
                fmt_f64(time[0]),
                fmt_f64(time[1]),
                fmt_f64(time[2]),
                fmt_f64(candidates_k20),
                fmt_f64(candidates_k10),
            ]);
        }
        tables.push(table);
    }
    tables
}

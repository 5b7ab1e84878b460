//! Figs. 8 & 9: I/O cost and running time as a function of the number of
//! partitions `M`, for k ∈ {20, 60, 100}, on the four "real" proxies.
//!
//! Paper shape: I/O decreases monotonically (and with diminishing returns)
//! as M grows; running time first falls then rises again, with its minimum
//! at (or near) the cost-model optimum.
//!
//! Each row also sets the cost model's prediction against what the index
//! does: `u(M)·n` is the union the model measures on its sampled rows at
//! `k = 10` under an equal partitioning, printed next to the mean candidates
//! the built (PCCP) index keeps for the workload's queries at `k = 10`.

use std::time::Instant;

use bregman::kernel::KernelScratch;
use brepartition_core::partition::optimal_m::{SampledUnion, MODEL_K};
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
        let seed = BrePartitionConfig::default().seed;
        let sample = SampledUnion::new(workload.kind, &workload.dataset, seed).ok();
        let n = workload.dataset.len() as f64;
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
                "model u(M)·n",
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
            let mut candidates_model_k = 0.0;
            for query in workload.queries.iter() {
                let mut pool = index.new_buffer_pool();
                let result =
                    index.knn(&mut pool, &mut kernel, query, MODEL_K, None).expect("query");
                candidates_model_k += result.stats.candidates as f64;
            }
            candidates_model_k /= workload.queries.len() as f64;
            let predicted = sample
                .as_ref()
                .and_then(|sample| sample.fraction(m).ok())
                .map_or_else(|| "-".into(), |union| fmt_f64(union * n));
            table.row(vec![
                m.to_string(),
                fmt_f64(io[0]),
                fmt_f64(io[1]),
                fmt_f64(io[2]),
                fmt_f64(time[0]),
                fmt_f64(time[1]),
                fmt_f64(time[2]),
                fmt_f64(candidates_k20),
                fmt_f64(candidates_model_k),
                predicted,
            ]);
        }
        // Record the cost-model optimum for the validation discussion
        // (Section 9.3.2).
        let auto = BrePartitionConfig::default().with_page_size(workload.page_size);
        if let Ok(index) = BrePartitionIndex::build(workload.kind, &workload.dataset, &auto) {
            table.row(vec![
                format!("optimum (cost model) = {}", index.partitions()),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        tables.push(table);
    }
    tables
}

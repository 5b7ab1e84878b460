//! Fig. 15: evaluation of the approximate solution on the synthetic Normal
//! and Uniform datasets — overall ratio, I/O cost and running time of BP,
//! ABP (p ∈ {0.7, 0.8, 0.9}) and the variational baseline Var, as k grows.
//!
//! Paper shape: the overall ratio grows mildly with k and shrinks as the
//! probability guarantee rises (p = 0.9 is the most accurate); ABP's I/O and
//! time sit below the exact BP and below Var in most settings, because the
//! shrunken bound admits fewer candidates.

use datagen::PaperDataset;

use crate::report::{fmt_f64, Table};
use crate::runner::Workbench;

const KS: [usize; 3] = [20, 60, 100];
const PROBABILITIES: [f64; 3] = [0.7, 0.8, 0.9];

/// Reproduce Fig. 15 (and the Uniform variant from the supplementary file).
pub fn run(bench: &Workbench) -> Vec<Table> {
    let mut tables = Vec::new();
    for dataset in [PaperDataset::Normal, PaperDataset::Uniform] {
        let workload = bench.workload(dataset, 15);
        let mut ratio_table = Table::new(
            format!("Fig. 15(a) — {dataset}: overall ratio vs k"),
            &["k", "ABP p=0.7", "ABP p=0.8", "ABP p=0.9", "Var"],
        );
        let mut io_table = Table::new(
            format!("Fig. 15(b) — {dataset}: per-query I/O (pages) vs k"),
            &["k", "BP", "ABP p=0.7", "ABP p=0.8", "ABP p=0.9", "Var"],
        );
        let mut time_table = Table::new(
            format!("Fig. 15(c) — {dataset}: per-query running time (ms) vs k"),
            &["k", "BP", "ABP p=0.7", "ABP p=0.8", "ABP p=0.9", "Var"],
        );
        for k in KS {
            let truth = bench.ground_truth(&workload, k);
            let bp = bench.run_brepartition(
                &workload,
                k,
                bench.paper_m(workload.dataset.dim()),
                brepartition_core::PartitionStrategy::Pccp,
            );
            let abp: Vec<_> =
                PROBABILITIES.iter().map(|&p| bench.run_abp(&workload, k, p, &truth)).collect();
            let var = bench.run_var(&workload, k, 0.15, &truth);
            ratio_table.row(vec![
                k.to_string(),
                fmt_f64(abp[0].overall_ratio),
                fmt_f64(abp[1].overall_ratio),
                fmt_f64(abp[2].overall_ratio),
                fmt_f64(var.overall_ratio),
            ]);
            io_table.row(vec![
                k.to_string(),
                fmt_f64(bp.avg_io_pages),
                fmt_f64(abp[0].avg_io_pages),
                fmt_f64(abp[1].avg_io_pages),
                fmt_f64(abp[2].avg_io_pages),
                fmt_f64(var.avg_io_pages),
            ]);
            time_table.row(vec![
                k.to_string(),
                fmt_f64(bp.avg_time_ms),
                fmt_f64(abp[0].avg_time_ms),
                fmt_f64(abp[1].avg_time_ms),
                fmt_f64(abp[2].avg_time_ms),
                fmt_f64(var.avg_time_ms),
            ]);
        }
        tables.push(ratio_table);
        tables.push(io_table);
        tables.push(time_table);
    }
    tables
}

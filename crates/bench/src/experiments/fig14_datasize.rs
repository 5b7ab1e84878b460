//! Fig. 14: impact of data size — I/O cost and running time of BP, VAF and
//! BBT on the SIFT proxy as the number of points grows.
//!
//! Paper shape: both metrics grow roughly linearly with the data size for
//! every method; BP stays the cheapest, VAF is competitive, BBT's cost is a
//! multiple of the other two. The number of partitions barely changes with
//! n, so a single M is used across the sweep (as in the paper). BP is also
//! run with the default single partition (`BP (M = 1)`).

use brepartition_core::PartitionStrategy;
use datagen::PaperDataset;

use crate::report::{fmt_f64, Table};
use crate::runner::Workbench;

/// Reproduce Fig. 14.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let k = 20;
    let mut io_table = Table::new(
        "Fig. 14(a) — SIFT proxy: per-query I/O (pages) vs data size",
        &["n", "BP", "BP (M = 1)", "VAF", "BBT"],
    );
    let mut time_table = Table::new(
        "Fig. 14(b) — SIFT proxy: per-query running time (ms) vs data size",
        &["n", "BP", "BP (M = 1)", "VAF", "BBT"],
    );
    let max = bench.scale.max_points;
    let sweep: Vec<usize> =
        [0.2, 0.4, 0.6, 0.8, 1.0].iter().map(|f| ((max as f64 * f) as usize).max(200)).collect();
    for n in sweep {
        let spec =
            PaperDataset::Sift.scaled_spec(max).with_points(n).with_dim(bench.scale.dim(128));
        let workload = bench.workload_from_spec("Sift", spec, 14);
        let m = bench.paper_m(workload.dataset.dim());
        let bp = bench.run_brepartition(&workload, k, m, PartitionStrategy::Pccp);
        let single = bench.run_brepartition(&workload, k, 1, PartitionStrategy::Pccp);
        let vaf = bench.run_vaf(&workload, k);
        let bbt = bench.run_bbt(&workload, k);
        io_table.row(vec![
            n.to_string(),
            fmt_f64(bp.avg_io_pages),
            fmt_f64(single.avg_io_pages),
            fmt_f64(vaf.avg_io_pages),
            fmt_f64(bbt.avg_io_pages),
        ]);
        time_table.row(vec![
            n.to_string(),
            fmt_f64(bp.avg_time_ms),
            fmt_f64(single.avg_time_ms),
            fmt_f64(vaf.avg_time_ms),
            fmt_f64(bbt.avg_time_ms),
        ]);
    }
    vec![io_table, time_table]
}

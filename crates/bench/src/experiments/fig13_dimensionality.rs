//! Fig. 13: impact of dimensionality — I/O cost and running time of BP, VAF
//! and BBT on the Fonts proxy as the dimensionality grows.
//!
//! Paper shape: every method gets more expensive with dimensionality, but
//! BP grows the slowest (the bound adapts through the growing optimal `M`),
//! VAF's growth rate accelerates, and BBT degrades the fastest once the
//! dimensionality exceeds what ball clustering can separate. BP runs at the
//! paper's `M = d/7`.

use brepartition_core::PartitionStrategy;
use datagen::PaperDataset;

use crate::report::{fmt_f64, Table};
use crate::runner::Workbench;

/// The dimensionality sweep: the paper uses 10–400; the sweep is clamped to
/// the scale's dimensionality cap while keeping the 10/50/100/200/400 shape.
fn dimension_sweep(max_dim: usize) -> Vec<usize> {
    [10usize, 50, 100, 200, 400]
        .iter()
        .map(|&d| d.min(max_dim))
        .collect::<Vec<_>>()
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Reproduce Fig. 13.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let k = 20;
    let mut io_table = Table::new(
        "Fig. 13(a) — Fonts proxy: per-query I/O (pages) vs dimensionality",
        &["d", "BP", "VAF", "BBT"],
    );
    let mut time_table = Table::new(
        "Fig. 13(b) — Fonts proxy: per-query running time (ms) vs dimensionality",
        &["d", "BP", "VAF", "BBT"],
    );
    for dim in dimension_sweep(bench.scale.max_dim) {
        let spec = PaperDataset::Fonts
            .scaled_spec(bench.scale.max_points)
            .with_points(
                bench.scale.points(PaperDataset::Fonts.scaled_spec(bench.scale.max_points).n),
            )
            .with_dim(dim);
        let workload = bench.workload_from_spec("Fonts", spec, 13);
        let m = bench.paper_m(workload.dataset.dim());
        let bp = bench.run_brepartition(&workload, k, m, PartitionStrategy::Pccp);
        let vaf = bench.run_vaf(&workload, k);
        let bbt = bench.run_bbt(&workload, k);
        io_table.row(vec![
            dim.to_string(),
            fmt_f64(bp.avg_io_pages),
            fmt_f64(vaf.avg_io_pages),
            fmt_f64(bbt.avg_io_pages),
        ]);
        time_table.row(vec![
            dim.to_string(),
            fmt_f64(bp.avg_time_ms),
            fmt_f64(vaf.avg_time_ms),
            fmt_f64(bbt.avg_time_ms),
        ]);
    }
    vec![io_table, time_table]
}

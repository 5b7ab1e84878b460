//! Fig. 7: index construction time of VAF, BP (BB-forest) and BBT on all six
//! datasets.
//!
//! Paper shape: VA-file construction is the fastest everywhere; the
//! Bregman-ball based indexes (BB-forest, BB-tree) are at least an order of
//! magnitude slower because of the clustering; BB-tree construction is
//! slower than the BB-forest at high dimensionality because clustering the
//! full-dimensional space converges more slowly than clustering the
//! partitioned subspaces.

use brepartition_core::PartitionStrategy;
use datagen::PaperDataset;

use crate::report::{fmt_f64, Table};
use crate::runner::Workbench;

/// Reproduce Fig. 7.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 7 — index construction time (seconds, scaled proxies)",
        &["Dataset", "VAF", "BP (BB-forest)", "BBT"],
    );
    for dataset in PaperDataset::ALL {
        let workload = bench.workload(dataset, 7);
        let k = 20;
        let vaf = bench.run_vaf(&workload, k);
        let m = bench.paper_m(workload.dataset.dim());
        let bp = bench.run_brepartition(&workload, k, m, PartitionStrategy::Pccp);
        let bbt = bench.run_bbt(&workload, k);
        table.row(vec![
            dataset.name().to_string(),
            fmt_f64(vaf.build_seconds),
            fmt_f64(bp.build_seconds),
            fmt_f64(bbt.build_seconds),
        ]);
    }
    vec![table]
}

//! Fig. 10: impact of PCCP — per-query I/O cost and running time with and
//! without the correlation-aware partitioning, k = 20.
//!
//! Paper shape: PCCP reduces both I/O and running time by roughly 20–30%
//! compared to the naive equal/contiguous split, because the per-subspace
//! candidate sets overlap more and resolve to the same disk pages.

use brepartition_core::PartitionStrategy;
use datagen::PaperDataset;

use crate::report::{fmt_f64, Table};
use crate::runner::Workbench;

/// Reproduce Fig. 10.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let datasets =
        [PaperDataset::Audio, PaperDataset::Fonts, PaperDataset::Deep, PaperDataset::Sift];
    let k = 20;
    let mut table = Table::new(
        "Fig. 10 — impact of PCCP (k = 20)",
        &[
            "Dataset",
            "I/O none",
            "I/O PCCP",
            "time none (ms)",
            "time PCCP (ms)",
            "candidates none",
            "candidates PCCP",
        ],
    );
    for dataset in datasets {
        let workload = bench.workload(dataset, 10);
        let m = bench.paper_m(workload.dataset.dim());
        let none = bench.run_brepartition(&workload, k, m, PartitionStrategy::EqualContiguous);
        let pccp = bench.run_brepartition(&workload, k, m, PartitionStrategy::Pccp);
        table.row(vec![
            dataset.name().to_string(),
            fmt_f64(none.avg_io_pages),
            fmt_f64(pccp.avg_io_pages),
            fmt_f64(none.avg_time_ms),
            fmt_f64(pccp.avg_time_ms),
            fmt_f64(none.avg_candidates),
            fmt_f64(pccp.avg_candidates),
        ]);
    }
    vec![table]
}

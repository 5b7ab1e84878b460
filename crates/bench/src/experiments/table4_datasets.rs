//! Table 4: the six datasets, their divergences, page sizes and the
//! optimized number of partitions computed by the cost model.

use bregman::DivergenceKind;
use brepartition_core::{BrePartitionConfig, CostModel};
use datagen::PaperDataset;

use crate::report::Table;
use crate::runner::Workbench;

/// Reproduce Table 4 on the scaled proxies.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let mut table = Table::new(
        "Table 4 — datasets (scaled proxies) and optimized number of partitions M",
        &[
            "Dataset",
            "n (proxy)",
            "d (proxy)",
            "Measure",
            "Page size",
            "M (paper)",
            "M (cost model)",
        ],
    );
    for dataset in PaperDataset::ALL {
        let workload = bench.workload(dataset, 4);
        let paper = dataset.paper_spec();
        let paper_m: String = match dataset {
            PaperDataset::Audio => "28".into(),
            PaperDataset::Fonts => "50".into(),
            PaperDataset::Deep => "37".into(),
            PaperDataset::Sift => "22".into(),
            PaperDataset::Normal => "25".into(),
            PaperDataset::Uniform => "21".into(),
        };
        let fitted = match workload.kind {
            DivergenceKind::GeneralizedI => None,
            kind => {
                CostModel::fit(kind, &workload.dataset, BrePartitionConfig::default().seed).ok()
            }
        };
        let m = fitted
            .map(|model| model.optimal_partitions().to_string())
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            dataset.name().to_string(),
            workload.dataset.len().to_string(),
            workload.dataset.dim().to_string(),
            workload.kind.short_name().to_string(),
            format!("{} KB", paper.page_size_bytes / 1024),
            paper_m,
            m,
        ]);
    }
    vec![table]
}

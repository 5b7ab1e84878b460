//! Table 4: the six datasets, their divergences, page sizes and the
//! paper's optimized number of partitions.

use datagen::PaperDataset;

use crate::report::Table;
use crate::runner::Workbench;

/// Reproduce Table 4 on the scaled proxies.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let mut table = Table::new(
        "Table 4 — datasets (scaled proxies) and optimized number of partitions M",
        &["Dataset", "n (proxy)", "d (proxy)", "Measure", "Page size", "M (paper)"],
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
        table.row(vec![
            dataset.name().to_string(),
            workload.dataset.len().to_string(),
            workload.dataset.dim().to_string(),
            workload.kind.short_name().to_string(),
            format!("{} KB", paper.page_size_bytes / 1024),
            paper_m,
        ]);
    }
    vec![table]
}

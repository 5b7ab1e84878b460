//! One module per table/figure of the paper's evaluation (Section 9).
//!
//! Every module exposes `run(&Workbench) -> Vec<Table>`; [`run_all`] renders
//! the complete report.

pub mod fig10_pccp;
pub mod fig11_fig12_vs_k;
pub mod fig13_dimensionality;
pub mod fig14_datasize;
pub mod fig15_approximate;
pub mod fig7_construction;
pub mod fig8_fig9_partitions;
pub mod persistence;
pub mod table4_datasets;

use crate::report::Table;
use crate::runner::Workbench;
use crate::scale::Scale;

/// Run every experiment at the given scale and render a single markdown
/// report.
pub fn run_all(scale: Scale) -> String {
    let bench = Workbench::new(scale);
    let mut out = String::new();
    out.push_str("# BrePartition — reproduced evaluation\n\n");
    out.push_str(&format!(
        "Scale: up to {} points, {} queries per workload, dimensionality cap {}.\n\n",
        scale.max_points, scale.queries, scale.max_dim
    ));
    let sections: Vec<(&str, Vec<Table>)> = vec![
        ("Table 4 — datasets and optimized M", table4_datasets::run(&bench)),
        ("Fig. 7 — index construction time", fig7_construction::run(&bench)),
        ("Figs. 8 & 9 — impact of the number of partitions", fig8_fig9_partitions::run(&bench)),
        ("Fig. 10 — impact of PCCP", fig10_pccp::run(&bench)),
        ("Figs. 11 & 12 — I/O cost and running time vs k", fig11_fig12_vs_k::run(&bench)),
        ("Fig. 13 — impact of dimensionality", fig13_dimensionality::run(&bench)),
        ("Fig. 14 — impact of data size", fig14_datasize::run(&bench)),
        ("Fig. 15 — approximate solution", fig15_approximate::run(&bench)),
        ("Storage — index lifecycle: build vs save vs cold open", persistence::run(&bench)),
    ];
    for (title, tables) in sections {
        out.push_str(&format!("## {title}\n\n"));
        for table in tables {
            out.push_str(&table.to_markdown());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_smoke_test_at_tiny_scale() {
        let bench = Workbench::new(Scale::tiny());
        let tables = table4_datasets::run(&bench);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 6, "one row per dataset");
    }

    #[test]
    fn pccp_experiment_produces_rows_for_each_dataset() {
        let bench = Workbench::new(Scale::tiny());
        let tables = fig10_pccp::run(&bench);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 2);
    }
}

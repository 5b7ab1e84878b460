//! Cold-open vs rebuild: what the persistent index lifecycle buys.
//!
//! Not a figure of the paper: the paper treats index construction as an
//! offline phase amortized over many queries, which presumes the index can
//! be *reopened* rather than rebuilt on every process start. This experiment
//! drives **all four methods through the identical spec-driven lifecycle**
//! (`IndexSpec` → `Index::build` → `save` → `Index::open`) and measures the
//! cost of each phase — build from raw vectors, save to a self-describing
//! index directory, cold-open from that directory — verifying that the
//! reopened index answers a query batch with exactly the neighbors and
//! per-query physical I/O of the freshly built one.

use std::path::PathBuf;
use std::time::Instant;

use bregman::DivergenceKind;
use brepartition::{Index, IndexSpec, Request};
use brepartition_engine::EngineConfig;
use datagen::{HierarchicalSpec, QueryWorkload};

use crate::report::{fmt_f64, Table};
use crate::runner::Workbench;

const PAGE_SIZE: usize = 16 * 1024;
const K: usize = 10;

/// One method's lifecycle measurements.
struct LifecycleRow {
    method: &'static str,
    build_seconds: f64,
    save_seconds: f64,
    open_seconds: f64,
    index_bytes: u64,
    identical: bool,
}

/// Run the persistence experiment: build, save, cold-open and re-serve
/// every method through the façade.
pub fn run(bench: &Workbench) -> Vec<Table> {
    let kind = DivergenceKind::ItakuraSaito;
    let n = bench.scale.max_points.max(600);
    let dim = 24.min(bench.scale.max_dim);
    let dataset = HierarchicalSpec {
        n,
        dim,
        clusters: (n / 100).clamp(8, 24),
        blocks: (dim / 4).max(2),
        ..Default::default()
    }
    .generate();
    let batch_size = (bench.scale.queries * 8).clamp(32, 256);
    let workload = QueryWorkload::perturbed_from(&dataset, kind, batch_size, 0.02, 0x9E5);
    let queries: Vec<Vec<f64>> = workload.iter().map(|q| q.to_vec()).collect();

    let root = std::env::temp_dir()
        .join(format!("brepartition-persistence-experiment-{}", std::process::id()));
    let mut rows: Vec<LifecycleRow> = Vec::new();

    for (method, spec) in [
        ("BP", IndexSpec::brepartition(kind)),
        ("ABP", IndexSpec::approximate(kind)),
        ("BBT", IndexSpec::bbtree(kind)),
        ("VAF", IndexSpec::vafile(kind)),
    ] {
        let spec = spec
            .with_partitions(bench.paper_m(dim))
            .with_leaf_capacity(32)
            .with_page_size(PAGE_SIZE);

        let started = Instant::now();
        let built = Index::build(&spec, &dataset).expect("index build");
        let build_seconds = started.elapsed().as_secs_f64();

        let dir = root.join(method);
        let started = Instant::now();
        built.save(&dir).expect("index save");
        let save_seconds = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let reopened = Index::open(&dir).expect("index cold open");
        let open_seconds = started.elapsed().as_secs_f64();

        rows.push(LifecycleRow {
            method,
            build_seconds,
            save_seconds,
            open_seconds,
            index_bytes: dir_bytes(&dir),
            identical: batches_identical(&built, &reopened, &queries),
        });
    }

    let _ = std::fs::remove_dir_all(&root);

    let mut table = Table::new(
        format!("Index lifecycle — hierarchical ISD, n={n}, d={dim}, {batch_size} queries, k={K}"),
        &[
            "method",
            "build (s)",
            "save (s)",
            "cold open (s)",
            "open speedup",
            "index size (KB)",
            "reopened identical",
        ],
    );
    for row in rows {
        let speedup = if row.open_seconds > 0.0 {
            row.build_seconds / row.open_seconds
        } else {
            f64::INFINITY
        };
        table.row(vec![
            row.method.to_string(),
            fmt_f64(row.build_seconds),
            fmt_f64(row.save_seconds),
            fmt_f64(row.open_seconds),
            format!("{}x", fmt_f64(speedup)),
            fmt_f64(row.index_bytes as f64 / 1024.0),
            if row.identical { "yes".to_string() } else { "NO".to_string() },
        ]);
    }
    vec![table]
}

/// Run the same batch on the built and the reopened index and compare
/// neighbors, candidates and per-query physical I/O.
fn batches_identical(built: &Index, reopened: &Index, queries: &[Vec<f64>]) -> bool {
    let request = Request::uniform(queries, K);
    let config = EngineConfig::default().with_threads(2);
    let a = built.run_with(&request, config).expect("built batch");
    let b = reopened.run_with(&request, config).expect("reopened batch");
    a.outcomes
        .iter()
        .zip(b.outcomes.iter())
        .all(|(x, y)| x.neighbors == y.neighbors && x.io == y.io && x.candidates == y.candidates)
}

/// Total size of every file in an index directory.
fn dir_bytes(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(|e| e.ok()).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn lifecycle_rows_cover_all_methods_and_roundtrips_are_identical() {
        let bench = Workbench::new(Scale::tiny());
        let tables = run(&bench);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 4); // BP, ABP, BBT, VAF
        let rendered = tables[0].to_markdown();
        assert!(!rendered.contains("| NO |"), "a reopened index diverged:\n{rendered}");
    }
}

//! Build once, serve many: the persistent index lifecycle through the
//! spec-driven façade.
//!
//! A serving deployment cannot afford to rebuild its indexes from raw
//! vectors on every process start — index construction is an offline phase,
//! amortized over many queries. This example walks the full lifecycle for
//! **all four methods through the identical code path**:
//!
//! 1. **Build** each index from the same `IndexSpec` template (only the
//!    method, and ABP's probability, vary).
//! 2. **Save** every index to its own directory: backend artifacts plus a
//!    sealed spec envelope recording method + divergence + knobs.
//! 3. **Cold-open** the directories as a fresh serving process would — with
//!    `Index::open(dir)` alone; the envelope says what each directory
//!    holds, so there is no caller-side method or divergence dispatch.
//! 4. **Serve** a query batch on both copies and verify the reopened
//!    indexes return identical neighbors with identical physical I/O.
//!
//! ```bash
//! cargo run --release --example persistent_serving
//! ```

use std::time::Instant;

use brepartition::prelude::*;

fn main() {
    let kind = DivergenceKind::ItakuraSaito;
    let k = 10;

    // An Itakura-Saito corpus of spectral-envelope-like vectors.
    let corpus = HierarchicalSpec {
        n: 4_000,
        dim: 48,
        clusters: 20,
        blocks: 8,
        base_scale: 3.0,
        ..Default::default()
    }
    .generate();
    let queries: Vec<Vec<f64>> = QueryWorkload::perturbed_from(&corpus, kind, 128, 0.02, 77)
        .iter()
        .map(|q| q.to_vec())
        .collect();
    let root = std::env::temp_dir()
        .join(format!("brepartition-persistent-serving-{}", std::process::id()));

    println!("# Persistent serving: build once, open many\n");
    println!(
        "corpus: {} points x {} dims under {kind}, {} queries, k={k}\n",
        corpus.len(),
        corpus.dim(),
        queries.len()
    );

    // ── 1+2. Offline phase: one loop builds and saves all four methods. ──
    let methods = [
        ("BP", IndexSpec::brepartition(kind)),
        ("ABP", IndexSpec::approximate(kind)),
        ("BBT", IndexSpec::bbtree(kind)),
        ("VAF", IndexSpec::vafile(kind)),
    ];
    let mut built: Vec<Index> = Vec::new();
    for (method, spec) in methods {
        let spec = spec.with_partitions(8).with_leaf_capacity(32).with_page_size(16 * 1024);
        let started = Instant::now();
        let index = Index::build(&spec, &corpus).expect("build index");
        let build_time = started.elapsed();
        let dir = root.join(method);
        let started = Instant::now();
        index.save(&dir).expect("save index");
        println!(
            "offline: built {method:<3} in {:>8.2?}, saved to {} in {:.2?}",
            build_time,
            dir.display(),
            started.elapsed()
        );
        built.push(index);
    }

    // ── 3. Serving phase: cold-open every directory, no dispatch. ───────
    let started = Instant::now();
    let reopened: Vec<Index> = methods
        .iter()
        .map(|(method, _)| Index::open(&root.join(method)).expect("cold open"))
        .collect();
    println!(
        "\nserving: cold-opened all four directories in {:.2?}; each envelope \
         self-describes its method and divergence\n",
        started.elapsed()
    );

    // ── 4. Drive batches and check the reopened copies answer verbatim. ──
    for ((method, _), (built_index, reopened_index)) in
        methods.iter().zip(built.iter().zip(reopened.iter()))
    {
        assert_eq!(built_index.spec(), reopened_index.spec(), "envelope restored the spec");
        let request = Request::uniform(&queries, k);
        let engine_config = EngineConfig::default().with_threads(4);
        let a = built_index.run_with(&request, engine_config).expect("batch on built index");
        let b = reopened_index.run_with(&request, engine_config).expect("batch on reopened index");
        let identical = a
            .outcomes
            .iter()
            .zip(b.outcomes.iter())
            .all(|(x, y)| x.neighbors == y.neighbors && x.io == y.io);
        let pages: u64 = b.outcomes.iter().map(|o| o.io.pages_read).sum();
        println!(
            "  {method:>3}: reopened index identical to built index: {} — {} queries, \
             {pages} pages read",
            if identical { "yes" } else { "NO" },
            b.outcomes.len()
        );
        assert!(identical, "reopened index diverged from the built index");
    }

    std::fs::remove_dir_all(&root).expect("clean up index directories");
    println!("\ndone; removed {}", root.display());
}

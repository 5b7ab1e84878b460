//! Quickstart: describe an index with a spec, build it, query it, persist
//! it.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use brepartition::prelude::*;

fn main() {
    // 1. Generate a small, strictly positive dataset (1,000 points of 64
    //    dimensions) with the hierarchical generator used by the evaluation
    //    proxies. Real applications would load their own feature vectors
    //    into a `DenseDataset`.
    let data =
        HierarchicalSpec { n: 1_000, dim: 64, clusters: 20, blocks: 8, ..Default::default() }
            .generate();
    println!("dataset: {} points x {} dimensions", data.len(), data.dim());

    // 2. Describe the index: the BrePartition method under the
    //    Itakura-Saito divergence. The default is one partition: a single
    //    full-dimensional BB-tree searched with a radius seeded from the
    //    query's nearest tree node, which the paper's cost model prices
    //    below any larger M (`with_partitions` sets another M, and PCCP
    //    then assigns dimensions to partitions). Swapping
    //    `Method::BBTree` or `Method::VaFile` into the same spec builds a
    //    baseline instead — nothing else changes.
    let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
        .with_page_size(16 * 1024)
        .with_leaf_capacity(32);
    let index = Index::build(&spec, &data).expect("index construction");
    println!(
        "index built: method {}, divergence {}, {} points x {} dims",
        index.method(),
        index.divergence(),
        index.len(),
        index.dim()
    );

    // 3. Run a few exact kNN queries and report the paper's metrics:
    //    candidate-set size, I/O cost (page reads) and latency.
    let workload = QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, 5, 0.02, 7);
    for (qi, query) in workload.iter().enumerate() {
        let result = index.query(&QueryRequest::new(query, 10)).expect("query");
        let best = result.neighbors.first().expect("at least one neighbour");
        println!(
            "query {qi}: 1-NN = {} (divergence {:.4}) | {} candidates, {} page reads, {:.3} ms",
            best.0,
            best.1,
            result.candidates,
            result.io.pages_read,
            result.latency_seconds * 1e3,
        );
    }

    // 4. Persist and reopen: the directory is self-describing (the spec
    //    envelope records method + divergence), so `Index::open` needs no
    //    caller-side dispatch.
    let dir = std::env::temp_dir().join(format!("brepartition-quickstart-{}", std::process::id()));
    index.save(&dir).expect("save index");
    let reopened = Index::open(&dir).expect("open index");
    println!(
        "\nreopened from {}: method {} under {} (read from the envelope)",
        dir.display(),
        reopened.method(),
        reopened.divergence()
    );

    // 5. Verify one query against brute force to demonstrate exactness.
    let query = data.row(123);
    let exact = ground_truth_knn(
        DivergenceKind::ItakuraSaito,
        &data,
        &DenseDataset::from_rows(&[query.to_vec()]).unwrap(),
        10,
        1,
    );
    let indexed = reopened.query(&QueryRequest::new(query, 10)).unwrap();
    let same =
        indexed.neighbors.iter().zip(exact.neighbors_of(0)).all(|(a, b)| (a.1 - b.1).abs() < 1e-9);
    println!("exactness check against linear scan: {}", if same { "OK" } else { "MISMATCH" });
    std::fs::remove_dir_all(&dir).expect("clean up");
}

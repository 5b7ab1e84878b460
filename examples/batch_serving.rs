//! Multi-divergence batch serving with the concurrent query engine.
//!
//! A serving deployment rarely answers one query at a time: requests arrive
//! as batches, often against several corpora with different divergences.
//! This example stands up two corpora — spectral envelopes under the
//! Itakura-Saito distance and embedding-style vectors under the exponential
//! distance — through the identical spec-driven façade, and drives query
//! batches on one thread and on all cores, printing each batch's wall time,
//! QPS, rows scored and pages read. The batch itself mixes per-query `k`s:
//! real request streams are not uniform.
//!
//! ```bash
//! cargo run --release --example batch_serving
//! ```

use std::time::Instant;

use brepartition::prelude::*;

/// Run a batch and print its wall time, QPS, rows scored and pages read.
fn run_and_print(label: &str, index: &Index, request: &Request<'_>, config: EngineConfig) {
    let started = Instant::now();
    let batch = index.run_with(request, config).unwrap();
    let seconds = started.elapsed().as_secs_f64();
    let queries = batch.outcomes.len();
    let scored: usize = batch.outcomes.iter().map(|o| o.candidates).sum();
    let pages: u64 = batch.outcomes.iter().map(|o| o.io.pages_read).sum();
    println!(
        "  {label}: {queries} queries in {seconds:.3}s — {:.0} QPS, \
         {:.1} rows scored/query, {:.1} page reads/query",
        queries as f64 / seconds,
        scored as f64 / queries as f64,
        pages as f64 / queries as f64
    );
}

fn serve(corpus: &str, kind: DivergenceKind, data: &DenseDataset, queries: &[Vec<f64>], k: usize) {
    let cores = brepartition::engine::recommended_pool_threads();
    println!(
        "## {corpus}: {} points x {} dims, divergence {kind}, batch of {} queries, k={k}",
        data.len(),
        data.dim(),
        queries.len()
    );
    // Exact and approximate BrePartition through the same spec API. The
    // exact index also serves the mixed-k batch below — build it once.
    let mut exact_index = None;
    for (method, spec) in
        [("BP", IndexSpec::brepartition(kind)), ("ABP", IndexSpec::approximate(kind))]
    {
        let spec = spec.with_partitions((data.dim() / 7).clamp(2, 16)).with_page_size(16 * 1024);
        let index = Index::build(&spec, data).unwrap();
        for threads in [1, cores] {
            let config = EngineConfig::default().with_threads(threads);
            let label = format!("{method}, threads = {threads}");
            run_and_print(&label, &index, &Request::uniform(queries, k), config);
        }
        if method == "BP" {
            exact_index = Some(index);
        }
    }

    // Heterogeneous batch: every fourth query wants a deeper result list.
    let index = exact_index.expect("exact index built above");
    let mixed = Request::batch(
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryRequest::new(q, if i % 4 == 0 { 3 * k } else { k })),
    );
    let label = format!("BP mixed-k batch (k = {k} and {})", 3 * k);
    run_and_print(&label, &index, &mixed, EngineConfig::default());
    println!();
}

fn main() {
    let k = 10;
    let batch = 256;

    // Corpus 1: positive spectral envelopes, Itakura-Saito distance.
    let speech = HierarchicalSpec {
        n: 3_000,
        dim: 64,
        clusters: 24,
        blocks: 8,
        base_scale: 4.0,
        ..Default::default()
    }
    .generate();
    let speech_queries: Vec<Vec<f64>> =
        QueryWorkload::perturbed_from(&speech, DivergenceKind::ItakuraSaito, batch, 0.02, 41)
            .iter()
            .map(|q| q.to_vec())
            .collect();

    // Corpus 2: embedding-style vectors, exponential distance.
    let embeddings =
        HierarchicalSpec { n: 3_000, dim: 48, clusters: 16, blocks: 6, ..Default::default() }
            .generate();
    let embedding_queries: Vec<Vec<f64>> =
        QueryWorkload::perturbed_from(&embeddings, DivergenceKind::Exponential, batch, 0.02, 42)
            .iter()
            .map(|q| q.to_vec())
            .collect();

    println!("# Batch serving across divergences\n");
    serve("speech", DivergenceKind::ItakuraSaito, &speech, &speech_queries, k);
    serve("embeddings", DivergenceKind::Exponential, &embeddings, &embedding_queries, k);
}

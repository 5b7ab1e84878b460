//! Partition tuning: the M sweep around the default M = 1 and the PCCP
//! ablation.
//!
//! Reproduces, on a laptop-scale workload, the two design experiments of the
//! paper's Section 9.3: the trade-off between the number of partitions `M`
//! and query cost (Figs. 8–9), and the effect of PCCP versus a naive equal
//! split (Fig. 10) — every configuration described by an `IndexSpec` and
//! built through the same `Index::build` call.
//!
//! ```bash
//! cargo run --release --example partition_tuning
//! ```

use brepartition::prelude::*;

fn main() {
    let n = 3_000;
    let dim = 96;
    let k = 20;
    let query_count = 10;

    let data = HierarchicalSpec {
        n,
        dim,
        clusters: 30,
        blocks: 12,
        base_scale: 5.0,
        ..Default::default()
    }
    .generate();
    let workload =
        QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, query_count, 0.02, 21);

    // The default spec builds one partition: with the seeded search radius
    // the per-subspace radii sum to at least the radius, so M > 1 never
    // keeps fewer candidates and always adds a bound pass.
    let default_m = IndexSpec::brepartition(DivergenceKind::ItakuraSaito).partitions;
    println!("default M = {default_m}\n");

    // Average query cost of one spec over the workload.
    let run_spec = |spec: &IndexSpec| -> (f64, f64, f64) {
        let index = Index::build(spec, &data).unwrap();
        let mut io = 0u64;
        let mut candidates = 0usize;
        let mut seconds = 0.0;
        for query in workload.iter() {
            let result = index.query(&QueryRequest::new(query, k)).unwrap();
            io += result.io.pages_read;
            candidates += result.candidates;
            seconds += result.latency_seconds;
        }
        let q = query_count as f64;
        (io as f64 / q, candidates as f64 / q, seconds * 1e3 / q)
    };

    // Sweep M upward from the default (the paper's Figs. 8 and 9).
    println!("{:>4} {:>14} {:>16} {:>14}", "M", "avg I/O", "avg candidates", "avg time (ms)");
    for m in [1usize, 2, 4, 8, 12, 16, 24, 32] {
        let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
            .with_partitions(m)
            .with_page_size(16 * 1024);
        let (io, candidates, ms) = run_spec(&spec);
        println!("{m:>4} {io:>14.1} {candidates:>16.1} {ms:>14.3}");
    }

    // PCCP vs the naive equal split at the paper's M ≈ d/7 (the Fig. 10
    // ablation; at M = 1 both strategies give the one trivial partition).
    let ablation_m = dim / 7;
    println!(
        "\n{:<18} {:>14} {:>16}",
        format!("strategy (M = {ablation_m})"),
        "avg I/O",
        "avg candidates"
    );
    for (name, strategy) in [
        ("PCCP", PartitionStrategy::Pccp),
        ("equal/contiguous", PartitionStrategy::EqualContiguous),
    ] {
        let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
            .with_partitions(ablation_m)
            .with_strategy(strategy)
            .with_page_size(16 * 1024);
        let (io, candidates, _) = run_spec(&spec);
        println!("{name:<18} {io:>14.1} {candidates:>16.1}");
    }
}

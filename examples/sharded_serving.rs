//! The sharded scatter-gather serving tier end to end: a `ShardedIndex`
//! over disjoint slices serving bit-identically to its unsharded
//! equivalent, routed writes, per-shard compaction and the sharded
//! directory layout.
//!
//! ```bash
//! cargo run --release --example sharded_serving
//! ```

use std::time::Instant;

use brepartition::prelude::*;

/// One line per tier: wall time, rows scored and pages read over a batch.
fn describe(outcomes: &[QueryOutcome], seconds: f64) -> String {
    let scored: usize = outcomes.iter().map(|o| o.candidates).sum();
    let pages: u64 = outcomes.iter().map(|o| o.io.pages_read).sum();
    format!("{} queries in {seconds:.3}s, {scored} rows scored, {pages} pages read", outcomes.len())
}

fn main() -> brepartition::Result<()> {
    println!("# Sharded serving: disjoint slices behind one API\n");

    let data =
        HierarchicalSpec { n: 3_000, dim: 24, clusters: 12, blocks: 6, ..Default::default() }
            .generate();
    let kind = DivergenceKind::ItakuraSaito;
    let base = IndexSpec::brepartition(kind).with_partitions(6).with_page_size(8 * 1024);

    // ------------------------------------------------------------------
    // Each point lives on exactly one of 4 shards, chosen by a
    // deterministic hash of its external id. For exact methods the
    // scatter-gather merge returns *bit-identical* answers to one big
    // unsharded index — sharding is purely an operational decision.
    // ------------------------------------------------------------------
    let plain = Index::build(&base, &data)?;
    let sharded = ShardedIndex::build(&ShardSpec::capacity(base, 4), &data)?;
    println!(
        "sharded tier: {} points over {} shards (largest shard {})",
        sharded.len(),
        sharded.shards(),
        (0..sharded.shards()).map(|s| sharded.shard(s).len()).max().unwrap()
    );

    let workload = QueryWorkload::perturbed_from(&data, kind, 256, 0.05, 0x5EED);
    let queries: Vec<Vec<f64>> = workload.iter().map(|q| q.to_vec()).collect();
    let request = Request::uniform(&queries, 10);
    let started = Instant::now();
    let reference = plain.run(&request)?;
    let plain_seconds = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let fanned = sharded.run_with_budget(&request, 4)?;
    let sharded_seconds = started.elapsed().as_secs_f64();
    for (a, b) in reference.outcomes.iter().zip(fanned.outcomes.iter()) {
        assert_eq!(a.neighbors.len(), b.neighbors.len());
        for ((ia, da), (ib, db)) in a.neighbors.iter().zip(b.neighbors.iter()) {
            assert_eq!(ia, ib, "capacity mode must match the unsharded index");
            assert_eq!(da.to_bits(), db.to_bits(), "…down to the distance bits");
        }
    }
    println!("unsharded — {}", describe(&reference.outcomes, plain_seconds));
    println!("sharded   — {}", describe(&fanned.outcomes, sharded_seconds));
    println!("all 256 answers bit-identical across the two tiers\n");

    // Writes route by the same hash; external ids stay global and stable
    // across per-shard compaction.
    let fresh: Vec<f64> = data.row(0).iter().map(|v| v * 1.01 + 0.05).collect();
    let id = sharded.insert(&fresh)?;
    assert_eq!(sharded.query(&QueryRequest::new(&fresh, 1))?.neighbors[0].0, id);
    assert!(sharded.delete(PointId(17))?);
    sharded.compact()?;
    assert_eq!(sharded.query(&QueryRequest::new(&fresh, 1))?.neighbors[0].0, id);
    println!("routed insert {id} + delete survive per-shard compaction");

    // Persist the whole tier: one subdirectory per shard plus a sealed
    // `shards.meta` envelope; `ShardedIndex::open` is self-describing.
    let dir = std::env::temp_dir().join(format!("brepartition-sharded-{}", std::process::id()));
    sharded.save(&dir)?;
    let reopened = ShardedIndex::open(&dir)?;
    assert_eq!(reopened.len(), sharded.len());
    assert_eq!(reopened.query(&QueryRequest::new(&fresh, 1))?.neighbors[0].0, id);
    println!("saved + reopened from {} ({} shards)", dir.display(), reopened.shards());
    std::fs::remove_dir_all(&dir).ok();

    println!("\ndone.");
    Ok(())
}

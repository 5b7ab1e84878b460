//! Online mutability end to end: build an index, insert and delete while
//! serving, compact, persist, reopen — the LSM-style delta layer through
//! the façade API.
//!
//! ```bash
//! cargo run --release --example mutable_serving
//! ```

use brepartition::prelude::*;

fn main() -> brepartition::Result<()> {
    println!("# Mutable serving: insert/delete/compact over a static backend\n");

    let data =
        HierarchicalSpec { n: 2_000, dim: 24, clusters: 12, blocks: 6, ..Default::default() }
            .generate();
    let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
        .with_partitions(6)
        .with_page_size(8 * 1024);
    let index = Index::build(&spec, &data)?;
    println!("built {} over {} points", index.method(), index.len());

    // A fresh document arrives and is immediately searchable, under a
    // stable external id that will survive every compaction below.
    let fresh: Vec<f64> = data.row(0).iter().map(|v| v * 1.01 + 0.05).collect();
    let id = index.insert(&fresh)?;
    let hit = index.query(&QueryRequest::new(&fresh, 1))?;
    assert_eq!(hit.neighbors[0].0, id, "the insert must be its own 1-NN");
    println!("inserted {id} — immediately served as its own nearest neighbor");

    // Retire a few points; they vanish from results at once, storage is
    // reclaimed later by compaction.
    for raw in [3u32, 77, 1500] {
        assert!(index.delete(PointId(raw))?);
    }
    println!(
        "after deletes: {} live points ({} delta rows, {} tombstones pending)",
        index.len(),
        index.delta().delta_rows(),
        index.delta().tombstone_count()
    );

    // Batch serving runs over a consistent snapshot of the mutable state.
    let queries: Vec<Vec<f64>> = (0..128).map(|i| data.row(i * 31 % data.len()).to_vec()).collect();
    let batch = index.run(&Request::uniform(&queries, 10))?;
    let scored: usize = batch.outcomes.iter().map(|o| o.candidates).sum();
    println!("snapshot batch — {} queries, {scored} rows scored", batch.outcomes.len());

    // Compaction folds the delta into a rebuilt backend; the external id
    // issued above keeps resolving.
    index.compact()?;
    let hit = index.query(&QueryRequest::new(&fresh, 1))?;
    assert_eq!(hit.neighbors[0].0, id, "external ids survive compaction");
    println!("compacted to {} live points; {id} still resolves", index.len());

    // Persist → reopen: the delta log travels with the directory.
    let more = index.insert(&data.row(9).iter().map(|v| v + 0.5).collect::<Vec<f64>>())?;
    let dir = std::env::temp_dir().join(format!("brepartition-mutable-{}", std::process::id()));
    index.save(&dir)?;
    let reopened = Index::open(&dir)?;
    assert_eq!(reopened.len(), index.len());
    assert!(reopened.delta().is_live(more));
    println!("reopened {} live points from {} (delta log replayed)", reopened.len(), dir.display());
    std::fs::remove_dir_all(&dir).map_err(PersistError::from)?;
    println!("\ndone");
    Ok(())
}

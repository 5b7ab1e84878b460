//! Persistence round-trips: for all four backends, save → open must
//! reproduce *identical* kNN neighbor sets and identical cold-pool I/O
//! counters over a seeded 256-query workload — the acceptance criterion of
//! the pluggable-storage refactor. Extends the seeded harness style of
//! `tests/engine_determinism.rs`.

mod common;

use std::sync::Arc;

use brepartition::prelude::*;
use common::TempDir;

fn hierarchical_workload(n: usize, queries: usize) -> (DenseDataset, Vec<Vec<f64>>) {
    let data =
        HierarchicalSpec { n, dim: 24, clusters: 12, blocks: 6, ..Default::default() }.generate();
    let workload =
        QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, queries, 0.02, 0xD15C);
    let queries: Vec<Vec<f64>> = workload.iter().map(|q| q.to_vec()).collect();
    (data, queries)
}

fn build_index(data: &DenseDataset) -> BrePartitionIndex {
    BrePartitionIndex::build(
        DivergenceKind::ItakuraSaito,
        data,
        &BrePartitionConfig::default()
            .with_partitions(6)
            .with_leaf_capacity(16)
            .with_page_size(4096),
    )
    .unwrap()
}

/// Run the batch on both backends and demand bit-identical neighbors,
/// candidates and per-query cold-pool I/O.
fn assert_identical_serving(
    name: &str,
    built: Arc<dyn SearchBackend>,
    reopened: Arc<dyn SearchBackend>,
    queries: &[Vec<f64>],
    k: usize,
) {
    assert_eq!(built.len(), reopened.len(), "{name}: point count");
    assert_eq!(built.dim(), reopened.dim(), "{name}: dimensionality");
    let config = EngineConfig::default().with_threads(4);
    let a = QueryEngine::with_config(built, config).unwrap().run_batch(queries, k).unwrap();
    let b = QueryEngine::with_config(reopened, config).unwrap().run_batch(queries, k).unwrap();
    for (qi, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        assert_eq!(x.neighbors, y.neighbors, "{name} query {qi}: neighbors diverged");
        assert_eq!(x.candidates, y.candidates, "{name} query {qi}: candidate count diverged");
        assert_eq!(x.io, y.io, "{name} query {qi}: cold-pool I/O diverged");
    }
}

/// Acceptance criterion: a BrePartition index saved to a file-backed store
/// and reopened answers the 256-query determinism suite with neighbor sets
/// and I/O counts identical to the freshly built in-memory index.
#[test]
fn brepartition_save_open_roundtrip_over_256_queries() {
    let (data, queries) = hierarchical_workload(2_000, 256);
    assert!(queries.len() >= 256);
    let index = build_index(&data);
    let dir = TempDir::new("roundtrip-bp");
    index.save(&dir).unwrap();

    let reopened = BrePartitionIndex::open(&dir).unwrap();
    assert_eq!(reopened.forest().store().backend_kind(), "file");
    assert_eq!(index.forest().store().backend_kind(), "memory");

    assert_identical_serving(
        "BP",
        Arc::new(BrePartitionBackend::exact(index)),
        Arc::new(BrePartitionBackend::exact(reopened)),
        &queries,
        10,
    );
}

/// The approximate backend reads the same persisted state (transforms and
/// per-dimension moments), so ABP must round-trip identically too.
#[test]
fn approximate_backend_roundtrips_over_256_queries() {
    let (data, queries) = hierarchical_workload(1_200, 256);
    let index = build_index(&data);
    let dir = TempDir::new("roundtrip-abp");
    index.save(&dir).unwrap();
    let approx = ApproximateConfig::with_probability(0.9);
    let reopened = BrePartitionIndex::open(&dir).unwrap();

    assert_identical_serving(
        "ABP",
        Arc::new(BrePartitionBackend::approximate(index, approx)),
        Arc::new(BrePartitionBackend::approximate(reopened, approx)),
        &queries,
        10,
    );
}

/// Both baselines round-trip through their own index directories (saved
/// through the [`SearchBackend`] trait, reopened through the façade).
#[test]
fn baseline_backends_roundtrip() {
    let (data, queries) = hierarchical_workload(800, 64);
    let kind = DivergenceKind::ItakuraSaito;
    let root = TempDir::new("roundtrip-baselines");

    let bbt =
        Index::build(&IndexSpec::bbtree(kind).with_leaf_capacity(16).with_page_size(4096), &data)
            .unwrap();
    bbt.save(&root.join("bbt")).unwrap();
    let bbt_reopened = Index::open(&root.join("bbt")).unwrap();
    assert_identical_serving("BBT", bbt.backend(), bbt_reopened.backend(), &queries, 8);

    let vaf = Index::build(&IndexSpec::vafile(kind), &data).unwrap();
    vaf.save(&root.join("vaf")).unwrap();
    let vaf_reopened = Index::open(&root.join("vaf")).unwrap();
    assert_identical_serving("VAF", vaf.backend(), vaf_reopened.backend(), &queries, 8);
}

/// A reopened index must keep answering exactly after a save → open → save →
/// open chain (the file backend can serialize itself).
#[test]
fn double_roundtrip_is_stable() {
    let (data, queries) = hierarchical_workload(600, 32);
    let index = build_index(&data);
    let root = TempDir::new("roundtrip-double");
    index.save(&root.join("first")).unwrap();
    let once = BrePartitionIndex::open(&root.join("first")).unwrap();
    once.save(&root.join("second")).unwrap();
    let twice = BrePartitionIndex::open(&root.join("second")).unwrap();

    assert_identical_serving(
        "BP²",
        Arc::new(BrePartitionBackend::exact(once)),
        Arc::new(BrePartitionBackend::exact(twice)),
        &queries,
        10,
    );
}

/// Sanity: the persisted artifacts detect corruption instead of serving
/// wrong answers.
#[test]
fn corrupted_index_directory_is_rejected() {
    let (data, _) = hierarchical_workload(400, 8);
    let index = build_index(&data);
    let dir = TempDir::new("roundtrip-corrupt");
    index.save(&dir).unwrap();
    let pages = dir.join("pages.bin");
    let mut bytes = std::fs::read(&pages).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    std::fs::write(&pages, &bytes).unwrap();
    assert!(BrePartitionIndex::open(&dir).is_err(), "flipped page byte must fail the checksum");
}

/// Delta persistence: for every method, an index carrying a non-empty
/// delta (fresh inserts *and* tombstones on both the backend and the delta
/// side) must save → open to identical neighbor ids and distances, and a
/// directory whose delta log is missing (a save torn after `spec.meta`)
/// must be refused rather than served with the pending writes lost.
#[test]
fn delta_state_roundtrips_for_all_four_methods() {
    let (data, queries) = hierarchical_workload(400, 24);
    let root = TempDir::new("roundtrip-delta");

    let kind = DivergenceKind::ItakuraSaito;
    for (method, spec) in [
        ("BP", IndexSpec::brepartition(kind)),
        ("ABP", IndexSpec::approximate(kind)),
        ("BBT", IndexSpec::bbtree(kind)),
        ("VAF", IndexSpec::vafile(kind)),
    ] {
        let spec = spec.with_partitions(4).with_leaf_capacity(16).with_page_size(4096);
        let index = Index::build(&spec, &data).unwrap();

        // Writes: 12 inserts derived from (but distinct from) data rows,
        // then tombstones on two backend points and two delta rows.
        let mut inserted = Vec::new();
        for i in 0..12usize {
            let row: Vec<f64> =
                data.row(i * 17 % data.len()).iter().map(|v| v * 1.05 + 0.1).collect();
            inserted.push(index.insert(&row).unwrap());
        }
        for id in [PointId(3), PointId(250), inserted[2], inserted[7]] {
            assert!(index.delete(id).unwrap(), "{method}: {id} should have been live");
        }
        assert_eq!(index.len(), data.len() + 12 - 4, "{method}");

        let dir = root.join(method);
        index.save(&dir).unwrap();
        let reopened = Index::open(&dir).unwrap();
        assert_eq!(reopened.len(), index.len(), "{method}: live count");
        assert_eq!(reopened.delta().delta_rows(), 12, "{method}: delta rows");
        assert_eq!(reopened.delta().tombstone_count(), 4, "{method}: tombstones");
        for (qi, q) in queries.iter().enumerate() {
            let a = index.query(&QueryRequest::new(q, 8)).unwrap();
            let b = reopened.query(&QueryRequest::new(q, 8)).unwrap();
            assert_eq!(a.neighbors, b.neighbors, "{method} query {qi}: merged results diverged");
        }

        // Without the log, opening would lose the 12 inserts and revive
        // the 4 deleted points: it must fail with a typed error instead.
        std::fs::remove_file(dir.join(brepartition::DELTA_FILE)).unwrap();
        match Index::open(&dir) {
            Err(Error::Persist(PersistError::Io(e))) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{method}")
            }
            Err(e) => panic!("{method}: expected a missing-file persistence error, got {e}"),
            Ok(_) => panic!("{method}: a directory without its delta log must not open"),
        }
    }
}

/// A compacted index (non-identity id mapping) must also round-trip: the
/// mapping travels in the delta log, so reopened queries keep returning
/// the stable external ids.
#[test]
fn compacted_id_mapping_roundtrips() {
    let (data, queries) = hierarchical_workload(400, 16);
    let index = Index::build(
        &IndexSpec::bbtree(DivergenceKind::ItakuraSaito)
            .with_leaf_capacity(16)
            .with_page_size(4096),
        &data,
    )
    .unwrap();
    for id in [7u32, 100, 399] {
        assert!(index.delete(PointId(id)).unwrap());
    }
    let extra: Vec<f64> = data.row(5).iter().map(|v| v * 1.1 + 0.2).collect();
    let extra_id = index.insert(&extra).unwrap();
    index.compact().unwrap();
    assert!(!index.delta().is_trivial(), "deletes shift ids: the mapping must be explicit");
    assert!(!index.delta().has_pending_writes(), "compaction drains the delta");

    let dir = TempDir::new("roundtrip-delta-compacted");
    index.save(&dir).unwrap();
    let reopened = Index::open(&dir).unwrap();
    assert_eq!(reopened.len(), index.len());
    for (qi, q) in queries.iter().enumerate() {
        let a = index.query(&QueryRequest::new(q, 8)).unwrap();
        let b = reopened.query(&QueryRequest::new(q, 8)).unwrap();
        assert_eq!(a.neighbors, b.neighbors, "query {qi}");
        for (id, _) in &b.neighbors {
            assert!(!matches!(id.0, 7 | 100 | 399), "query {qi}: a compacted-away id resurfaced");
        }
    }
    // The stable external id of the inserted row still resolves.
    assert!(index.delta().is_live(extra_id));
    assert!(reopened.delta().is_live(extra_id));
}

/// Corruption and truncation of the delta log are rejected with
/// descriptive errors — never replayed into wrong answers.
#[test]
fn corrupted_or_truncated_delta_log_is_rejected_descriptively() {
    let (data, _) = hierarchical_workload(300, 4);
    let index = Index::build(
        &IndexSpec::bbtree(DivergenceKind::ItakuraSaito)
            .with_leaf_capacity(16)
            .with_page_size(4096),
        &data,
    )
    .unwrap();
    let row: Vec<f64> = data.row(0).iter().map(|v| v + 0.25).collect();
    index.insert(&row).unwrap();
    index.delete(PointId(1)).unwrap();
    let dir = TempDir::new("roundtrip-delta-corrupt");
    index.save(&dir).unwrap();
    let path = dir.join(brepartition::DELTA_FILE);
    let pristine = std::fs::read(&path).unwrap();

    // A flipped payload byte fails the checksum.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x20;
    std::fs::write(&path, &flipped).unwrap();
    match Index::open(&dir) {
        Err(e) => {
            let message = e.to_string();
            assert!(message.contains("checksum"), "undescriptive error: {message}");
        }
        Ok(_) => panic!("a corrupted delta log must not open"),
    }

    // A truncated log is structurally rejected.
    std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
    match Index::open(&dir) {
        Err(e) => {
            let message = e.to_string();
            assert!(
                message.contains("mismatch") || message.contains("corrupt"),
                "undescriptive error: {message}"
            );
        }
        Ok(_) => panic!("a truncated delta log must not open"),
    }

    // The pristine log restores openability.
    std::fs::write(&path, &pristine).unwrap();
    assert!(Index::open(&dir).is_ok());
}

/// A mutated sharded index (routed inserts, deletes, one compaction)
/// round-trips through its directory layout to bit-identical serving, and
/// the sealed shard envelope rejects tampering the same way the per-shard
/// `spec.meta` does.
#[test]
fn sharded_directory_roundtrips_and_rejects_tampering() {
    let (data, queries) = hierarchical_workload(500, 32);
    let spec = ShardSpec::capacity(
        IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
            .with_partitions(4)
            .with_leaf_capacity(16)
            .with_page_size(4096),
        3,
    );
    let index = ShardedIndex::build(&spec, &data).unwrap();
    for i in 0..9usize {
        let row: Vec<f64> = data.row(i * 31 % data.len()).iter().map(|v| v * 1.04 + 0.1).collect();
        index.insert(&row).unwrap();
    }
    for id in [PointId(2), PointId(data.len() as u32 + 4)] {
        assert!(index.delete(id).unwrap());
    }
    index.compact().unwrap();

    let dir = TempDir::new("roundtrip-sharded");
    index.save(&dir).unwrap();
    let reopened = ShardedIndex::open(&dir).unwrap();
    assert_eq!(reopened.len(), index.len());
    assert_eq!(reopened.shards(), 3);
    for (qi, q) in queries.iter().enumerate() {
        let a = index.query(&QueryRequest::new(q, 8)).unwrap();
        let b = reopened.query(&QueryRequest::new(q, 8)).unwrap();
        assert_eq!(a.neighbors.len(), b.neighbors.len(), "query {qi}");
        for (rank, ((ga, da), (gb, db))) in a.neighbors.iter().zip(b.neighbors.iter()).enumerate() {
            assert_eq!(ga, gb, "query {qi} rank {rank}: ids across the round-trip");
            assert_eq!(da.to_bits(), db.to_bits(), "query {qi} rank {rank}: distance bits");
        }
    }

    // A flipped byte in the sealed shard envelope fails its checksum.
    let envelope_path = dir.join(brepartition::SHARDS_FILE);
    let pristine = std::fs::read(&envelope_path).unwrap();
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    std::fs::write(&envelope_path, &flipped).unwrap();
    match ShardedIndex::open(&dir) {
        Err(e) => assert!(e.to_string().contains("checksum"), "undescriptive error: {e}"),
        Ok(_) => panic!("a corrupted shard envelope must not open"),
    }
    std::fs::write(&envelope_path, &pristine).unwrap();

    // A foreign entry in the sharded root is rejected, not ignored.
    std::fs::write(dir.join("notes.txt"), b"scribble").unwrap();
    match ShardedIndex::open(&dir) {
        Err(e) => assert!(e.to_string().contains("foreign"), "undescriptive error: {e}"),
        Ok(_) => panic!("a foreign root entry must not open"),
    }
    std::fs::remove_file(dir.join("notes.txt")).unwrap();

    // A foreign file *inside* a shard subdirectory trips the per-shard
    // directory check the envelope machinery already enforces.
    std::fs::write(dir.join("shard0001").join("extra.bin"), b"junk").unwrap();
    match ShardedIndex::open(&dir) {
        Err(e) => assert!(e.to_string().contains("foreign"), "undescriptive error: {e}"),
        Ok(_) => panic!("a foreign shard entry must not open"),
    }
    std::fs::remove_file(dir.join("shard0001").join("extra.bin")).unwrap();

    // A shard directory swapped in from a *different* sharded index is
    // caught by the id-counter cross-check ("not a shard of this index").
    let (other_data, _) = hierarchical_workload(700, 1);
    let other = ShardedIndex::build(&spec, &other_data).unwrap();
    let other_dir = TempDir::new("roundtrip-sharded-other");
    other.save(&other_dir).unwrap();
    std::fs::remove_dir_all(dir.join("shard0001")).unwrap();
    copy_dir(&other_dir.join("shard0001"), &dir.join("shard0001"));
    match ShardedIndex::open(&dir) {
        Err(e) => {
            assert!(e.to_string().contains("not a shard"), "undescriptive error: {e}")
        }
        Ok(_) => panic!("a swapped-in shard directory must not open"),
    }

    // The two layouts do not open through each other's entry points.
    assert!(Index::open(&dir).is_err(), "a sharded root is not an unsharded index");
    assert!(
        ShardedIndex::open(&dir.join("shard0000")).is_err(),
        "an unsharded index directory is not a sharded root"
    );
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

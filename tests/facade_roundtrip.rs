//! The acceptance test of the unified-façade redesign: all four methods
//! driven through the *identical* `IndexSpec` → `Index::build` → `save` →
//! `Index::open` → `QueryRequest` path, with neighbor sets pinned
//! bit-identical to hand-wired concrete backends (the constructors a
//! pre-façade caller would have dispatched to) — including a batch with
//! heterogeneous per-query `k` — plus the persistence error paths: opening
//! a directory saved by a different method or divergence must fail with a
//! descriptive error, never a decode panic.

mod common;

use std::sync::Arc;

use brepartition::prelude::*;
use common::TempDir;

const PAGE: usize = 4096;
const LEAF: usize = 16;
const M: usize = 6;
const PROBABILITY: f64 = 0.9;

fn workload(n: usize, queries: usize) -> (DenseDataset, Vec<Vec<f64>>) {
    let data =
        HierarchicalSpec { n, dim: 24, clusters: 12, blocks: 6, ..Default::default() }.generate();
    let workload =
        QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, queries, 0.02, 0xFACADE);
    let queries: Vec<Vec<f64>> = workload.iter().map(|q| q.to_vec()).collect();
    (data, queries)
}

/// The identical knobs every method is driven with.
fn tuned(spec: IndexSpec) -> IndexSpec {
    spec.with_partitions(M).with_leaf_capacity(LEAF).with_page_size(PAGE)
}

/// The paper's four methods over `kind`, labelled: BP, ABP (BP at
/// p = [`PROBABILITY`]), BBT and VAF.
fn setups(kind: DivergenceKind) -> [(&'static str, IndexSpec); 4] {
    [
        ("BP", IndexSpec::brepartition(kind)),
        ("ABP", IndexSpec::approximate(kind)),
        ("BBT", IndexSpec::bbtree(kind)),
        ("VAF", IndexSpec::vafile(kind)),
    ]
    .map(|(name, spec)| (name, tuned(spec)))
}

/// The Itakura-Saito spec of one method at its default probability (exact
/// for BP).
fn spec_for(method: Method) -> IndexSpec {
    tuned(IndexSpec::new(method, DivergenceKind::ItakuraSaito))
}

/// The Itakura-Saito ABP spec.
fn approximate_spec() -> IndexSpec {
    tuned(IndexSpec::approximate(DivergenceKind::ItakuraSaito))
}

/// A hand-wired concrete backend for the same method and knobs — the
/// reference the spec-driven path is pinned bit-identical against.
fn pre_redesign_backend(method: &str, data: &DenseDataset) -> Arc<dyn SearchBackend> {
    let kind = DivergenceKind::ItakuraSaito;
    let config = BrePartitionConfig::default()
        .with_partitions(M)
        .with_leaf_capacity(LEAF)
        .with_page_size(PAGE);
    match method {
        "BP" => Arc::new(BrePartitionBackend::exact(
            BrePartitionIndex::build(kind, data, &config).unwrap(),
        )),
        "ABP" => Arc::new(BrePartitionBackend::approximate(
            BrePartitionIndex::build(kind, data, &config).unwrap(),
            ApproximateConfig::with_probability(PROBABILITY),
        )),
        "BBT" => Arc::new(BBTreeBackend::build(
            ItakuraSaito,
            data,
            BBTreeConfig::with_leaf_capacity(LEAF),
            PageStoreConfig::with_page_size(PAGE),
        )),
        "VAF" => Arc::new(VaFileBackend::build(
            ItakuraSaito,
            data,
            VaFileConfig { page_size_bytes: PAGE, ..VaFileConfig::default() },
        )),
        other => panic!("unknown method {other}"),
    }
}

/// Acceptance criterion: one loop, four methods, the identical spec-driven
/// path, neighbors bit-identical to the pre-redesign constructors.
#[test]
fn all_four_methods_roundtrip_identically_through_the_facade() {
    let (data, queries) = workload(1_200, 96);
    let root = TempDir::new("facade-all-methods");

    for (method, spec) in setups(DivergenceKind::ItakuraSaito) {
        // The identical path: IndexSpec → Index::build → save → Index::open.
        let built = Index::build(&spec, &data).unwrap();
        let dir = root.join(method);
        built.save(&dir).unwrap();
        let reopened = Index::open(&dir).unwrap();
        assert_eq!(reopened.spec(), &spec, "{method}: the envelope restores the full spec");
        assert_eq!(reopened.method(), spec.method);
        assert_eq!(reopened.divergence(), DivergenceKind::ItakuraSaito);
        assert_eq!(reopened.len(), data.len(), "{method}");
        assert_eq!(reopened.dim(), data.dim(), "{method}");

        // Uniform batch: built façade, reopened façade and the
        // pre-redesign constructor must agree bit-for-bit.
        let k = 10;
        let uniform = Request::uniform(&queries, k);
        let config = EngineConfig::default().with_threads(4);
        let a = built.run_with(&uniform, config).unwrap();
        let b = reopened.run_with(&uniform, config).unwrap();
        let old = QueryEngine::with_config(pre_redesign_backend(method, &data), config)
            .unwrap()
            .run_batch(&queries, k)
            .unwrap();
        for (qi, ((x, y), z)) in
            a.outcomes.iter().zip(b.outcomes.iter()).zip(old.outcomes.iter()).enumerate()
        {
            assert_eq!(x.neighbors, z.neighbors, "{method} query {qi}: façade vs pre-redesign");
            assert_eq!(y.neighbors, z.neighbors, "{method} query {qi}: reopened vs pre-redesign");
            assert_eq!(x.io, y.io, "{method} query {qi}: cold-pool I/O must survive reopening");
            assert_eq!(x.candidates, z.candidates, "{method} query {qi}");
            // Every exact method reports the rows it scored exactly, and it
            // scored at least the answer's.
            if method != "ABP" {
                assert!(
                    x.candidates >= k.min(data.len()),
                    "{method} query {qi}: {} candidates for k = {k}",
                    x.candidates
                );
            }
        }

        // Heterogeneous per-query k through the same reopened index: query
        // i asks for (i % 7) + 1 neighbors; the pre-redesign reference is a
        // direct per-query drive of the old backend.
        let hetero = Request::batch(
            queries.iter().enumerate().map(|(i, q)| QueryRequest::new(q, (i % 7) + 1)),
        );
        let batch = reopened.run_with(&hetero, config).unwrap();
        let old_backend = pre_redesign_backend(method, &data);
        for (i, outcome) in batch.outcomes.iter().enumerate() {
            let k = (i % 7) + 1;
            assert_eq!(outcome.neighbors.len(), k, "{method} query {i} ignored its own k");
            let mut scratch = old_backend.new_scratch();
            let expected = old_backend
                .knn_with_options(&mut scratch, &queries[i], k, &QueryOptions::none())
                .unwrap();
            assert_eq!(
                outcome.neighbors, expected.neighbors,
                "{method} query {i} (k={k}): heterogeneous batch diverged from pre-redesign"
            );
        }
    }
}

/// Per-query options through the façade: probability overrides match the
/// ABP spec; unsupported options are typed errors.
#[test]
fn per_query_options_route_through_the_facade() {
    let (data, queries) = workload(600, 16);
    let exact = Index::build(&spec_for(Method::BrePartition), &data).unwrap();
    let approx = Index::build(&approximate_spec(), &data).unwrap();

    for (i, q) in queries.iter().enumerate() {
        let overridden =
            exact.query(&QueryRequest::new(q, 8).with_probability(PROBABILITY)).unwrap();
        let dedicated = approx.query(&QueryRequest::new(q, 8)).unwrap();
        assert_eq!(
            overridden.neighbors, dedicated.neighbors,
            "query {i}: probability override must equal the ABP spec"
        );
    }

    // Candidate budgets are unsupported on BrePartition: typed error.
    match exact.query(&QueryRequest::new(&queries[0], 8).with_candidate_budget(32)) {
        Err(Error::Engine(EngineError::UnsupportedOption { backend, option })) => {
            assert_eq!(backend, "BP");
            assert!(option.contains("candidate budget"));
        }
        other => panic!("expected a typed unsupported-option error, got {other:?}"),
    }

    // …but the baselines honor them.
    let vaf = Index::build(&spec_for(Method::VaFile), &data).unwrap();
    let bounded = vaf.query(&QueryRequest::new(&queries[0], 8).with_candidate_budget(4)).unwrap();
    let unbounded = vaf.query(&QueryRequest::new(&queries[0], 8)).unwrap();
    assert!(bounded.io.pages_read <= unbounded.io.pages_read);
}

/// ABP is the BP spec at p < 1: for every p < 1 it returns the neighbours
/// and candidate counts of the per-query override at p on an exact BP
/// index; p = 1.0 is the exact index bit for bit; a probability outside
/// (0, 1] is a spec error.
#[test]
fn spec_probability_is_the_per_query_override_on_exact_bp() {
    let (data, queries) = workload(600, 24);
    let kind = DivergenceKind::ItakuraSaito;
    let exact = Index::build(&tuned(IndexSpec::brepartition(kind)), &data).unwrap();
    for p in [0.5, 0.9, 0.99] {
        let approx =
            Index::build(&tuned(IndexSpec::brepartition(kind).with_probability(p)), &data).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let spec_side = approx.query(&QueryRequest::new(q, 10)).unwrap();
            let query_side = exact.query(&QueryRequest::new(q, 10).with_probability(p)).unwrap();
            assert_eq!(spec_side.neighbors, query_side.neighbors, "p = {p}, query {i}");
            assert_eq!(spec_side.candidates, query_side.candidates, "p = {p}, query {i}");
        }
    }

    let at_one =
        Index::build(&tuned(IndexSpec::brepartition(kind).with_probability(1.0)), &data).unwrap();
    let request = Request::uniform(&queries, 10);
    let want = exact.run(&request).unwrap();
    let got = at_one.run(&request).unwrap();
    for (i, (g, w)) in got.outcomes.iter().zip(want.outcomes.iter()).enumerate() {
        assert_eq!(g.neighbors.len(), w.neighbors.len(), "query {i}");
        for ((gid, gd), (wid, wd)) in g.neighbors.iter().zip(w.neighbors.iter()) {
            assert_eq!(gid, wid, "query {i}");
            assert_eq!(gd.to_bits(), wd.to_bits(), "query {i}");
        }
        assert_eq!(g.candidates, w.candidates, "query {i}");
    }

    for p in [1.5, f64::NAN] {
        match Index::build(&IndexSpec::brepartition(kind).with_probability(p), &data) {
            Err(Error::Spec(message)) => assert!(message.contains("probability"), "{message}"),
            other => panic!("p = {p}: expected a spec error, got {other:?}"),
        }
    }
}

/// Satellite: `Index::open` on a directory saved by a *different*
/// method/divergence fails with a descriptive error, not a decode panic.
#[test]
fn open_rejects_foreign_and_mismatched_directories_descriptively() {
    let (data, _) = workload(300, 4);
    let root = TempDir::new("facade-mismatch");

    // A directory with no spec envelope at all (the pre-façade layout).
    let bare = root.join("bare");
    let index = Index::build(&spec_for(Method::BrePartition), &data).unwrap();
    index.backend().save(&bare).unwrap(); // backend-level save: artifacts only, no envelope
    match Index::open(&bare) {
        Err(e) => {
            let message = e.to_string();
            assert!(message.contains("spec envelope"), "undescriptive error: {message}");
        }
        Ok(_) => panic!("a directory without a spec envelope must not open"),
    }

    // A BBT directory whose envelope claims it is a VA-file: the VA-file
    // artifacts are missing, and the error says so.
    let bbt_dir = root.join("bbt");
    Index::build(&spec_for(Method::BBTree), &data).unwrap().save(&bbt_dir).unwrap();
    let vaf_dir = root.join("vaf");
    Index::build(&spec_for(Method::VaFile), &data).unwrap().save(&vaf_dir).unwrap();
    std::fs::copy(vaf_dir.join(brepartition::SPEC_FILE), bbt_dir.join(brepartition::SPEC_FILE))
        .unwrap();
    match Index::open(&bbt_dir) {
        Err(e) => {
            let message = e.to_string();
            assert!(message.contains("VaFile"), "undescriptive error: {message}");
        }
        Ok(_) => panic!("mismatched method must not open"),
    }

    // A BP/ISD directory whose envelope claims Squared Euclidean: caught by
    // the divergence cross-check with both kinds named.
    let bp_dir = root.join("bp");
    Index::build(&spec_for(Method::BrePartition), &data).unwrap().save(&bp_dir).unwrap();
    let se_data =
        HierarchicalSpec { n: 120, dim: 24, clusters: 4, blocks: 4, ..Default::default() }
            .generate();
    let se_dir = root.join("bp-se");
    Index::build(
        &IndexSpec::brepartition(DivergenceKind::SquaredEuclidean)
            .with_partitions(M)
            .with_leaf_capacity(LEAF)
            .with_page_size(PAGE),
        &se_data,
    )
    .unwrap()
    .save(&se_dir)
    .unwrap();
    std::fs::copy(se_dir.join(brepartition::SPEC_FILE), bp_dir.join(brepartition::SPEC_FILE))
        .unwrap();
    match Index::open(&bp_dir) {
        Err(Error::Mismatch { expected, found }) => {
            assert!(expected.contains("SE"), "{expected}");
            assert!(found.contains("ISD"), "{found}");
        }
        other => panic!("expected a divergence mismatch, got {other:?}"),
    }

    // A corrupted spec envelope fails the checksum, not the decoder.
    let corrupt_dir = root.join("corrupt");
    index.save(&corrupt_dir).unwrap();
    let spec_path = corrupt_dir.join(brepartition::SPEC_FILE);
    let mut bytes = std::fs::read(&spec_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&spec_path, &bytes).unwrap();
    match Index::open(&corrupt_dir) {
        Err(Error::Persist(_)) => {}
        other => panic!("expected a persist error, got {other:?}"),
    }
}

/// The spec envelope survives a save → open → save → open chain.
#[test]
fn double_roundtrip_keeps_the_envelope_and_answers() {
    let (data, queries) = workload(400, 16);
    let root = TempDir::new("facade-double");
    let spec = approximate_spec();
    let built = Index::build(&spec, &data).unwrap();
    built.save(&root.join("first")).unwrap();
    let once = Index::open(&root.join("first")).unwrap();
    once.save(&root.join("second")).unwrap();
    let twice = Index::open(&root.join("second")).unwrap();
    assert_eq!(twice.spec(), &spec);

    let request = Request::uniform(&queries, 9);
    let a = built.run(&request).unwrap();
    let b = twice.run(&request).unwrap();
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        assert_eq!(x.neighbors, y.neighbors);
    }
}

/// `StorageSpec::buffer_pool_pages` takes effect for every method: a
/// buffered spec yields cacheable scratch pools (so warm-scratch engines
/// construct), an unbuffered one is rejected for warm serving.
#[test]
fn buffer_pool_pages_is_honored_by_every_method() {
    let (data, queries) = workload(300, 4);
    for (method, spec) in setups(DivergenceKind::ItakuraSaito) {
        let unbuffered = Index::build(&spec, &data).unwrap();
        match unbuffered.engine(EngineConfig::default().with_threads(2).with_warm_scratch()) {
            Err(Error::Engine(EngineError::Config(message))) => {
                assert!(message.contains("warm"), "{method}: {message}")
            }
            other => panic!("{method}: expected warm-scratch rejection, got {other:?}"),
        }

        let buffered = Index::build(&spec.with_buffer_pool_pages(32), &data).unwrap();
        let engine = buffered
            .engine(EngineConfig::default().with_threads(2).with_warm_scratch())
            .unwrap_or_else(|e| panic!("{method}: buffered pools must allow warm scratch: {e}"));
        let batch = engine.run_batch(&queries, 5).unwrap();
        assert_eq!(batch.outcomes.len(), queries.len(), "{method}");
    }
}

/// Invalid specs and engine configs surface as typed errors through the
/// façade, before any index work happens.
#[test]
fn invalid_specs_and_configs_are_typed_errors() {
    let (data, queries) = workload(200, 4);

    match Index::build(&approximate_spec().with_probability(1.5), &data) {
        Err(Error::Spec(message)) => assert!(message.contains("1.5"), "{message}"),
        other => panic!("expected spec error, got {other:?}"),
    }
    match Index::build(&IndexSpec::brepartition(DivergenceKind::GeneralizedI), &data) {
        Err(Error::Spec(message)) => assert!(message.contains("GI"), "{message}"),
        other => panic!("expected spec error, got {other:?}"),
    }

    let index = Index::build(&spec_for(Method::BrePartition), &data).unwrap();
    match index.engine(EngineConfig::default().with_threads(0)) {
        Err(Error::Engine(EngineError::Config(message))) => {
            assert!(message.contains("at least 1"), "{message}");
        }
        other => panic!("expected engine config error, got {other:?}"),
    }
    match index.run_with(&Request::uniform(&queries, 3), EngineConfig::default().with_threads(0)) {
        Err(Error::Engine(EngineError::Config(_))) => {}
        other => panic!("expected engine config error, got {other:?}"),
    }
}

/// Satellite fix: a directory holding a *valid* index plus a foreign extra
/// file must be rejected descriptively — the directory is not (only) what
/// its envelope claims. Previously this case was uncovered by any test.
#[test]
fn open_rejects_a_directory_with_a_foreign_extra_file() {
    let (data, _) = workload(200, 4);
    let root = TempDir::new("facade-foreign-extra");

    for (method, spec) in setups(DivergenceKind::ItakuraSaito) {
        let dir = root.join(method);
        Index::build(&spec, &data).unwrap().save(&dir).unwrap();
        assert!(Index::open(&dir).is_ok(), "{method}: pristine directory must open");

        std::fs::write(dir.join("stray.bin"), b"not one of ours").unwrap();
        match Index::open(&dir) {
            Err(Error::Mismatch { expected, found }) => {
                assert!(found.contains("stray.bin"), "{method}: {found}");
                assert!(
                    expected.contains(spec.method.name()),
                    "{method}: the error must name the expected layout: {expected}"
                );
            }
            other => panic!("{method}: expected a foreign-entry rejection, got {other:?}"),
        }

        // Removing the foreign entry restores openability.
        std::fs::remove_file(dir.join("stray.bin")).unwrap();
        assert!(Index::open(&dir).is_ok(), "{method}");
    }
}

/// Every façade query entry point rejects a query with a coordinate outside
/// the divergence's domain — NaN and ±∞ under every kind, ≤ 0 under
/// Itakura–Saito and the generalized I-divergence — with the typed error an
/// insert of that row gets, for every registered method × kind, unsharded
/// and sharded, single query and batch. In-domain queries still answer.
#[test]
fn out_of_domain_queries_are_typed_errors_for_every_method_and_kind() {
    use brepartition::bregman::BregmanError;
    use brepartition::core::CoreError;

    let data = HierarchicalSpec { n: 120, dim: 8, clusters: 4, blocks: 2, ..Default::default() }
        .generate();
    let good = data.row(3).to_vec();
    for kind in DivergenceKind::ALL {
        let mut bad_values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        if matches!(kind, DivergenceKind::ItakuraSaito | DivergenceKind::GeneralizedI) {
            bad_values.extend([0.0, -1.0]);
        }
        for (method, spec) in setups(kind) {
            if spec.method == Method::BrePartition && !kind.supports_partitioning() {
                continue; // no such index: the spec is rejected at build
            }
            let spec = spec.with_partitions(2).with_page_size(1024);
            let index = Index::build(&spec, &data).unwrap();
            let sharded = ShardedIndex::build(&ShardSpec::capacity(spec, 2), &data).unwrap();
            for &value in &bad_values {
                let mut row = good.clone();
                row[5] = value;
                let single = QueryRequest::new(&row, 3);
                let batch = Request::batch([QueryRequest::new(&good, 3), single]);
                let results = [
                    ("Index::query", index.query(&single).map(drop)),
                    ("Index::run", index.run(&batch).map(drop)),
                    ("ShardedIndex::query", sharded.query(&single).map(drop)),
                    ("ShardedIndex::run", sharded.run(&batch).map(drop)),
                    (
                        "ShardedIndex::run_with_policy",
                        sharded.run_with_policy(&batch, 2, &FanoutPolicy::default()).map(drop),
                    ),
                ];
                for (entry, result) in results {
                    match result {
                        Err(Error::Core(CoreError::Bregman(BregmanError::OutOfDomain {
                            value: found,
                            ..
                        }))) => assert_eq!(
                            found.to_bits(),
                            value.to_bits(),
                            "{method}/{kind} {entry}: wrong coordinate reported"
                        ),
                        other => panic!(
                            "{method}/{kind} {entry}: coordinate {value} gave {other:?}, \
                             expected an out-of-domain error"
                        ),
                    }
                }
            }
            assert_eq!(index.query(&QueryRequest::new(&good, 3)).unwrap().neighbors.len(), 3);
            assert_eq!(sharded.run(&Request::uniform(&[&good[..]], 3)).unwrap().outcomes.len(), 1);
        }
    }
}

/// The default spec holds one point: a one-row build answers with that row,
/// and a fold that leaves one live row rebuilds the index and keeps
/// answering.
#[test]
fn default_spec_builds_and_folds_down_to_one_row() {
    let kind = DivergenceKind::ItakuraSaito;
    let rows = [vec![1.0, 2.0, 3.0], vec![2.0, 1.0, 0.5], vec![3.0, 3.0, 1.5]];
    let spec = IndexSpec::brepartition(kind).with_background_compaction(false);
    let assert_only = |index: &Index, id: u32, row: &[f64]| {
        for query in &rows {
            let hit = index.query(&QueryRequest::new(query, 3)).unwrap();
            assert_eq!(hit.neighbors.len(), 1, "one live row, k = 3");
            let (got, distance) = hit.neighbors[0];
            assert_eq!(got, PointId(id));
            let want = kind.divergence(row, query);
            assert!((distance - want).abs() <= 1e-12 * (1.0 + want), "{distance} vs {want}");
        }
    };

    let single = Index::build(&spec, &DenseDataset::from_rows(&rows[..1]).unwrap()).unwrap();
    assert_eq!(single.len(), 1);
    assert_only(&single, 0, &rows[0]);

    let folded = Index::build(&spec, &DenseDataset::from_rows(&rows).unwrap()).unwrap();
    assert!(folded.delete(PointId(0)).unwrap());
    assert!(folded.delete(PointId(2)).unwrap());
    folded.compact().unwrap();
    assert_eq!((folded.len(), folded.compactions()), (1, 1));
    assert_only(&folded, 1, &rows[1]);
}

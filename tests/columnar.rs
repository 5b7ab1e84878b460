//! The columnar refine path's exactness contracts.
//!
//! * **Page codec against the source data**: every record read back through
//!   `BufferPool::read_points_block` from a dimension-major page store —
//!   freshly built and after save → open — equals its input row bit for
//!   bit, and `DiskBBTree` kNN over those pages matches a brute-force scan
//!   for every divergence.
//! * **f32 candidate tier bit-identity**: for BP and ABP over every
//!   divergence that supports them, an index with the `f32`
//!   screening tier enabled returns ids and distances bit-identical to the
//!   unscreened index — the tier may only *skip* candidates whose exact
//!   distance provably exceeds the `k`-th best — before and after
//!   mutation and a save → open cycle, and it demonstrably skips work.
//! * **One format per artifact**: a directory holding a spec envelope,
//!   index metadata, VA-file metadata, page file or shard envelope of an
//!   older format version is refused with a typed persistence error.

mod common;

use brepartition::pagestore::format::{seal, unseal};
use brepartition::prelude::*;
use brepartition::{SHARDS_FILE, SPEC_FILE, SPEC_MAGIC, SPEC_VERSION};
use common::TempDir;

const DIM: usize = 12;

/// Strictly positive rows keep every divergence in domain.
fn rows(n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..DIM)
                .map(|j| {
                    let x = (i as u64).wrapping_mul(2654435761).wrapping_add(j as u64 * 131 + salt);
                    0.3 + (x % 997) as f64 / 150.0
                })
                .collect()
        })
        .collect()
}

#[track_caller]
fn assert_bit_identical(ctx: &str, got: &[(PointId, f64)], want: &[(PointId, f64)]) {
    assert_eq!(got.len(), want.len(), "{ctx}: neighbor count");
    for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.0, w.0, "{ctx}: id at rank {rank}");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{ctx}: distance bits at rank {rank}");
    }
}

/// Read every record of `store` back through the block path and demand the
/// source row's exact bits.
fn assert_store_holds(ctx: &str, store: &PageStore, data: &DenseDataset) {
    let ids: Vec<u32> = (0..data.len() as u32).collect();
    let mut seen = 0;
    BufferPool::unbuffered()
        .read_points_block(store, &ids, &mut Vec::new(), &mut |members, lanes| {
            let m = members.len();
            for (j, &pid) in members.iter().enumerate() {
                for (i, want) in data.row(pid as usize).iter().enumerate() {
                    assert_eq!(lanes[i * m + j].to_bits(), want.to_bits(), "{ctx}: {pid}[{i}]");
                }
            }
            seen += m;
        })
        .unwrap();
    assert_eq!(seen, data.len(), "{ctx}: records read back");
}

/// Build a disk-resident BB-tree over one concrete divergence, then check
/// its pages against the source rows and its kNN against a brute-force
/// scan, fresh and after save → open (where the answers must also stay
/// bit-identical). Ties are handled as in `tests/exactness.rs`: distances
/// are compared rank by rank, and each returned id must lie at the
/// distance it is reported at.
fn check_against_source<B: DecomposableBregman>(divergence: B) {
    let data = DenseDataset::from_rows(&rows(90, 11)).unwrap();
    let queries = rows(8, 47);
    let tree_config = BBTreeConfig { leaf_capacity: 8, ..Default::default() };
    let built = DiskBBTree::build(
        divergence.clone(),
        &data,
        tree_config,
        PageStoreConfig::with_page_size(512),
    );
    let dir = TempDir::new(&format!("columnar-{}", divergence.name()));
    built.save(&dir).unwrap();
    let reopened = DiskBBTree::open(divergence.clone(), &dir).unwrap();

    let mut answers = Vec::new();
    for (ctx, tree) in [("built", &built), ("reopened", &reopened)] {
        let ctx = format!("{} {ctx}", divergence.name());
        assert_store_holds(&ctx, tree.store(), &data);
        for (qi, q) in queries.iter().enumerate() {
            let got = tree
                .knn(&mut BufferPool::unbuffered(), &mut KernelScratch::default(), q, 9, None)
                .unwrap()
                .neighbors;
            answers.push(got.clone());
            let mut scan: Vec<(usize, f64)> =
                (0..data.len()).map(|i| (i, divergence.divergence(data.row(i), q))).collect();
            scan.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            assert_eq!(got.len(), 9, "{ctx} query {qi}: neighbor count");
            for (rank, ((id, distance), (_, want))) in got.iter().zip(&scan).enumerate() {
                let own = divergence.divergence(data.row(id.index()), q);
                for (reference, what) in [(*want, "brute-force rank"), (own, "its own row")] {
                    assert!(
                        (distance - reference).abs() <= 1e-9 * (1.0 + reference.abs()),
                        "{ctx} query {qi} rank {rank}: {distance} vs {what} {reference}"
                    );
                }
            }
            let mut ids: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), got.len(), "{ctx} query {qi}: duplicate ids");
        }
    }
    let (fresh, reopened) = answers.split_at(queries.len());
    for (qi, (a, b)) in fresh.iter().zip(reopened).enumerate() {
        assert_bit_identical(&format!("{} reopened query {qi}", divergence.name()), b, a);
    }
}

/// The dimension-major page codec stores exactly the source bits and the
/// search over it is exact, for every divergence family, fresh and
/// reopened.
#[test]
fn dim_major_pages_hold_the_source_rows_and_search_exactly() {
    check_against_source(SquaredEuclidean);
    check_against_source(ItakuraSaito);
    check_against_source(Exponential);
    check_against_source(brepartition::bregman::GeneralizedI);
}

/// The f32 screening tier never changes an answer: ids and f64 distances
/// stay bit-identical to the unscreened index for every supported pair —
/// through mutations and a save → open cycle (which rebuilds the f32 rows
/// from the page file) — while demonstrably examining fewer candidates.
#[test]
fn f32_candidate_tier_is_bit_identical_and_skips_work() {
    let data = DenseDataset::from_rows(&rows(160, 3)).unwrap();
    let queries = rows(10, 71);

    // Non-vacuity pin at the core level, where exact-evaluation counters
    // are visible: the screened index computes strictly fewer exact
    // divergences than the unscreened one over the same workload.
    {
        let kind = DivergenceKind::SquaredEuclidean;
        let config = IndexSpec::brepartition(kind)
            .with_partitions(3)
            .with_page_size(1024)
            .with_seed(0xC0FFEE)
            .brepartition_config();
        let plain = BrePartitionIndex::build(kind, &data, &config).unwrap();
        let tiered = BrePartitionIndex::build(
            kind,
            &data,
            &BrePartitionConfig { f32_candidates: true, ..config },
        )
        .unwrap();
        let (mut evals_plain, mut evals_tiered) = (0u64, 0u64);
        for q in &queries {
            evals_plain += plain
                .knn(&mut plain.new_buffer_pool(), &mut KernelScratch::default(), q, 7, None)
                .unwrap()
                .stats
                .search
                .distance_computations;
            evals_tiered += tiered
                .knn(&mut tiered.new_buffer_pool(), &mut KernelScratch::default(), q, 7, None)
                .unwrap()
                .stats
                .search
                .distance_computations;
        }
        assert!(
            evals_tiered < evals_plain,
            "the f32 tier never skipped an exact evaluation ({evals_tiered} vs {evals_plain}) — \
             the exactness pin below is vacuous"
        );
    }

    for kind in DivergenceKind::ALL {
        for (method, spec) in
            [("BP", IndexSpec::brepartition(kind)), ("ABP", IndexSpec::approximate(kind))]
        {
            let base = spec.with_partitions(3).with_page_size(1024).with_seed(0xC0FFEE);
            if base.validate().is_err() {
                continue; // BP/ABP over GI, pinned by the oracle suite
            }
            let label = format!("{method}/{}", kind.short_name());
            let plain = Index::build(&base, &data).unwrap();
            let tiered = Index::build(&base.with_f32_candidates(true), &data).unwrap();

            for (qi, q) in queries.iter().enumerate() {
                let want = plain.query(&QueryRequest::new(q, 7)).unwrap();
                let got = tiered.query(&QueryRequest::new(q, 7)).unwrap();
                assert_bit_identical(
                    &format!("{label} query {qi}"),
                    &got.neighbors,
                    &want.neighbors,
                );
                // Screening changes which candidates get *exact* scores,
                // never the filter phase's candidate union.
                assert_eq!(got.candidates, want.candidates, "{label}: union changed");
            }

            // Identical mutations on both sides, still bit-identical.
            for row in rows(5, 29) {
                assert_eq!(plain.insert(&row).unwrap(), tiered.insert(&row).unwrap());
            }
            for target in [2u32, 57, 161] {
                assert_eq!(
                    plain.delete(PointId(target)).unwrap(),
                    tiered.delete(PointId(target)).unwrap(),
                    "{label}: delete({target}) liveness"
                );
            }
            let want = plain.run(&Request::uniform(&queries, 6)).unwrap();
            let got = tiered.run(&Request::uniform(&queries, 6)).unwrap();
            for (qi, (g, w)) in got.outcomes.iter().zip(want.outcomes.iter()).enumerate() {
                assert_bit_identical(&format!("{label} mutated {qi}"), &g.neighbors, &w.neighbors);
            }

            // Across save → open the tier's rows are rebuilt from the page
            // file; the spec round-trips the knob, answers stay identical.
            let dir = TempDir::new(&format!("columnar-{}", label.replace('/', "-")));
            tiered.save(&dir).unwrap();
            let reopened = Index::open(&dir).unwrap();
            assert!(reopened.spec().f32_candidates, "{label}: knob lost in persistence");
            let got = reopened.run(&Request::uniform(&queries, 6)).unwrap();
            for (qi, (g, w)) in got.outcomes.iter().zip(want.outcomes.iter()).enumerate() {
                assert_bit_identical(&format!("{label} reopened {qi}"), &g.neighbors, &w.neighbors);
            }
        }
    }
}

#[track_caller]
fn assert_rejected<T>(ctx: &str, opened: Result<T>) {
    match opened {
        Err(Error::Persist(e)) => assert!(e.to_string().contains("version"), "{ctx}: {e}"),
        Err(e) => panic!("{ctx}: expected a persistence error, got {e}"),
        Ok(_) => panic!("{ctx}: an older format version must not open"),
    }
}

/// Relabel a sealed artifact one format version lower, bytes unchanged.
fn lower_version(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    bytes[8..12].copy_from_slice(&(version - 1).to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// Every artifact has exactly one format version. The genuine older spec
/// envelopes, and every other artifact relabelled one version lower, are
/// refused with a typed persistence error — never opened with defaulted
/// fields, never a panic.
#[test]
fn older_format_versions_are_rejected_on_open() {
    let data = DenseDataset::from_rows(&rows(40, 13)).unwrap();
    let bp = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
        .with_partitions(2)
        .with_page_size(1024);
    let vaf = IndexSpec::vafile(DivergenceKind::ItakuraSaito).with_page_size(1024);

    // Version 4 of the spec payload stored a partition-count tag byte
    // (0 = Auto, 1 = fixed) before M, which follows the method tag, the
    // divergence name and the two storage fields. Version 3 has version 4's
    // layout, but its BP envelopes store p = 0.9, which BP then ignored:
    // opened as version 4 such an exact index would serve ABP. Version 2
    // predates the compaction spec (17 trailing bytes: flag + two ratios),
    // version 1 additionally the `f32_candidates` flag byte.
    let dir = TempDir::new("columnar-spec-versions");
    Index::build(&bp, &data).unwrap().save(&dir).unwrap();
    let sealed = std::fs::read(dir.join(SPEC_FILE)).unwrap();
    let payload = unseal(&SPEC_MAGIC, SPEC_VERSION, &sealed).unwrap();
    let mut v4_payload = payload.to_vec();
    let partitions_at = 1 + 8 + bp.divergence.short_name().len() + 8 + 8;
    v4_payload.insert(partitions_at, 1);
    let v2_payload = &v4_payload[..v4_payload.len() - 17];
    let v1_payload = &v2_payload[..v2_payload.len() - 1];
    for (version, older) in
        [(4, &v4_payload[..]), (3, &v4_payload[..]), (2, v2_payload), (1, v1_payload)]
    {
        std::fs::write(dir.join(SPEC_FILE), seal(&SPEC_MAGIC, version, older)).unwrap();
        assert_rejected(&format!("{SPEC_FILE} v{version}"), Index::open(&dir));
    }

    let artifacts = [
        (bp, brepartition::core::persist::META_FILE),
        (bp, brepartition::core::persist::PAGES_FILE),
        (vaf, brepartition::vafile::search::META_FILE),
        (vaf, brepartition::vafile::search::PAGES_FILE),
    ];
    for (spec, file) in artifacts {
        let dir = TempDir::new("columnar-artifact-versions");
        Index::build(&spec, &data).unwrap().save(&dir).unwrap();
        lower_version(&dir.join(file));
        assert_rejected(&format!("{} {file}", spec.method.short_name()), Index::open(&dir));
    }

    let dir = TempDir::new("columnar-shards-version");
    ShardedIndex::build(&ShardSpec::capacity(bp, 2), &data).unwrap().save(&dir).unwrap();
    lower_version(&dir.join(SHARDS_FILE));
    assert_rejected(SHARDS_FILE, ShardedIndex::open(&dir));
}

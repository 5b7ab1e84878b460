//! When the engine's helper threads start, read off the process's thread
//! count in `/proc/self/status`.
//!
//! Building, saving and opening an index must start no thread, so none of
//! that work lands in an index's set-up time; the first batch that wants a
//! helper starts it, and later batches reuse it instead of spawning their
//! own. This binary holds a single test, so no other test's threads can
//! move the count while it reads it.

#![cfg(target_os = "linux")]

mod common;

use brepartition::prelude::*;
use common::TempDir;

/// The `Threads:` line of `/proc/self/status`.
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line in /proc/self/status")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn helper_threads_start_on_the_first_batch_and_are_reused() {
    let data = HierarchicalSpec { n: 600, dim: 16, clusters: 8, blocks: 4, ..Default::default() }
        .generate();
    let queries: Vec<Vec<f64>> =
        QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, 64, 0.02, 0x9001)
            .iter()
            .map(|q| q.to_vec())
            .collect();
    let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito).with_page_size(4096);
    let dir = TempDir::new("pool-lifecycle");

    let before = live_threads();
    let built = Index::build(&spec, &data).unwrap();
    built.save(&dir).unwrap();
    drop(built);
    let index = Index::open(&dir).unwrap();
    assert_eq!(live_threads(), before, "build, save and open must start no thread");

    let config = EngineConfig::default().with_threads(2);
    let request = Request::uniform(&queries[..8], 10);
    index.run_with(&request, config).unwrap();
    let after_first = live_threads();
    assert!(
        after_first <= before + 1,
        "a 2-thread batch starts at most one helper ({before} -> {after_first} threads)"
    );
    for b in 0..100 {
        let first = (b * 8) % queries.len();
        index.run_with(&Request::uniform(&queries[first..first + 8], 10), config).unwrap();
    }
    assert_eq!(live_threads(), after_first, "later batches must reuse the helper");
}

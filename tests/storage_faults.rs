//! Storage faults after open are typed errors, never panics or hangs.
//!
//! Every method is saved, reopened, and then has bytes of its `pages.bin`
//! flipped on disk. The per-page checksums computed at open catch the rot
//! on the next physical read, and every caller above the page store must
//! hand that back as an `Err`: a single query, a batch, an inline fold, a
//! fold on the background compactor, and a save to a fresh directory. A
//! failed fold leaves the serving epoch where it was.
//!
//! Compactions run on a helper thread behind a channel deadline, so a fold
//! that never reports back fails the test instead of stalling the suite.

mod common;

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::mpsc;
use std::time::Duration;

use brepartition::pagestore::format::ENVELOPE_HEADER_BYTES;
use brepartition::prelude::*;
use common::TempDir;

const DIM: usize = 12;
const PAGE_SIZE: usize = 1024;
const DEADLINE: Duration = Duration::from_secs(10);

/// Strictly positive rows keep Itakura-Saito in domain.
fn rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..DIM)
                .map(|j| {
                    let x = (i as u64).wrapping_mul(2654435761).wrapping_add(j as u64 * 131 + 7);
                    0.3 + (x % 997) as f64 / 150.0
                })
                .collect()
        })
        .collect()
}

/// The five configurations under test: BP, BP with the f32 screening tier,
/// ABP, BBT and VAF.
fn cases() -> Vec<(&'static str, IndexSpec)> {
    let kind = DivergenceKind::ItakuraSaito;
    vec![
        ("BP", IndexSpec::brepartition(kind).with_partitions(3)),
        ("BP+f32", IndexSpec::brepartition(kind).with_partitions(3).with_f32_candidates(true)),
        ("ABP", IndexSpec::approximate(kind).with_partitions(3)),
        ("BBT", IndexSpec::bbtree(kind)),
        ("VAF", IndexSpec::vafile(kind)),
    ]
}

/// XOR one bit of every 256th byte of the page region of `dir/pages.bin`,
/// so every page fails its checksum on the next read.
fn rot_pages(dir: &Path) {
    let path = dir.join("pages.bin");
    let mut file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
    let mut meta_len = [0u8; 8];
    file.seek(SeekFrom::Start(ENVELOPE_HEADER_BYTES as u64)).unwrap();
    file.read_exact(&mut meta_len).unwrap();
    let region_start = ENVELOPE_HEADER_BYTES as u64 + 8 + u64::from_le_bytes(meta_len);
    let end = file.metadata().unwrap().len();
    assert!(region_start < end, "the page file holds no pages");
    for offset in (region_start..end).step_by(256) {
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(offset)).unwrap();
        file.read_exact(&mut byte).unwrap();
        file.seek(SeekFrom::Start(offset)).unwrap();
        file.write_all(&[byte[0] ^ 0x10]).unwrap();
    }
    file.sync_all().unwrap();
}

/// Save, reopen, give the delta a pending write (so a fold has work to
/// do), then rot the page file under the open index.
fn open_rotten(spec: &IndexSpec, data: &DenseDataset, dir: &Path) -> Index {
    Index::build(spec, data).unwrap().save(dir).unwrap();
    let index = Index::open(dir).unwrap();
    index.insert(&rows(1)[0]).unwrap();
    rot_pages(dir);
    index
}

/// Run `index.compact()` on a helper thread and wait at most [`DEADLINE`].
fn compact_with_deadline(label: &str, index: &Index) -> Result<()> {
    let (tx, rx) = mpsc::channel();
    let worker = index.clone();
    std::thread::spawn(move || {
        let _ = tx.send(worker.compact());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: compaction did not return within {DEADLINE:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{label}: compaction panicked instead of returning an error")
        }
    }
}

#[track_caller]
fn assert_checksum_error<T: std::fmt::Debug>(label: &str, what: &str, result: Result<T>) {
    match result {
        Err(e) => assert!(e.to_string().contains("checksum"), "{label} {what}: {e}"),
        Ok(value) => panic!("{label} {what}: expected a storage error, got {value:?}"),
    }
}

#[test]
fn rotten_pages_after_open_are_typed_errors_for_every_method_and_call() {
    let rows = rows(300);
    let data = DenseDataset::from_rows(&rows).unwrap();
    let queries: Vec<Vec<f64>> = rows.iter().step_by(37).cloned().collect();
    for (label, spec) in cases() {
        let spec = spec.with_page_size(PAGE_SIZE);
        let root = TempDir::new(&format!("storage-faults-{label}"));
        let index = open_rotten(&spec, &data, &root.join("inline"));

        assert_checksum_error(label, "query", index.query(&QueryRequest::new(&queries[0], 5)));
        assert_checksum_error(label, "run", index.run(&Request::uniform(&queries, 5)));
        assert_checksum_error(label, "save", index.save(&root.join("copy")));

        let epoch = index.epoch();
        assert_checksum_error(label, "inline compact", compact_with_deadline(label, &index));
        assert_eq!(index.epoch(), epoch, "{label}: a failed fold must not bump the epoch");

        let background = spec.with_background_compaction(true);
        let index = open_rotten(&background, &data, &root.join("background"));
        let epoch = index.epoch();
        assert_checksum_error(label, "background compact", compact_with_deadline(label, &index));
        assert_eq!(index.epoch(), epoch, "{label}: a failed fold must not bump the epoch");
    }
}

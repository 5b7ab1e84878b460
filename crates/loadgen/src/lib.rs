//! Deterministic open-loop load generation for serving benchmarks.
//!
//! A serving benchmark answers a different question than a batch
//! benchmark: not "how fast can the engine drain N queries" but "what
//! latency does a client see when requests arrive at a fixed rate the
//! system does not control". This crate generates that load:
//!
//! * [`Schedule`] — seeded Poisson or uniform arrival times at a target
//!   QPS, precomputed as nanosecond offsets, bit-identical under a fixed
//!   seed.
//! * [`OpMix`]/[`operation_stream`] — a deterministic mixed stream of
//!   queries, inserts and deletes to drive an online-mutable index.
//! * [`run_open_loop_concurrent`] — dispatch threads that start each
//!   operation at its *intended* arrival time and measure latency from that
//!   intent, so queueing delay behind a slow server is measured instead of
//!   silently stretching the schedule (the coordinated-omission
//!   correction).
//! * [`oracle`] — exact ground truth per sampled query, reconstructed at
//!   the mutation-log version the query executed under, for recall
//!   columns on approximate methods.
//!
//! The crate is dependency-free (its PRNG is a local SplitMix64) and
//! index-agnostic: anything implementing [`ConcurrentServeTarget`] can be
//! driven.
//!
//! ```
//! use loadgen::{operation_stream, OpMix, Schedule};
//!
//! let schedule = Schedule::poisson(42, 1_000.0, 512);
//! let ops = operation_stream(42, OpMix::new(90, 7, 3), 512, 64);
//! assert_eq!(schedule.len(), ops.len());
//! // Same seed, same schedule — reproducible down to the nanosecond.
//! assert_eq!(schedule, Schedule::poisson(42, 1_000.0, 512));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ops;
pub mod oracle;
pub mod rng;
pub mod runner;
pub mod schedule;

pub use ops::{delete_count, insert_count, operation_stream, OpMix, Operation};
pub use rng::SplitMix64;
pub use runner::{
    run_open_loop_concurrent, ConcurrentServeTarget, Mutation, OpKind, OpRecord, RecallSample,
    RunOutcome, RunnerConfig,
};
pub use schedule::Schedule;

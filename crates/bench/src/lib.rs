//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed evaluation (see
//! `DESIGN.md` §4) and hosts the criterion microbenchmarks.
//!
//! * [`harness`] — builds the two applications, runs monitored/controlled
//!   simulations, walk-forward predictor evaluation;
//! * [`experiments`] — one runner per table/figure, with a registry the
//!   `experiments` binary dispatches on;
//! * [`table`] — aligned text tables + CSV output under `results/`;
//! * [`micro`], [`recovery`], [`sim_scaling`], [`dist_bench`] — the
//!   microbench suites behind the `BENCH_*.json` files at the repository
//!   root, driven by [`micro::main_entry`];
//! * [`report`] — the one writer, reader and gate runner every
//!   `BENCH_*.json` file and CI gate goes through;
//! * [`fixtures`] — the spouts and bolts the bench topologies share.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p bench --release --bin experiments -- all
//! ```

#![warn(missing_docs)]

pub mod dist_bench;
pub mod experiments;
pub mod fixtures;
pub mod harness;
pub mod micro;
pub mod recovery;
pub mod report;
pub mod sim_scaling;
pub mod table;

//! # opthash-bench
//!
//! Shared utilities for the experiment binaries (`exp0`–`exp8`) that
//! regenerate every figure and table of the paper, plus the Criterion
//! micro-benchmarks. The README section "Reproducing the paper's
//! experiments" lists what each binary regenerates.
//!
//! Each experiment binary prints the series its figure plots — one row per
//! x-value, one column per method — and writes the same rows as CSV under
//! `target/experiments/`.
//!
//! ```
//! use opthash_bench::{mean_std, ExperimentTable};
//!
//! let (mean, std) = mean_std(&[1.0, 2.0, 3.0]);
//! assert!((mean - 2.0).abs() < 1e-12);
//! assert!(std > 0.0);
//!
//! let mut table = ExperimentTable::new("doc_example", &["x", "y"]);
//! table.push_numeric_row("first", &[1.0]);
//! table.print();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod querylog_harness;
pub mod reporting;
pub mod synthetic_harness;

pub use querylog_harness::{QueryLogHarness, QueryLogScale};
pub use reporting::{mean_std, write_csv, ExperimentTable};
pub use synthetic_harness::{SyntheticRun, SyntheticWorkload};

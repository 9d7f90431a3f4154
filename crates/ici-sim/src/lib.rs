//! Experiment harness: run drivers, statistics, tables, and result export.
//!
//! * [`strategy`] — the [`Strategy`] trait the driver is written
//!   against, implemented for ICIStrategy and both baselines; every
//!   per-strategy difference lives there, in one table;
//! * [`fault_run`] — [`fault_run::run_under_faults`], the one round
//!   loop: it takes any strategy through a deterministic `ici-faults`
//!   schedule of churn, message faults and Byzantine action, every lane
//!   proposing every round, and reduces it to a
//!   [`fault_run::FaultRunSummary`] (`run_ici_under_faults` /
//!   `run_full_under_faults` / `run_rapidchain_under_faults`
//!   instantiate it), so survivability columns (`e_byz`) differ only by
//!   the strategy under test;
//! * [`runner`] — [`runner::run`], the fault-free run: that loop under
//!   a plan whose every round is quiet, reduced to a
//!   [`runner::RunSummary`] (`run_ici` / `run_full` / `run_rapidchain`
//!   instantiate it); a quiet plan repairs and audits nothing;
//! * [`latency`] — latency percentile summaries;
//! * [`table`] — paper-style ASCII tables;
//! * [`report`] — JSON export of experiment records for `EXPERIMENTS.md`
//!   bookkeeping.
//!
//! # Examples
//!
//! ```
//! use ici_core::config::IciConfig;
//! use ici_sim::runner::run_ici;
//! use ici_workload::WorkloadConfig;
//!
//! let config = IciConfig::builder()
//!     .nodes(16)
//!     .cluster_size(8)
//!     .replication(2)
//!     .build()
//!     .expect("valid configuration");
//! let (_, summary) = run_ici(config, 2, 4, WorkloadConfig::default());
//! assert_eq!(summary.committed_blocks, 2);
//! assert!(summary.storage_fraction() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault_run;
pub mod latency;
pub mod report;
pub mod runner;
pub mod strategy;
pub mod table;

pub use fault_run::{
    run_full_under_faults, run_ici_under_faults, run_rapidchain_under_faults, run_under_faults,
    FaultProfile, FaultRunSummary,
};
pub use latency::LatencyStats;
pub use report::ExperimentRecord;
pub use runner::{run, run_full, run_ici, run_rapidchain, RunSummary};
pub use strategy::Strategy;
pub use table::{fmt_f64, Table};

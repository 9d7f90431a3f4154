//! Experiment harness: run drivers, statistics, tables, and result export.
//!
//! * [`strategy`] — the [`Strategy`] trait the driver is written
//!   against, implemented for ICIStrategy and both baselines; every
//!   per-strategy difference lives there, in one table;
//! * [`fault_run`] — [`fault_run::run_under_faults`], the one round
//!   loop: it takes any strategy through a deterministic `ici-faults`
//!   schedule of churn, message faults and Byzantine action, every lane
//!   proposing every round, and reduces it once, to a [`RunSummary`]
//!   that carries the paper-table and the survivability quantities
//!   alike. The caller names the strategy once
//!   (`run_under_faults::<IciNetwork>`), so survivability columns
//!   (`e_byz`) differ only by the strategy under test;
//! * [`runner`] — [`runner::run`], the fault-free run: that loop under
//!   a plan whose every round is quiet (`run::<IciNetwork>`), reduced to
//!   the same [`RunSummary`]; a quiet plan repairs and audits nothing;
//! * [`latency`] — latency percentile summaries;
//! * [`table`] — paper-style ASCII tables;
//! * [`report`] — JSON export of experiment records for `EXPERIMENTS.md`
//!   bookkeeping.
//!
//! # Examples
//!
//! ```
//! use ici_core::config::IciConfig;
//! use ici_core::network::IciNetwork;
//! use ici_sim::runner::run;
//! use ici_workload::WorkloadConfig;
//!
//! let config = IciConfig::builder()
//!     .nodes(16)
//!     .cluster_size(8)
//!     .replication(2)
//!     .build()
//!     .expect("valid configuration");
//! let (_, summary) = run::<IciNetwork>(config, 2, 4, WorkloadConfig::default());
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

pub use fault_run::{run_under_faults, FaultProfile, RunSummary};
pub use latency::LatencyStats;
pub use report::ExperimentRecord;
pub use runner::run;
pub use strategy::Strategy;
pub use table::{fmt_f64, Table};

//! The experiment table: one row per committed `results/<name>.json`.
//!
//! An experiment is a function from its settings to a [`Report`]; the
//! row's name is the record's file stem and the name it answers to on
//! the command line. Adding an experiment is a module and a row here.

mod e10_reconfig;
mod e11_byzantine;
mod e1_storage;
mod e2_cluster_sweep;
mod e3_communication;
mod e4_bootstrap;
mod e5_verification;
mod e6_availability;
mod e7_throughput;
mod e8_clustering;
mod e9_assignment;
mod e_byz;
mod e_fault;
mod e_scale;

use ici_bench::{Report, Scale};
use Run::{Fixed, Seeded};

/// The seed a [`Run::Seeded`] row runs — and its committed record was
/// written — under when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 42;

/// How a row runs. Most experiments fix their seeds in the source (the
/// tables quote them); the reconstructed ones take `--seed`.
#[derive(Clone, Copy)]
pub enum Run {
    Fixed(fn(Scale) -> Report),
    Seeded(fn(Scale, u64) -> Report),
}

pub struct Experiment {
    /// Stem of `results/<name>.json`.
    pub name: &'static str,
    pub run: Run,
}

impl Experiment {
    /// Runs the row; `seed` is `None` for a fixed row (the parser
    /// refuses the flag there) and defaults to [`DEFAULT_SEED`].
    pub fn report(&self, scale: Scale, seed: Option<u64>) -> Report {
        match self.run {
            Run::Fixed(run) => run(scale),
            Run::Seeded(run) => run(scale, seed.unwrap_or(DEFAULT_SEED)),
        }
    }
}

const fn row(name: &'static str, run: Run) -> Experiment {
    Experiment { name, run }
}

pub static TABLE: [Experiment; 14] = [
    row("e1", Fixed(e1_storage::run)),
    row("e2", Fixed(e2_cluster_sweep::run)),
    row("e3", Fixed(e3_communication::run)),
    row("e4", Fixed(e4_bootstrap::run)),
    row("e5", Fixed(e5_verification::run)),
    row("e6", Fixed(e6_availability::run)),
    row("e7", Fixed(e7_throughput::run)),
    row("e8", Fixed(e8_clustering::run)),
    row("e9", Fixed(e9_assignment::run)),
    row("e10", Fixed(e10_reconfig::run)),
    row("e11", Fixed(e11_byzantine::run)),
    row("e_fault", Seeded(e_fault::run)),
    row("e_byz", Seeded(e_byz::run)),
    row("e_scale", Seeded(e_scale::run)),
];

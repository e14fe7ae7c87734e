#![warn(missing_docs)]

//! Benchmark harness reproducing the paper's evaluation (§4).
//!
//! The library half of `mmm-bench`: [`experiment`] drives the Figure-2
//! scenario (U1 followed by U3 update cycles) across all four approaches
//! and measures storage consumption, time-to-save and time-to-recover;
//! [`report`] renders the results as the tables/series the paper's
//! figures show. The `repro` binary exposes one subcommand per figure
//! and in-text experiment (see DESIGN.md's experiment index).

pub mod experiment;
pub mod gate;
pub mod report;

pub use experiment::{run_scenario, ExperimentConfig, ScenarioResult, UseCaseCell};

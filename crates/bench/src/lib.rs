//! # protoobf-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (§VII):
//!
//! | Artifact | Binary |
//! |---|---|
//! | Table III (HTTP comparative results) | `table3` |
//! | Table IV (TCP-Modbus comparative results) | `table4` |
//! | Figure 4 (HTTP parsing/serialization time) | `fig4` |
//! | Figure 5 (Modbus parsing/serialization time) | `fig5` |
//! | Figure 6 (HTTP normalized potency) | `fig6` |
//! | Figure 7 (Modbus normalized potency) | `fig7` |
//!
//! Run counts default to 100 regenerations per level (the paper used
//! 1000); set `PROTOOBF_ITERS` to change. All binaries honour
//! `PROTOOBF_SEED`.
//!
//! The §VII-D resilience assessment is `protoobf resilience` (the PRE
//! attack of `protoobf_pre::resilience` scored per obfuscation level).

pub mod ablation;
pub mod report;
pub mod runner;
pub mod stats;

pub use runner::{run_experiment, run_once, ExperimentConfig, Protocol};

/// Writes `group`'s results to `BENCH_<group>.json` at the workspace
/// root (`cargo bench` runs with this package as its working directory,
/// so the path is anchored on the manifest, not the cwd). A run whose
/// filter skipped any of the group's rows writes nothing: `export_json`
/// writes only whole groups.
pub fn export_trajectory(c: &criterion::Criterion, group: &str) {
    let path = format!("{}/../../BENCH_{group}.json", env!("CARGO_MANIFEST_DIR"));
    match c.export_json(&path, &format!("{group}/")) {
        Ok(true) => eprintln!("{group} trajectory written to {path}"),
        Ok(false) => {}
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

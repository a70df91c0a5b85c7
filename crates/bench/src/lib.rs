//! Experiment harness regenerating every figure and table of the Killi
//! paper.
//!
//! - [`schemes`] — the protection-scheme factory,
//! - [`runner`] — the parallel (workload x scheme) simulation matrix,
//! - [`sweep`] — the Monte-Carlo replication engine (mean/stddev/CI95
//!   per (vdd, scheme, workload) cell, JSON reports),
//! - [`exec`] — the shared work-stealing thread pool + progress counters,
//! - [`experiments`] — one function per paper figure/table,
//! - [`fault_models`] — the fault-model axis: registry re-exports and the
//!   `stuck-at` helpers every experiment shares,
//! - [`empirical`] — Monte-Carlo validation of the §5.3 coverage algebra,
//! - [`report`] — text-table rendering.
//!
//! Binaries: `fig1`, `fig2`, `fig4`, `fig5`, `fig6`, `table4`..`table7`,
//! `ablation`, and `repro` (runs everything, writing `results/*.txt`).
//! Scale the simulation size with `KILLI_OPS_PER_CU` (default 150000).

pub mod empirical;
pub mod exec;
pub mod experiments;
pub mod fault_models;
pub mod report;
pub mod runner;
pub mod schemes;
pub mod sweep;

/// Reads the per-CU trace length from `KILLI_OPS_PER_CU` (default
/// `150_000`; tests and CI can shrink it).
pub fn ops_from_env() -> usize {
    std::env::var("KILLI_OPS_PER_CU")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150_000)
}

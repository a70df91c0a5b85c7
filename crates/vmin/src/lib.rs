//! Fleet-scale Vmin campaigns for the Killi reproduction.
//!
//! The sweep engine in `killi-bench` answers "how does scheme S perform
//! at voltage V?" for a handful of replicates. This crate answers the
//! deployment-side question the paper's yield discussion (§6) raises:
//! over a *fleet* of dies, what minimum safe voltage does each
//! protection scheme bin at, and what fraction of the fleet is usable
//! at each grid point?
//!
//! Three pieces:
//!
//! - [`search`] — the nesting-aware grid search. Voltage-nested fault
//!   models (the property `killi-fault` tests and every model declares
//!   via `voltage_nested`) make the pass predicate monotone along the
//!   grid, so Vmin bisects in `O(log G)` probes; non-nested models
//!   (`transient`) deterministically fall back to a linear scan.
//! - [`store`] — the `killi-diestore/v1` streaming die store: a
//!   write-once sparse serialization of a fleet's fault maps, folded
//!   across the whole voltage grid into per-cell bitmasks, so campaigns
//!   re-run against identical silicon without re-synthesis and peak
//!   memory stays bounded by the chunk size rather than the fleet size.
//! - [`campaign`] — the engine: per-die usable-line tables under each
//!   scheme's static admissibility rule (`killi::registry::LineRule`),
//!   parallel integer-only evaluation on the shared scoped-thread pool,
//!   sequential aggregation, and the byte-deterministic `killi-vmin/v1`
//!   report (Vmin CDF with exact order statistics, capacity-vs-vdd
//!   curves, yield tables).

pub mod campaign;
pub mod search;
pub mod store;

pub use campaign::{
    check_report, run_campaign, CampaignError, CampaignOutput, SchemeBin, ValidatedVminConfig,
    VminConfig, VminConfigError, VminReport, DEFAULT_GRID,
};
pub use search::{grid_vmin, SearchMode, SearchStats};
pub use store::{
    DieEntry, DieRecord, DieStoreReader, DieStoreWriter, StoreError, StoreMeta, MAX_GRID_POINTS,
};

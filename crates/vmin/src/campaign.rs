//! Fleet-scale Vmin campaigns.
//!
//! A campaign answers the deployment question the paper's §6 yield
//! discussion raises: across a fleet of dies, what is the minimum safe
//! operating voltage *per protection scheme*, and what fraction of dies
//! bins at each grid point? Each die is synthesized from the registered
//! fault model (or streamed out of a [`crate::store`] die store),
//! reduced to per-rule usable-line tables over the voltage grid, and
//! searched with the nesting-aware engine in [`crate::search`].
//!
//! Determinism contract: the parallel phase produces only per-die
//! integer outcomes (grid indices and counts); every floating-point
//! aggregation folds sequentially in die order, so the `killi-vmin/v1`
//! report is byte-identical at any thread count and across the
//! store/direct synthesis paths.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use killi::registry::{BuildError, LineRule, SchemeConfig};
use killi_bench::exec::{par_map, Progress};
use killi_bench::fault_models::{build_fault_model, fault_model_label, FaultModelConfig};
use killi_bench::schemes::{default_registry, scheme_admissibility, scheme_label, shared_label};
use killi_bench::sweep::{validate_voltage_grid, Accumulator};
use killi_fault::model::default_registry as default_fault_registry;
use killi_fault::rng::derive_seed;
use killi_fault::{CellFault, FaultModel, FreqGhz, NormVdd};

use crate::search::{grid_vmin, SearchMode, SearchStats};
use crate::store::{
    DieEntry, DieRecord, DieStoreReader, DieStoreWriter, StoreError, StoreMeta, MAX_GRID_POINTS,
};

/// The default campaign voltage grid: the paper's 0.6–0.65 operating
/// window widened one step in both directions so binning has headroom.
pub const DEFAULT_GRID: [f64; 7] = [0.55, 0.575, 0.6, 0.625, 0.65, 0.675, 0.7];

/// Declarative description of one Vmin campaign.
#[derive(Debug, Clone)]
pub struct VminConfig {
    /// Root seed every die seed derives from (die `i` uses the same
    /// derivation as sweep replicate `i`, so stores and sweeps agree).
    pub root_seed: u64,
    /// Dies in the fleet.
    pub dies: usize,
    /// Cache lines per die.
    pub lines: usize,
    /// Usable-line fraction a die must keep to pass a grid point.
    pub target: f64,
    /// Voltage grid to search (canonicalized ascending by validation).
    pub vdds: Vec<f64>,
    /// Protection schemes to bin, resolved through the scheme registry.
    pub schemes: Vec<SchemeConfig>,
    /// Fault model dies are drawn from.
    pub fault_model: FaultModelConfig,
    /// Worker threads.
    pub threads: usize,
    /// Progress cadence (print every N completed dies; 0 = silent).
    pub progress_every: usize,
    /// Optional die-store path: reused when it exists, built (then
    /// streamed from) when it does not.
    pub store: Option<PathBuf>,
    /// Search algorithm selection (the default `Auto` is production;
    /// `Exhaustive` is the oracle the property tests compare against).
    pub search: SearchMode,
}

impl Default for VminConfig {
    fn default() -> Self {
        VminConfig {
            root_seed: 42,
            dies: 100,
            lines: 4096,
            target: 0.99,
            vdds: DEFAULT_GRID.to_vec(),
            schemes: vec![killi_bench::schemes::SchemeSpec::Killi(64).config()],
            fault_model: FaultModelConfig::default(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            progress_every: 0,
            store: None,
            search: SearchMode::Auto,
        }
    }
}

/// Why a [`VminConfig`] was rejected.
#[derive(Debug)]
pub enum VminConfigError {
    /// A scheme or fault-model config failed registry resolution (the
    /// error names which).
    Registry(BuildError),
    /// The voltage grid is unusable as a search axis.
    Grid {
        /// What is wrong with it.
        reason: String,
    },
    /// A scalar knob is out of range.
    Config {
        /// What is wrong with it.
        reason: String,
    },
    /// Two scheme configs resolve to one report label, so their rows
    /// could not be told apart in the report.
    DuplicateLabel {
        /// The label both configs share.
        label: String,
    },
}

impl std::fmt::Display for VminConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VminConfigError::Registry(e) => write!(f, "invalid {}: {e}", e.axis().noun()),
            VminConfigError::Grid { reason } => write!(f, "invalid voltage grid: {reason}"),
            VminConfigError::Config { reason } => write!(f, "invalid campaign config: {reason}"),
            VminConfigError::DuplicateLabel { label } => {
                write!(f, "two schemes share the report label `{label}`")
            }
        }
    }
}

impl std::error::Error for VminConfigError {}

impl From<BuildError> for VminConfigError {
    fn from(e: BuildError) -> Self {
        VminConfigError::Registry(e)
    }
}

impl VminConfig {
    /// Validates the config and canonicalizes it: grid sorted ascending,
    /// every scheme and the fault model respelled canonically. The
    /// returned proof type is what [`run_campaign`] takes, and its
    /// [`ValidatedVminConfig::canonical_json`] is the content-address
    /// key the sweep service caches campaigns under.
    pub fn validated(mut self) -> Result<ValidatedVminConfig, VminConfigError> {
        validate_voltage_grid(&self.vdds).map_err(|reason| VminConfigError::Grid { reason })?;
        if self.vdds.len() > MAX_GRID_POINTS {
            return Err(VminConfigError::Grid {
                reason: format!(
                    "at most {MAX_GRID_POINTS} grid points (die-store masks are 64-bit), got {}",
                    self.vdds.len()
                ),
            });
        }
        if self.schemes.is_empty() {
            return Err(VminConfigError::Config {
                reason: "a campaign needs at least one scheme".to_string(),
            });
        }
        let registry = default_registry();
        for scheme in &mut self.schemes {
            // Resolving the admissibility rule exercises name + param
            // validation and proves the scheme supports static binning.
            scheme_admissibility(scheme)?;
            *scheme = registry.canonicalize(scheme)?;
        }
        if let Some(label) = shared_label(&self.schemes)? {
            return Err(VminConfigError::DuplicateLabel { label });
        }
        build_fault_model(&self.fault_model)?;
        self.fault_model = default_fault_registry().canonicalize(&self.fault_model)?;
        if self.dies == 0 {
            return Err(VminConfigError::Config {
                reason: "a campaign needs at least one die".to_string(),
            });
        }
        if self.lines == 0 {
            return Err(VminConfigError::Config {
                reason: "a die needs at least one line".to_string(),
            });
        }
        if !(self.target > 0.0 && self.target <= 1.0) {
            return Err(VminConfigError::Config {
                reason: format!("target {:?} outside (0, 1]", self.target),
            });
        }
        // validate_voltage_grid accepts either strict direction; the
        // campaign's grid semantics (and the die-store format) are
        // ascending, so canonicalize here.
        if self.vdds.first() > self.vdds.last() {
            self.vdds.reverse();
        }
        Ok(ValidatedVminConfig { config: self })
    }
}

/// A [`VminConfig`] that passed [`VminConfig::validated`]: schemes and
/// fault model are canonical and the grid is strictly ascending.
#[derive(Debug, Clone)]
pub struct ValidatedVminConfig {
    config: VminConfig,
}

impl ValidatedVminConfig {
    /// The validated config.
    pub fn config(&self) -> &VminConfig {
        &self.config
    }

    /// Deterministic JSON over exactly the fields that shape report
    /// bytes (schema `killi-vmin-config/v1`). Execution knobs —
    /// `threads`, `progress_every`, `store`, `search` — are excluded:
    /// the report is byte-identical across them, so configs differing
    /// only there must share a cache key.
    pub fn canonical_json(&self) -> String {
        let c = &self.config;
        let mut out = String::from("{\"schema\":\"killi-vmin-config/v1\"");
        out.push_str(&format!(",\"root_seed\":{}", c.root_seed));
        out.push_str(&format!(",\"dies\":{}", c.dies));
        out.push_str(&format!(",\"lines\":{}", c.lines));
        out.push_str(&format!(",\"target\":{}", json_f64(c.target)));
        out.push_str(&format!(
            ",\"vdds\":[{}]",
            c.vdds
                .iter()
                .map(|&v| json_f64(v))
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            ",\"schemes\":[{}]",
            c.schemes
                .iter()
                .map(SchemeConfig::to_json)
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(",\"fault_model\":{}", c.fault_model.to_json()));
        out.push('}');
        out
    }
}

/// Why a validated campaign still failed to run.
#[derive(Debug)]
pub enum CampaignError {
    /// The die store could not be written or read.
    Store(StoreError),
    /// An existing die store does not match the campaign config.
    StoreMismatch {
        /// Which metadata field disagrees.
        reason: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Store(e) => write!(f, "{e}"),
            CampaignError::StoreMismatch { reason } => {
                write!(f, "die store does not match the campaign: {reason}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Store(e)
    }
}

/// Per-scheme binning aggregate of a finished campaign.
#[derive(Debug, Clone)]
pub struct SchemeBin {
    /// Canonical scheme label.
    pub scheme: String,
    /// `hist[g]` = dies whose Vmin is exactly `vdds[g]`.
    pub hist: Vec<u64>,
    /// Dies that fail even the highest grid voltage.
    pub failed: u64,
    /// Welford accumulator over passing dies' Vmin voltages.
    pub vmin: Accumulator,
    /// Lowest / highest observed Vmin grid index among passing dies.
    pub min_idx: Option<usize>,
    /// See [`SchemeBin::min_idx`].
    pub max_idx: Option<usize>,
    /// Usable-line fraction per grid point, accumulated over all dies.
    pub capacity: Vec<Accumulator>,
}

impl SchemeBin {
    /// Exact order statistic over passing dies: the smallest grid index
    /// whose cumulative histogram count reaches `ceil(q * n)`.
    pub fn quantile_idx(&self, q: f64) -> Option<usize> {
        let n = self.vmin.n();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (g, &count) in self.hist.iter().enumerate() {
            cum += count;
            if cum >= rank {
                return Some(g);
            }
        }
        Some(self.hist.len() - 1)
    }
}

/// A finished campaign: everything the `killi-vmin/v1` report carries.
#[derive(Debug, Clone)]
pub struct VminReport {
    /// Root seed the fleet derives from.
    pub root_seed: u64,
    /// Dies evaluated.
    pub dies: usize,
    /// Lines per die.
    pub lines: usize,
    /// Usable-line fraction target.
    pub target: f64,
    /// Canonical fault-model label.
    pub fault_model: String,
    /// Whether the model is voltage-nested (bisection-eligible).
    pub nested: bool,
    /// Ascending voltage grid.
    pub vdds: Vec<f64>,
    /// Per-scheme binning aggregates, in config scheme order.
    pub schemes: Vec<SchemeBin>,
    /// Search-probe accounting summed over every die. Deliberately the
    /// only observability in the report: store traffic counters differ
    /// between the streamed and direct paths, and the report must not.
    pub stats: SearchStats,
}

/// A campaign result: the deterministic report plus the die-store
/// traffic, kept apart so the report bytes stay identical with and
/// without a die store. The search work is in the report's
/// [`VminReport::stats`].
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// The deterministic `killi-vmin/v1` report.
    pub report: VminReport,
    /// Bytes written building the die store (0 when there is no store
    /// or an existing one was reused).
    pub store_bytes_written: u64,
    /// Dies streamed out of the die store (0 on the direct path).
    pub store_dies_read: u64,
}

fn json_f64(x: f64) -> String {
    // Shortest round-trip float formatting, matching the sweep report.
    format!("{x:?}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt_f64(x: Option<f64>) -> String {
    match x {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

impl VminReport {
    /// Serializes the report as `killi-vmin/v1` JSON. Byte-determinism
    /// is part of the schema contract (golden-tested at 1/2/8 threads).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"killi-vmin/v1\",\n");
        out.push_str(&format!("  \"root_seed\": {},\n", self.root_seed));
        out.push_str(&format!("  \"dies\": {},\n", self.dies));
        out.push_str(&format!("  \"lines\": {},\n", self.lines));
        out.push_str(&format!("  \"target\": {},\n", json_f64(self.target)));
        out.push_str(&format!(
            "  \"fault_model\": {},\n",
            json_str(&self.fault_model)
        ));
        out.push_str(&format!("  \"nested_search\": {},\n", self.nested));
        out.push_str(&format!(
            "  \"vdds\": [{}],\n",
            self.vdds
                .iter()
                .map(|&v| json_f64(v))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"schemes\": [\n");
        for (i, bin) in self.schemes.iter().enumerate() {
            let n = bin.vmin.n();
            out.push_str("    {\n");
            out.push_str(&format!("      \"scheme\": {},\n", json_str(&bin.scheme)));
            out.push_str(&format!(
                "      \"vmin\": {{\"n\": {}, \"failed\": {}, \"mean\": {}, \"stddev\": {}, \
                 \"min\": {}, \"max\": {}, \"quantiles\": ",
                n,
                bin.failed,
                json_opt_f64((n > 0).then(|| bin.vmin.mean())),
                json_opt_f64((n > 0).then(|| bin.vmin.stddev())),
                json_opt_f64(bin.min_idx.map(|g| self.vdds[g])),
                json_opt_f64(bin.max_idx.map(|g| self.vdds[g])),
            ));
            if n > 0 {
                let q = |q: f64| json_opt_f64(bin.quantile_idx(q).map(|g| self.vdds[g]));
                out.push_str(&format!(
                    "{{\"p10\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    q(0.10),
                    q(0.50),
                    q(0.90),
                    q(0.99)
                ));
            } else {
                out.push_str("null");
            }
            out.push_str("},\n");
            out.push_str("      \"cdf\": [\n");
            let mut cum = 0u64;
            for (g, &count) in bin.hist.iter().enumerate() {
                cum += count;
                out.push_str(&format!(
                    "        {{\"vdd\": {}, \"dies_at_or_below\": {}, \"yield\": {}}}{}\n",
                    json_f64(self.vdds[g]),
                    cum,
                    json_f64(cum as f64 / self.dies as f64),
                    if g + 1 < bin.hist.len() { "," } else { "" }
                ));
            }
            out.push_str("      ],\n");
            out.push_str("      \"capacity\": [\n");
            for (g, acc) in bin.capacity.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"vdd\": {}, \"mean\": {}, \"stddev\": {}}}{}\n",
                    json_f64(self.vdds[g]),
                    json_f64(acc.mean()),
                    json_f64(acc.stddev()),
                    if g + 1 < bin.capacity.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.schemes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"search\": {\n");
        out.push_str(&format!("    \"dies_evaluated\": {},\n", self.dies));
        out.push_str(&format!("    \"voltage_probes\": {},\n", self.stats.probes));
        out.push_str(&format!(
            "    \"binary_searches\": {},\n",
            self.stats.binary_searches
        ));
        out.push_str(&format!(
            "    \"linear_scans\": {}\n",
            self.stats.linear_scans
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Synthesizes one die's grid-folded sparse record from the fault
/// model, preferring the memoized per-die factorization when the model
/// offers one (one RNG pass at the cap voltage instead of one per grid
/// point).
pub fn synth_record(model: &dyn FaultModel, lines: usize, grid: &[f64], seed: u64) -> DieRecord {
    let die = model.die(lines, NormVdd(grid[0]), FreqGhz::PEAK, seed);
    let mut folded: BTreeMap<(u32, u16), (bool, u64)> = BTreeMap::new();
    for (g, &vdd) in grid.iter().enumerate() {
        let map = match &die {
            Some(d) => d.map_at(NormVdd(vdd)),
            None => model.map(lines, NormVdd(vdd), FreqGhz::PEAK, seed),
        };
        for line in 0..lines {
            for fault in map.line(line) {
                let entry = folded
                    .entry((line as u32, fault.cell))
                    .or_insert((fault.stuck, 0));
                entry.1 |= 1 << g;
            }
        }
    }
    DieRecord {
        seed,
        entries: folded
            .into_iter()
            .map(|((line, cell), (stuck, mask))| DieEntry {
                line,
                cell,
                stuck,
                mask,
            })
            .collect(),
    }
}

/// One die's integer outcome: everything the sequential aggregation
/// phase needs, with no floats computed in parallel.
#[derive(Debug, Clone)]
struct DieOutcome {
    /// Per-scheme Vmin grid index (`-1` = fails the whole grid).
    vmin_idx: Vec<i32>,
    /// `usable[rule][g]` admissible-line counts per distinct rule.
    usable: Vec<Vec<u32>>,
    stats: SearchStats,
}

/// The shared, per-campaign inputs of [`evaluate_die`] (everything but
/// the die itself).
struct EvalContext<'a> {
    lines: usize,
    grid_len: usize,
    rules: &'a [LineRule],
    rule_of: &'a [usize],
    min_usable: u32,
    nested: bool,
    mode: SearchMode,
}

/// Reduces one die record to usable-line tables and per-scheme Vmin
/// indices.
fn evaluate_die(rec: &DieRecord, ctx: &EvalContext<'_>) -> DieOutcome {
    let &EvalContext {
        lines,
        grid_len,
        rules,
        rule_of,
        min_usable,
        nested,
        mode,
    } = ctx;
    let mut usable = vec![vec![0u32; grid_len]; rules.len()];
    let mut lines_with_entries = 0u32;
    let mut buf: Vec<CellFault> = Vec::new();
    let mut i = 0;
    while i < rec.entries.len() {
        let line = rec.entries[i].line;
        let mut j = i;
        while j < rec.entries.len() && rec.entries[j].line == line {
            j += 1;
        }
        lines_with_entries += 1;
        let group = &rec.entries[i..j];
        let union = group.iter().fold(0u64, |m, e| m | e.mask);
        for g in 0..grid_len {
            let bit = 1u64 << g;
            if union & bit == 0 {
                for table in usable.iter_mut() {
                    table[g] += 1;
                }
                continue;
            }
            buf.clear();
            buf.extend(
                group
                    .iter()
                    .filter(|e| e.mask & bit != 0)
                    .map(|e| CellFault {
                        cell: e.cell,
                        stuck: e.stuck,
                    }),
            );
            for (r, rule) in rules.iter().enumerate() {
                if rule.admits(&buf) {
                    usable[r][g] += 1;
                }
            }
        }
        i = j;
    }
    let fault_free = lines as u32 - lines_with_entries;
    for table in usable.iter_mut() {
        for count in table.iter_mut() {
            *count += fault_free;
        }
    }

    let mut stats = SearchStats::default();
    let vmin_idx = rule_of
        .iter()
        .map(|&r| {
            grid_vmin(
                grid_len,
                nested,
                mode,
                |g| usable[r][g] >= min_usable,
                &mut stats,
            )
            .map_or(-1, |g| g as i32)
        })
        .collect();
    DieOutcome {
        vmin_idx,
        usable,
        stats,
    }
}

fn check_store_meta(meta: &StoreMeta, c: &VminConfig, fm_label: &str) -> Result<(), CampaignError> {
    let mismatch = |reason: String| Err(CampaignError::StoreMismatch { reason });
    if meta.root_seed != c.root_seed {
        return mismatch(format!(
            "store root_seed {} != campaign {}",
            meta.root_seed, c.root_seed
        ));
    }
    if meta.lines as usize != c.lines {
        return mismatch(format!(
            "store lines {} != campaign {}",
            meta.lines, c.lines
        ));
    }
    if meta.grid.len() != c.vdds.len()
        || meta
            .grid
            .iter()
            .zip(c.vdds.iter())
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return mismatch(format!(
            "store grid {:?} != campaign {:?}",
            meta.grid, c.vdds
        ));
    }
    if meta.fault_model != fm_label {
        return mismatch(format!(
            "store fault model '{}' != campaign '{}'",
            meta.fault_model, fm_label
        ));
    }
    if (meta.dies as usize) < c.dies {
        return mismatch(format!(
            "store holds {} dies, campaign needs {} (die seeds depend only on index, so a larger store serves a smaller campaign — not vice versa)",
            meta.dies, c.dies
        ));
    }
    Ok(())
}

fn build_store(
    path: &Path,
    c: &VminConfig,
    model: &dyn FaultModel,
    fm_label: &str,
) -> Result<u64, CampaignError> {
    let meta = StoreMeta {
        root_seed: c.root_seed,
        lines: c.lines as u32,
        grid: c.vdds.clone(),
        fault_model: fm_label.to_string(),
        dies: c.dies as u32,
    };
    let mut writer = DieStoreWriter::create(path, meta)?;
    let threads = c.threads.max(1);
    let chunk = (threads * 4).max(1);
    let mut start = 0;
    while start < c.dies {
        let end = (start + chunk).min(c.dies);
        let seeds: Vec<u64> = (start..end)
            .map(|i| derive_seed(c.root_seed, "die", &[i as u64]))
            .collect();
        let records = par_map(threads, &seeds, None, |_, &seed| {
            synth_record(model, c.lines, &c.vdds, seed)
        });
        for rec in &records {
            writer.append(rec)?;
        }
        start = end;
    }
    Ok(writer.finish()?)
}

/// Runs a validated campaign: streams (or synthesizes) every die,
/// searches its per-scheme Vmin, and folds the fleet into a
/// [`VminReport`]. Peak memory is bounded by the chunk size (a few
/// dies per worker thread), never by the fleet size.
pub fn run_campaign(config: &ValidatedVminConfig) -> Result<CampaignOutput, CampaignError> {
    let c = config.config();
    let model = build_fault_model(&c.fault_model).expect("config validated");
    let fm_label = fault_model_label(&c.fault_model).expect("config validated");
    let nested = model.voltage_nested();
    let labels: Vec<String> = c
        .schemes
        .iter()
        .map(|s| scheme_label(s).expect("config validated"))
        .collect();
    // Distinct admissibility rules: schemes sharing a rule (killi and
    // its policy ablations, flair and secded, ...) share one usable-line
    // table per die.
    let mut rules: Vec<LineRule> = Vec::new();
    let rule_of: Vec<usize> = c
        .schemes
        .iter()
        .map(|s| {
            let rule = scheme_admissibility(s).expect("config validated");
            rules.iter().position(|&r| r == rule).unwrap_or_else(|| {
                rules.push(rule);
                rules.len() - 1
            })
        })
        .collect();

    let grid_len = c.vdds.len();
    let min_usable = (c.target * c.lines as f64).ceil() as u32;
    let mut store_bytes_written = 0;
    let mut reader = match &c.store {
        Some(path) => {
            if !path.exists() {
                store_bytes_written = build_store(path, c, model.as_ref(), &fm_label)?;
            }
            let reader = DieStoreReader::open(path)?;
            check_store_meta(reader.meta(), c, &fm_label)?;
            Some(reader)
        }
        None => None,
    };

    let mut bins: Vec<SchemeBin> = labels
        .iter()
        .map(|label| SchemeBin {
            scheme: label.clone(),
            hist: vec![0; grid_len],
            failed: 0,
            vmin: Accumulator::default(),
            min_idx: None,
            max_idx: None,
            capacity: vec![Accumulator::default(); grid_len],
        })
        .collect();
    let mut stats = SearchStats::default();

    let ctx = EvalContext {
        lines: c.lines,
        grid_len,
        rules: &rules,
        rule_of: &rule_of,
        min_usable,
        nested,
        mode: c.search,
    };
    let threads = c.threads.max(1);
    let chunk = (threads * 4).max(1);
    let progress = (c.progress_every > 0).then(|| Progress::new("vmin", c.dies, c.progress_every));
    let mut start = 0;
    while start < c.dies {
        let end = (start + chunk).min(c.dies);
        let outcomes: Vec<DieOutcome> = match reader.as_mut() {
            Some(r) => {
                // Sequential chunk read (the store is a single file),
                // parallel evaluation.
                let mut records = Vec::with_capacity(end - start);
                for i in start..end {
                    records.push(r.read_die(i)?);
                }
                par_map(threads, &records, progress.as_ref(), |_, rec| {
                    evaluate_die(rec, &ctx)
                })
            }
            None => {
                // Direct path: fuse synthesis and evaluation per die so
                // no chunk of fault maps is ever resident at once.
                let seeds: Vec<u64> = (start..end)
                    .map(|i| derive_seed(c.root_seed, "die", &[i as u64]))
                    .collect();
                par_map(threads, &seeds, progress.as_ref(), |_, &seed| {
                    let rec = synth_record(model.as_ref(), c.lines, &c.vdds, seed);
                    evaluate_die(&rec, &ctx)
                })
            }
        };
        // Sequential fold in die order: the only place floats happen.
        for outcome in &outcomes {
            stats.merge(&outcome.stats);
            for (s, bin) in bins.iter_mut().enumerate() {
                let idx = outcome.vmin_idx[s];
                if idx < 0 {
                    bin.failed += 1;
                } else {
                    let g = idx as usize;
                    bin.hist[g] += 1;
                    bin.vmin.add(c.vdds[g]);
                    bin.min_idx = Some(bin.min_idx.map_or(g, |m| m.min(g)));
                    bin.max_idx = Some(bin.max_idx.map_or(g, |m| m.max(g)));
                }
                let table = &outcome.usable[rule_of[s]];
                for (g, acc) in bin.capacity.iter_mut().enumerate() {
                    acc.add(table[g] as f64 / c.lines as f64);
                }
            }
        }
        start = end;
    }
    Ok(CampaignOutput {
        report: VminReport {
            root_seed: c.root_seed,
            dies: c.dies,
            lines: c.lines,
            target: c.target,
            fault_model: fm_label,
            nested,
            vdds: c.vdds.clone(),
            schemes: bins,
            stats,
        },
        store_bytes_written,
        store_dies_read: if reader.is_some() { c.dies as u64 } else { 0 },
    })
}

/// Validates a `killi-vmin/v1` report: schema tag, required fields, and
/// internal consistency (histogram totals, CDF monotonicity, grid
/// alignment). The checker behind `killi vmin --check`.
pub fn check_report(text: &str) -> Result<(), String> {
    let v = killi_obs::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing schema tag")?;
    if schema != "killi-vmin/v1" {
        return Err(format!("schema is '{schema}', expected 'killi-vmin/v1'"));
    }
    let dies = v
        .get("dies")
        .and_then(|d| d.as_u64())
        .ok_or("missing dies")?;
    if dies == 0 {
        return Err("dies must be positive".to_string());
    }
    v.get("root_seed")
        .and_then(|s| s.as_u64())
        .ok_or("missing root_seed")?;
    v.get("lines")
        .and_then(|l| l.as_u64())
        .ok_or("missing lines")?;
    let target = v
        .get("target")
        .and_then(|t| t.as_f64())
        .ok_or("missing target")?;
    if !(target > 0.0 && target <= 1.0) {
        return Err(format!("target {target} outside (0, 1]"));
    }
    v.get("fault_model")
        .and_then(|f| f.as_str())
        .ok_or("missing fault_model")?;
    v.get("nested_search")
        .and_then(|n| n.as_bool())
        .ok_or("missing nested_search")?;
    let vdds = v
        .get("vdds")
        .and_then(|g| g.as_array())
        .ok_or("missing vdds array")?;
    let grid: Vec<f64> = vdds
        .iter()
        .map(|p| p.as_f64().ok_or("non-numeric grid point"))
        .collect::<Result<_, _>>()?;
    validate_voltage_grid(&grid)?;
    if grid.windows(2).any(|w| w[0] > w[1]) {
        return Err("report grid must be ascending".to_string());
    }
    let schemes = v
        .get("schemes")
        .and_then(|s| s.as_array())
        .ok_or("missing schemes array")?;
    if schemes.is_empty() {
        return Err("report has no schemes".to_string());
    }
    for (i, s) in schemes.iter().enumerate() {
        let label = s
            .get("scheme")
            .and_then(|l| l.as_str())
            .ok_or(format!("scheme {i}: missing label"))?;
        let vmin = s
            .get("vmin")
            .ok_or(format!("scheme '{label}': missing vmin block"))?;
        let n = vmin
            .get("n")
            .and_then(|n| n.as_u64())
            .ok_or(format!("scheme '{label}': missing vmin.n"))?;
        let failed = vmin
            .get("failed")
            .and_then(|f| f.as_u64())
            .ok_or(format!("scheme '{label}': missing vmin.failed"))?;
        if n + failed != dies {
            return Err(format!(
                "scheme '{label}': n {n} + failed {failed} != dies {dies}"
            ));
        }
        let cdf = s
            .get("cdf")
            .and_then(|c| c.as_array())
            .ok_or(format!("scheme '{label}': missing cdf"))?;
        if cdf.len() != grid.len() {
            return Err(format!(
                "scheme '{label}': cdf has {} rows, grid has {} points",
                cdf.len(),
                grid.len()
            ));
        }
        let mut prev = 0u64;
        for (g, row) in cdf.iter().enumerate() {
            let at = row
                .get("dies_at_or_below")
                .and_then(|d| d.as_u64())
                .ok_or(format!("scheme '{label}': cdf row {g} malformed"))?;
            if at < prev {
                return Err(format!("scheme '{label}': cdf not monotone at row {g}"));
            }
            let y = row
                .get("yield")
                .and_then(|y| y.as_f64())
                .ok_or(format!("scheme '{label}': cdf row {g} missing yield"))?;
            if !(0.0..=1.0).contains(&y) {
                return Err(format!("scheme '{label}': yield {y} outside [0, 1]"));
            }
            prev = at;
        }
        if prev != n {
            return Err(format!(
                "scheme '{label}': cdf total {prev} != passing dies {n}"
            ));
        }
        let capacity = s
            .get("capacity")
            .and_then(|c| c.as_array())
            .ok_or(format!("scheme '{label}': missing capacity"))?;
        if capacity.len() != grid.len() {
            return Err(format!(
                "scheme '{label}': capacity has {} rows, grid has {} points",
                capacity.len(),
                grid.len()
            ));
        }
    }
    let search = v.get("search").ok_or("missing search block")?;
    for key in [
        "dies_evaluated",
        "voltage_probes",
        "binary_searches",
        "linear_scans",
    ] {
        search
            .get(key)
            .and_then(|k| k.as_u64())
            .ok_or(format!("search block missing {key}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_obs::params::Axis;

    fn small_config() -> VminConfig {
        VminConfig {
            root_seed: 7,
            dies: 12,
            lines: 256,
            target: 0.99,
            vdds: vec![0.55, 0.6, 0.65, 0.7],
            schemes: vec![
                killi_bench::schemes::SchemeSpec::Killi(64).config(),
                killi_bench::schemes::SchemeSpec::Flair.config(),
            ],
            threads: 2,
            ..VminConfig::default()
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = small_config();
        c.vdds = vec![0.6];
        assert!(matches!(c.validated(), Err(VminConfigError::Grid { .. })));
        let mut c = small_config();
        c.schemes.clear();
        assert!(matches!(c.validated(), Err(VminConfigError::Config { .. })));
        let mut c = small_config();
        c.dies = 0;
        assert!(matches!(c.validated(), Err(VminConfigError::Config { .. })));
        let mut c = small_config();
        c.target = 0.0;
        assert!(matches!(c.validated(), Err(VminConfigError::Config { .. })));
        let mut c = small_config();
        c.schemes[0] = SchemeConfig::new("no-such-scheme");
        assert!(matches!(
            c.validated(),
            Err(VminConfigError::Registry(e)) if e.axis() == Axis::Scheme
        ));
    }

    #[test]
    fn validation_rejects_schemes_sharing_a_label() {
        // Two spellings of one config share a row label.
        let mut c = small_config();
        c.schemes = vec![
            SchemeConfig::new("ms-ecc"),
            SchemeConfig::parse("ms-ecc:m=8,t=2").unwrap(),
        ];
        assert!(matches!(
            c.validated(),
            Err(VminConfigError::DuplicateLabel { label }) if label == "ms-ecc"
        ));
        // Distinct geometries carry distinct labels and validate.
        let mut c = small_config();
        c.schemes = vec![
            SchemeConfig::new("ms-ecc"),
            SchemeConfig::parse("ms-ecc:m=16,t=4").unwrap(),
            SchemeConfig::new("killi-no-promotion"),
            SchemeConfig::parse("killi-no-promotion:ratio=16").unwrap(),
        ];
        assert!(c.validated().is_ok());
    }

    #[test]
    fn validation_canonicalizes_grid_ascending() {
        let mut c = small_config();
        c.vdds = vec![0.7, 0.65, 0.6, 0.55];
        let v = c.validated().unwrap();
        assert_eq!(v.config().vdds, vec![0.55, 0.6, 0.65, 0.7]);
    }

    #[test]
    fn canonical_json_ignores_execution_knobs() {
        let base = small_config().validated().unwrap().canonical_json();
        let mut retuned = small_config();
        retuned.threads = 9;
        retuned.progress_every = 100;
        retuned.store = Some(PathBuf::from("/tmp/somewhere.kds"));
        retuned.search = SearchMode::Exhaustive;
        assert_eq!(retuned.validated().unwrap().canonical_json(), base);
        let mut reseeded = small_config();
        reseeded.root_seed ^= 1;
        assert_ne!(reseeded.validated().unwrap().canonical_json(), base);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let mut texts = Vec::new();
        for threads in [1, 3] {
            let mut c = small_config();
            c.threads = threads;
            let out = run_campaign(&c.validated().unwrap()).unwrap();
            texts.push(out.report.to_json());
        }
        assert_eq!(texts[0], texts[1]);
        check_report(&texts[0]).expect("report validates");
    }

    #[test]
    fn store_and_direct_paths_produce_identical_reports() {
        let dir = std::env::temp_dir().join("killi-vmin-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("campaign-{}.kds", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let direct = run_campaign(&small_config().validated().unwrap()).unwrap();
        let mut c = small_config();
        c.store = Some(path.clone());
        let stored = run_campaign(&c.clone().validated().unwrap()).unwrap();
        assert_eq!(direct.report.to_json(), stored.report.to_json());
        // Second run reuses the store rather than rebuilding.
        let reused = run_campaign(&c.validated().unwrap()).unwrap();
        assert_eq!(direct.report.to_json(), reused.report.to_json());
        assert!(stored.store_bytes_written > 0, "first run builds the store");
        assert_eq!(
            reused.store_bytes_written, 0,
            "second run must not rebuild the store"
        );
        assert!(
            reused.store_dies_read > 0,
            "second run must stream from the store"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_store_is_rejected() {
        let dir = std::env::temp_dir().join("killi-vmin-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mismatch-{}.kds", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut c = small_config();
        c.store = Some(path.clone());
        run_campaign(&c.validated().unwrap()).unwrap();
        // Same store, different seed: refuse rather than silently reuse.
        let mut other = small_config();
        other.root_seed ^= 0xdead;
        other.store = Some(path.clone());
        assert!(matches!(
            run_campaign(&other.validated().unwrap()),
            Err(CampaignError::StoreMismatch { .. })
        ));
        // A larger store serves a smaller campaign.
        let mut fewer = small_config();
        fewer.dies = 5;
        fewer.store = Some(path.clone());
        let out = run_campaign(&fewer.validated().unwrap()).unwrap();
        assert_eq!(out.report.dies, 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checker_rejects_tampered_reports() {
        let out = run_campaign(&small_config().validated().unwrap()).unwrap();
        let good = out.report.to_json();
        check_report(&good).unwrap();
        assert!(check_report("{}").is_err());
        assert!(check_report(&good.replace("killi-vmin/v1", "killi-vmin/v9")).is_err());
        assert!(check_report("not json").is_err());
        // Break the n + failed == dies invariant.
        let tampered = good.replace("\"dies\": 12", "\"dies\": 13");
        assert!(check_report(&tampered).is_err());
    }
}

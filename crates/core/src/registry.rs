//! Data-driven scheme construction: declarative [`SchemeConfig`]s resolved
//! against a [`SchemeRegistry`] of [`SchemeDescriptor`]s.
//!
//! The registry is the single place scheme names, parameters and defaults
//! live. Everything that used to hard-code scheme enums — the CLI's
//! `--scheme` parser, the bench matrix, the sweep engine — goes through
//! [`SchemeRegistry::build`], so a new protection variant (or a new axis of
//! an existing one, like ECC-cache geometry) is one descriptor, zero new
//! plumbing.
//!
//! Configs have three interchangeable spellings:
//!
//! - CLI shorthand: `killi:ratio=16,ecc_ways=8` ([`SchemeConfig::parse`])
//! - JSON (via the in-repo `killi-obs` parser):
//!   `{"name": "killi", "params": {"ratio": 16, "ecc_ways": 8}}`
//! - programmatic: [`SchemeConfig::new`] + [`SchemeConfig::with`]
//!
//! Parsing, resolution, labels and canonical JSON are the registry core
//! in [`killi_obs::params`], shared with the fault-model registry; this
//! module adds the scheme descriptors, building and line admissibility.
//! All failure modes are typed [`BuildError`]s — unknown schemes, unknown
//! or ill-typed parameters, and geometry that cannot be built (e.g. an ECC
//! cache smaller than one set) — never panics.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use killi_fault::map::{layout, CellFault, FaultMap};
use killi_obs::params::{Axis, AxisTag, Config, Descriptor, Registry};
use killi_obs::{parse_json, JsonValue, Sink};
use killi_sim::cache::CacheGeometry;
use killi_sim::protection::{LineProtection, Unprotected};

use crate::scheme::{KilliConfig, KilliScheme};

pub use killi_obs::params::{BuildError, ParamSpec, ParamValue, ResolvedParams};

/// The axis tag of scheme configs (see [`killi_obs::params::AxisTag`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeAxis {}

impl AxisTag for SchemeAxis {
    const AXIS: Axis = Axis::Scheme;
}

/// A declarative scheme instantiation: a registered name plus parameter
/// overrides (unset parameters take the descriptor's defaults).
pub type SchemeConfig = Config<SchemeAxis>;

/// Everything a scheme needs at construction time: the die's fault map,
/// the L2 geometry it protects, and the observability sink to attach.
#[derive(Debug, Clone)]
pub struct BuildCtx {
    /// Fault map of the die at the operating point.
    pub fault_map: Arc<FaultMap>,
    /// Geometry of the protected L2.
    pub geometry: CacheGeometry,
    /// Sink handed to the scheme (and its sub-components).
    pub sink: Sink,
}

impl BuildCtx {
    /// A context with no observability.
    pub fn new(fault_map: Arc<FaultMap>, geometry: CacheGeometry) -> Self {
        BuildCtx {
            fault_map,
            geometry,
            sink: Sink::none(),
        }
    }

    /// Attaches a sink to the context.
    #[must_use]
    pub fn with_sink(mut self, sink: Sink) -> Self {
        self.sink = sink;
        self
    }
}

/// Which cells of a line count against a scheme's fault budget (see
/// [`killi_fault::map::layout`]): always the data payload, plus the
/// in-array metadata cells the scheme actually stores there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellSpan {
    /// Data payload only (no in-array metadata).
    Data,
    /// Data plus the 4 stable-mode segmented-parity cells.
    DataParity4,
    /// Data plus the 16 training-mode segmented-parity cells.
    DataParity16,
    /// Data plus the SECDED checkbit cells.
    DataSecded,
    /// Data plus the DEC-TED checkbit cells.
    DataDected,
}

impl CellSpan {
    /// Whether `cell` falls inside the span.
    pub fn contains(self, cell: u16) -> bool {
        if layout::DATA.contains(&cell) {
            return true;
        }
        match self {
            CellSpan::Data => false,
            CellSpan::DataParity4 => layout::PARITY4.contains(&cell),
            CellSpan::DataParity16 => layout::PARITY16.contains(&cell),
            CellSpan::DataSecded => layout::SECDED.contains(&cell),
            CellSpan::DataDected => layout::DECTED.contains(&cell),
        }
    }
}

/// The static line-admissibility rule a resolved scheme implies: given
/// only a line's fault population, can the scheme keep the line in
/// service? This is the MBIST-oracle binning predicate — what the paper's
/// offline characterization (or Killi's converged runtime classification)
/// would decide — and what the `killi vmin` campaign probes per grid
/// voltage. It deliberately ignores runtime policy knobs (victim
/// priority, training cadence): those shape *when* a line is learned,
/// not *whether* it is ultimately usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineRule {
    /// Admissible when at most `max_faults` cells across `span` are
    /// faulty (per-line codes: parity classification, SECDED, DEC-TED).
    Total {
        /// Cells counting against the budget.
        span: CellSpan,
        /// Maximum tolerable faulty cells in the span.
        max_faults: u32,
    },
    /// The data payload divides into `block_cells`-cell blocks, each
    /// independently correcting up to `max_faults` faults (OLSC codes).
    PerBlock {
        /// Data cells per code block.
        block_cells: u32,
        /// Maximum tolerable faulty cells per block.
        max_faults: u32,
    },
}

impl LineRule {
    /// Whether a line with this fault population stays usable.
    pub fn admits(&self, faults: &[CellFault]) -> bool {
        match *self {
            LineRule::Total { span, max_faults } => {
                let count = faults.iter().filter(|f| span.contains(f.cell)).count();
                count <= max_faults as usize
            }
            LineRule::PerBlock {
                block_cells,
                max_faults,
            } => {
                let block = |c: u16| c as u32 / block_cells.max(1);
                for f in faults.iter().filter(|f| layout::DATA.contains(&f.cell)) {
                    let in_block = faults
                        .iter()
                        .filter(|g| {
                            layout::DATA.contains(&g.cell) && block(g.cell) == block(f.cell)
                        })
                        .count();
                    if in_block > max_faults as usize {
                        return false;
                    }
                }
                true
            }
        }
    }
}

/// Signature of a descriptor's build function: resolved parameters plus a
/// build context yield a scheme or a typed error.
pub type BuildFn = fn(&ResolvedParams, &BuildCtx) -> Result<Box<dyn LineProtection>, BuildError>;

/// A registered scheme: name, documentation, parameter schema, and the
/// label/build functions.
#[derive(Debug)]
pub struct SchemeDescriptor {
    /// Registered name (what `--scheme` selects).
    pub name: &'static str,
    /// One-line description for `killi schemes`.
    pub doc: &'static str,
    /// Declared parameters with defaults.
    pub params: Vec<ParamSpec>,
    /// Report label for a resolved config (the strings pinned by report
    /// schemas, e.g. `killi-1:64`).
    pub label: fn(&ResolvedParams) -> String,
    /// Builds the scheme (without sink attachment; the registry attaches
    /// the context's sink after a successful build).
    pub build: BuildFn,
    /// The static line-admissibility rule of a resolved config (the
    /// binning predicate the Vmin campaign evaluates per grid voltage).
    pub admissibility: fn(&ResolvedParams) -> LineRule,
}

impl Descriptor for SchemeDescriptor {
    type Tag = SchemeAxis;

    fn name(&self) -> &'static str {
        self.name
    }

    fn doc(&self) -> &'static str {
        self.doc
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn label(&self, params: &ResolvedParams) -> String {
        (self.label)(params)
    }
}

/// The ordered collection of registered schemes: the shared
/// [`Registry`] core (resolution, labels, canonical JSON), plus building
/// and the scheme-only helpers.
#[derive(Debug, Default)]
pub struct SchemeRegistry(Registry<SchemeDescriptor>);

impl Deref for SchemeRegistry {
    type Target = Registry<SchemeDescriptor>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for SchemeRegistry {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchemeRegistry::default()
    }

    /// The static line-admissibility rule of a config (see [`LineRule`]).
    pub fn admissibility(&self, config: &SchemeConfig) -> Result<LineRule, BuildError> {
        let (descriptor, resolved) = self.resolve(config)?;
        Ok((descriptor.admissibility)(&resolved))
    }

    /// Builds a config into a live scheme with the context's sink attached.
    pub fn build(
        &self,
        config: &SchemeConfig,
        ctx: &BuildCtx,
    ) -> Result<Box<dyn LineProtection>, BuildError> {
        let (descriptor, resolved) = self.resolve(config)?;
        let mut scheme = (descriptor.build)(&resolved, ctx)?;
        scheme.attach_sink(ctx.sink.clone());
        Ok(scheme)
    }

    /// Whether a config names the unprotected baseline (runs on a
    /// fault-free map in matrix/sweep runs).
    pub fn is_baseline(config: &SchemeConfig) -> bool {
        config.name == "baseline"
    }

    /// Parses a comma-separated list of CLI shorthands. A segment opens a
    /// new scheme when it has no `=` or when a `:` precedes its first `=`
    /// (so `killi:ratio=16,ecc_ways=8,dected` is two schemes).
    pub fn parse_list(input: &str) -> Result<Vec<SchemeConfig>, BuildError> {
        let mut specs: Vec<String> = Vec::new();
        for segment in input.split(',') {
            let starts_scheme = match (segment.find('='), segment.find(':')) {
                (None, _) => true,
                (Some(eq), Some(colon)) => colon < eq,
                (Some(_), None) => false,
            };
            match specs.last_mut() {
                Some(last) if !starts_scheme => {
                    last.push(',');
                    last.push_str(segment);
                }
                _ => specs.push(segment.to_string()),
            }
        }
        specs.iter().map(|s| SchemeConfig::parse(s)).collect()
    }

    /// A scheme list from JSON text: either a bare array of scheme
    /// objects or `{"schemes": [...]}`.
    pub fn list_from_json(text: &str) -> Result<Vec<SchemeConfig>, BuildError> {
        let v = parse_json(text).map_err(|e| SchemeConfig::parse_error("<json>", e.to_string()))?;
        let items = v
            .as_array()
            .or_else(|| v.get("schemes").and_then(JsonValue::as_array))
            .ok_or_else(|| {
                let reason = "expected a scheme array or {\"schemes\": [...]}";
                SchemeConfig::parse_error("<json>", reason)
            })?;
        items.iter().map(SchemeConfig::from_json_value).collect()
    }
}

/// Resolves Killi's ECC-cache geometry: either `ratio`, or an explicit
/// `ecc_sets` x `ecc_ways` that must tile the L2 line count exactly.
fn killi_geometry(p: &ResolvedParams, lines: usize) -> Result<(usize, usize), BuildError> {
    let ways = p.u64("ecc_ways") as usize;
    let sets = p.u64("ecc_sets") as usize;
    let ratio = if sets > 0 {
        let entries = sets * ways;
        if entries == 0 || !lines.is_multiple_of(entries) {
            return Err(p.unbuildable(format!(
                "ecc_sets={sets} x ecc_ways={ways} does not divide {lines} L2 lines"
            )));
        }
        lines / entries
    } else {
        p.u64("ratio") as usize
    };
    if ratio == 0 {
        return Err(p.unbuildable("ratio must be positive"));
    }
    Ok((ratio, ways))
}

/// Builds a Killi-family scheme: the paper's configuration with the
/// resolved ECC-cache geometry and check latency, adjusted by `tweak`;
/// geometry failures become typed errors.
fn build_killi(
    p: &ResolvedParams,
    ctx: &BuildCtx,
    tweak: impl FnOnce(&mut KilliConfig),
) -> Result<Box<dyn LineProtection>, BuildError> {
    let lines = ctx.geometry.lines();
    let (ratio, ways) = killi_geometry(p, lines)?;
    let mut config = KilliConfig::with_ratio(ratio);
    config.ecc_cache.ways = ways;
    config.check_latency = p.u64("check_latency") as u32;
    tweak(&mut config);
    let fault_map = Arc::clone(&ctx.fault_map);
    let scheme = KilliScheme::try_new(config, fault_map, lines, ctx.geometry.ways)
        .map_err(|reason| p.unbuildable(reason))?;
    Ok(Box::new(scheme))
}

/// Parameter schema shared by every Killi-family descriptor.
fn killi_core_params(default_ratio: u64) -> Vec<ParamSpec> {
    vec![
        ParamSpec {
            name: "ratio",
            doc: "L2 lines per ECC-cache entry (1:N)",
            default: ParamValue::U64(default_ratio),
        },
        ParamSpec {
            name: "ecc_sets",
            doc: "explicit ECC-cache set count (0 = derive from ratio)",
            default: ParamValue::U64(0),
        },
        ParamSpec {
            name: "ecc_ways",
            doc: "ECC-cache associativity",
            default: ParamValue::U64(4),
        },
        ParamSpec {
            name: "check_latency",
            doc: "cycles added to every hit by the parity/ECC check",
            default: ParamValue::U64(1),
        },
    ]
}

/// Label of a Killi-family config: `<prefix>-1:<ratio>` normally, or
/// `<prefix>-ecc<sets>x<ways>` when explicit geometry overrides the ratio.
fn killi_label(prefix: &str, p: &ResolvedParams) -> String {
    let sets = p.u64("ecc_sets");
    if sets > 0 {
        format!("{prefix}-ecc{sets}x{}", p.u64("ecc_ways"))
    } else {
        format!("{prefix}-1:{}", p.u64("ratio"))
    }
}

/// The Killi steady state: segmented parity classifies lines over the
/// data payload plus the 4 stable-mode parity cells, and the decoupled
/// ECC cache's SECDED keeps any single-fault line usable.
const KILLI_RULE: LineRule = LineRule::Total {
    span: CellSpan::DataParity4,
    max_faults: 1,
};

/// Registers the unprotected baseline and the Killi family (the §4 design,
/// its §4.4 ablations, and the §5.2/§5.5/§5.6.2 extensions).
pub fn register_killi_schemes(registry: &mut SchemeRegistry) {
    registry.register(SchemeDescriptor {
        name: "baseline",
        doc: "unprotected L2 at nominal voltage (fault-free reference)",
        params: Vec::new(),
        label: |_| "baseline".to_string(),
        build: |_, _| Ok(Box::new(Unprotected::new())),
        admissibility: |_| LineRule::Total {
            span: CellSpan::Data,
            max_faults: 0,
        },
    });

    registry.register(SchemeDescriptor {
        name: "killi",
        doc: "the paper's scheme: DFH + segmented parity + decoupled ECC cache (§4)",
        params: {
            let mut params = killi_core_params(64);
            params.push(ParamSpec {
                name: "victim_priority",
                doc: "§4.4 victim priority b'01 > b'00 > b'10",
                default: ParamValue::Bool(true),
            });
            params.push(ParamSpec {
                name: "eviction_training",
                doc: "§4.4 classify b'01 lines on eviction",
                default: ParamValue::Bool(true),
            });
            params.push(ParamSpec {
                name: "coordinated_promotion",
                doc: "§4.4 promote ECC-cache entries with their L2 lines",
                default: ParamValue::Bool(true),
            });
            params
        },
        label: |p| {
            // Disabled policy switches must show in reports, or a sweep
            // axing over them emits indistinguishable rows.
            let mut label = killi_label("killi", p);
            for (flag, suffix) in [
                ("victim_priority", "-no-victim-prio"),
                ("eviction_training", "-no-evict-train"),
                ("coordinated_promotion", "-no-promotion"),
            ] {
                if !p.bool(flag) {
                    label.push_str(suffix);
                }
            }
            label
        },
        build: |p, ctx| {
            build_killi(p, ctx, |c| {
                c.victim_priority = p.bool("victim_priority");
                c.eviction_training = p.bool("eviction_training");
                c.coordinated_promotion = p.bool("coordinated_promotion");
            })
        },
        // §4.4's policy switches change *when* lines are learned, never
        // which lines are ultimately usable: SECDED in the ECC cache keeps
        // any 1-fault line in service.
        admissibility: |_| KILLI_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "killi-no-victim-prio",
        doc: "Killi ablation: §4.4 victim priority off",
        params: killi_core_params(64),
        label: |_| "killi-no-victim-prio".to_string(),
        build: |p, ctx| build_killi(p, ctx, |c| c.victim_priority = false),
        admissibility: |_| KILLI_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "killi-no-evict-train",
        doc: "Killi ablation: §4.4 eviction training off",
        params: killi_core_params(64),
        label: |_| "killi-no-evict-train".to_string(),
        build: |p, ctx| build_killi(p, ctx, |c| c.eviction_training = false),
        admissibility: |_| KILLI_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "killi-no-promotion",
        doc: "Killi ablation: §4.4 coordinated promotion off",
        params: killi_core_params(64),
        label: |_| "killi-no-promotion".to_string(),
        build: |p, ctx| build_killi(p, ctx, |c| c.coordinated_promotion = false),
        admissibility: |_| KILLI_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "killi-dected",
        doc: "Killi + §5.2 DEC-TED upgrade (two-fault lines stay usable)",
        params: killi_core_params(64),
        label: |p| killi_label("killi-dected", p),
        build: |p, ctx| build_killi(p, ctx, |c| c.dected_upgrade = true),
        admissibility: |_| LineRule::Total {
            span: CellSpan::DataParity4,
            max_faults: 2,
        },
    });

    registry.register(SchemeDescriptor {
        name: "killi-invchk",
        doc: "Killi + §5.6.2 inverted-write check at install time",
        params: {
            let mut params = killi_core_params(64);
            params.push(ParamSpec {
                name: "penalty",
                doc: "cycles charged per inverted-write-checked fill",
                default: ParamValue::U64(4),
            });
            params
        },
        label: |p| killi_label("killi-invchk", p),
        build: |p, ctx| {
            build_killi(p, ctx, |c| {
                c.inverted_write_check = true;
                c.inverted_check_penalty = p.u64("penalty") as u32;
            })
        },
        admissibility: |_| KILLI_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "killi-olsc",
        doc: "Killi + §5.5 OLSC(8, 2) payloads (the low-Vmin chaser)",
        params: killi_core_params(8),
        label: |p| killi_label("killi-olsc", p),
        build: |p, ctx| build_killi(p, ctx, |c| c.olsc_mode = true),
        // OLSC(8, 2) payloads: 64-cell data blocks, 2 corrections each.
        admissibility: |_| LineRule::PerBlock {
            block_cells: 64,
            max_faults: 2,
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> SchemeRegistry {
        let mut reg = SchemeRegistry::new();
        register_killi_schemes(&mut reg);
        reg
    }

    fn ctx(lines: usize) -> BuildCtx {
        BuildCtx::new(
            Arc::new(FaultMap::fault_free(lines)),
            CacheGeometry {
                size_bytes: lines * 64,
                ways: 16,
                line_bytes: 64,
            },
        )
    }

    #[test]
    fn parse_list_splits_on_scheme_starts() {
        let list = SchemeRegistry::parse_list("killi:ratio=16,ecc_ways=8,dected,flair").unwrap();
        let names: Vec<&str> = list.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["killi", "dected", "flair"]);
        assert_eq!(list[0].get("ecc_ways"), Some(&ParamValue::U64(8)));

        let list = SchemeRegistry::parse_list("dected,killi:ratio=32").unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].get("ratio"), Some(&ParamValue::U64(32)));
    }

    #[test]
    fn unknown_scheme_and_param_are_typed_errors() {
        let reg = registry();
        assert_eq!(
            reg.validate(&SchemeConfig::new("frobnicate")),
            Err(BuildError::Unknown {
                axis: Axis::Scheme,
                name: "frobnicate".to_string()
            })
        );
        let cfg = SchemeConfig::new("killi").with("rato", ParamValue::U64(16));
        assert!(matches!(
            reg.validate(&cfg),
            Err(BuildError::UnknownParam { .. })
        ));
        let cfg = SchemeConfig::new("killi").with("ratio", ParamValue::Str("lots".into()));
        assert!(matches!(
            reg.validate(&cfg),
            Err(BuildError::InvalidParam { .. })
        ));
    }

    #[test]
    fn geometry_errors_are_typed_not_panics() {
        let reg = registry();
        // ways > entries: the ECC cache would be smaller than one set.
        let cfg = SchemeConfig::parse("killi:ratio=1024,ecc_ways=8").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Unbuildable { .. }), "{err}");
        // Explicit sets x ways that do not tile the L2.
        let cfg = SchemeConfig::parse("killi:ecc_sets=3,ecc_ways=4").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Unbuildable { .. }), "{err}");
        // ratio = 0.
        let cfg = SchemeConfig::parse("killi:ratio=0").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Unbuildable { .. }), "{err}");
    }

    #[test]
    fn labels_match_the_pinned_report_strings() {
        let reg = registry();
        let label = |s: &str| reg.label(&SchemeConfig::parse(s).unwrap()).unwrap();
        assert_eq!(label("baseline"), "baseline");
        assert_eq!(label("killi:ratio=16"), "killi-1:16");
        assert_eq!(label("killi"), "killi-1:64");
        assert_eq!(label("killi-dected:ratio=64"), "killi-dected-1:64");
        assert_eq!(label("killi-invchk:ratio=64"), "killi-invchk-1:64");
        assert_eq!(label("killi-olsc:ratio=8"), "killi-olsc-1:8");
        assert_eq!(label("killi-no-victim-prio"), "killi-no-victim-prio");
        assert_eq!(label("killi:ecc_sets=16,ecc_ways=8"), "killi-ecc16x8");
    }

    #[test]
    fn disabled_policy_switches_show_in_the_label() {
        let reg = registry();
        let label = |s: &str| reg.label(&SchemeConfig::parse(s).unwrap()).unwrap();
        assert_eq!(
            label("killi:victim_priority=false"),
            "killi-1:64-no-victim-prio"
        );
        assert_eq!(
            label("killi:ratio=16,eviction_training=false,coordinated_promotion=false"),
            "killi-1:16-no-evict-train-no-promotion"
        );
        // Explicit defaults leave the pinned strings untouched.
        assert_eq!(label("killi:victim_priority=true"), "killi-1:64");
    }

    #[test]
    fn explicit_geometry_builds_and_sweeps_new_axes() {
        let reg = registry();
        // 1024 lines / (16 sets x 8 ways) = ratio 8.
        let cfg = SchemeConfig::parse("killi:ecc_sets=16,ecc_ways=8").unwrap();
        let scheme = reg.build(&cfg, &ctx(1024)).unwrap();
        assert_eq!(scheme.name(), "killi");
    }

    #[test]
    fn json_round_trip_preserves_the_config() {
        let cfg = SchemeConfig::parse("killi:ratio=16,ecc_ways=8,victim_priority=false").unwrap();
        let back = SchemeConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);

        let list_json = format!(
            "{{\"schemes\": [{}, {}]}}",
            cfg.to_json(),
            SchemeConfig::new("baseline").to_json()
        );
        let list = SchemeRegistry::list_from_json(&list_json).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], cfg);
        assert!(SchemeRegistry::is_baseline(&list[1]));
    }

    #[test]
    fn every_spelling_canonicalizes_identically() {
        let reg = registry();
        // Shorthand, expanded JSON, reordered keys, and explicit
        // defaults are all the same scheme, so they must canonicalize
        // to byte-identical JSON (the cache-key property).
        let spellings = [
            SchemeConfig::parse("killi:ratio=16").unwrap(),
            SchemeConfig::from_json(r#"{"name": "killi", "params": {"ratio": 16}}"#).unwrap(),
            SchemeConfig::from_json(r#"{"name": "killi", "params": {"ecc_ways": 4, "ratio": 16}}"#)
                .unwrap(),
            SchemeConfig::parse("killi:check_latency=1,ratio=16,victim_priority=true").unwrap(),
            // A float spelling of an integral value coerces to U64.
            SchemeConfig::new("killi").with("ratio", ParamValue::F64(16.0)),
        ];
        let canon = reg.canonical_json(&spellings[0]).unwrap();
        for s in &spellings[1..] {
            assert_eq!(reg.canonical_json(s).unwrap(), canon, "spelling {s}");
        }
        // ...and a different ratio does not collide.
        let other = reg
            .canonical_json(&SchemeConfig::parse("killi:ratio=32").unwrap())
            .unwrap();
        assert_ne!(other, canon);
    }

    #[test]
    fn canonical_form_spells_every_declared_param() {
        let reg = registry();
        let canon = reg
            .canonicalize(&SchemeConfig::parse("killi:ratio=16").unwrap())
            .unwrap();
        let declared = &reg.descriptor("killi").unwrap().params;
        assert_eq!(canon.params.len(), declared.len());
        for (spec, (key, _)) in declared.iter().zip(canon.params.iter()) {
            assert_eq!(spec.name, key, "params must follow descriptor order");
        }
        // Canonicalizing is idempotent.
        assert_eq!(reg.canonicalize(&canon).unwrap(), canon);
    }

    #[test]
    fn canonicalization_rejects_what_resolution_rejects() {
        let reg = registry();
        assert!(matches!(
            reg.canonicalize(&SchemeConfig::new("frobnicate")),
            Err(BuildError::Unknown { .. })
        ));
        assert!(matches!(
            reg.canonicalize(&SchemeConfig::new("killi").with("rato", ParamValue::U64(1))),
            Err(BuildError::UnknownParam { .. })
        ));
    }

    #[test]
    fn admissibility_rules_match_the_scheme_semantics() {
        let reg = registry();
        let rule = |s: &str| reg.admissibility(&SchemeConfig::parse(s).unwrap()).unwrap();
        assert_eq!(
            rule("baseline"),
            LineRule::Total {
                span: CellSpan::Data,
                max_faults: 0
            }
        );
        // Every runtime-policy ablation shares the steady-state rule.
        for s in [
            "killi",
            "killi:ratio=16",
            "killi-no-victim-prio",
            "killi-no-evict-train",
            "killi-no-promotion",
            "killi-invchk",
        ] {
            assert_eq!(rule(s), KILLI_RULE, "{s}");
        }
        assert_eq!(
            rule("killi-dected"),
            LineRule::Total {
                span: CellSpan::DataParity4,
                max_faults: 2
            }
        );
        assert_eq!(
            rule("killi-olsc"),
            LineRule::PerBlock {
                block_cells: 64,
                max_faults: 2
            }
        );
        assert!(matches!(
            reg.admissibility(&SchemeConfig::new("frobnicate")),
            Err(BuildError::Unknown { .. })
        ));
    }

    #[test]
    fn line_rules_admit_exactly_the_tolerable_fault_populations() {
        let fault = |cell: u16| CellFault { cell, stuck: true };
        let killi = KILLI_RULE;
        assert!(killi.admits(&[]));
        assert!(killi.admits(&[fault(3)]));
        assert!(killi.admits(&[fault(512)])); // stable-mode parity cell
        assert!(!killi.admits(&[fault(3), fault(512)]));
        // Cells outside the span never count: the 16-bit training parity
        // tail and the SECDED/DECTED checkbit regions are not stored by
        // the stable-mode Killi line.
        assert!(killi.admits(&[fault(1), fault(520), fault(530), fault(545)]));

        let baseline = LineRule::Total {
            span: CellSpan::Data,
            max_faults: 0,
        };
        assert!(baseline.admits(&[fault(516)]));
        assert!(!baseline.admits(&[fault(0)]));

        let olsc = LineRule::PerBlock {
            block_cells: 64,
            max_faults: 2,
        };
        // Two faults per block are fine, even in every block...
        let spread: Vec<CellFault> = (0..8)
            .flat_map(|b| [fault(b * 64), fault(b * 64 + 1)])
            .collect();
        assert!(olsc.admits(&spread));
        // ...but a third in any one block disables the line.
        assert!(!olsc.admits(&[fault(0), fault(1), fault(63)]));
        // Non-data cells are outside every OLSC block.
        assert!(olsc.admits(&[fault(0), fault(1), fault(512), fault(513)]));
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(matches!(
            SchemeConfig::from_json("{\"params\": {}}"),
            Err(BuildError::Parse { .. })
        ));
        assert!(matches!(
            SchemeConfig::from_json("{\"name\": \"killi\", \"params\": [1]}"),
            Err(BuildError::Parse { .. })
        ));
        assert!(matches!(
            SchemeRegistry::list_from_json("{\"name\": \"killi\"}"),
            Err(BuildError::Parse { .. })
        ));
    }
}

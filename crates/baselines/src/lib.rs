//! Baseline low-voltage protection schemes the paper compares Killi
//! against (§5.1–§5.2).
//!
//! - [`per_line::PerLineEcc`] — pre-characterized per-line SECDED (FLAIR's
//!   steady state) and DEC-TED baselines,
//! - [`msecc::MsEcc`] — Orthogonal-Latin-Square MS-ECC, the
//!   strongest/most-expensive scheme,
//! - [`flair_online::FlairOnline`] — FLAIR's online DMR + rotating-MBIST
//!   training mode (the overhead the paper's Figure 4 runs exclude), as an
//!   ablation.
//!
//! All baselines run on the identical simulator substrate as Killi via the
//! `LineProtection` trait; the only privileged information they receive is
//! the MBIST-equivalent oracle disable map, matching the paper's
//! methodology. Each is a `killi::pipeline::ProtectionPipeline` over the
//! pipeline layers (the types above are aliases of it, each module's
//! `build` is its one constructor), and [`register_baselines`] declares
//! them all to a [`killi::registry::SchemeRegistry`].

pub mod flair_online;
pub mod msecc;
pub mod per_line;

use std::sync::Arc;

use killi::registry::{
    BuildCtx, BuildError, CellSpan, LineRule, ParamSpec, ParamValue, ResolvedParams,
    SchemeDescriptor, SchemeRegistry,
};
use killi_sim::protection::LineProtection;

pub use flair_online::FlairOnline;
pub use msecc::MsEcc;
pub use per_line::{EccStrength, PerLineEcc};

/// Per-line SECDED keeps any single-fault line (data + checkbit cells)
/// in service; a second fault disables the line. FLAIR's steady state,
/// the plain `secded` baseline and FLAIR-online all bin lines this way.
const SECDED_RULE: LineRule = LineRule::Total {
    span: CellSpan::DataSecded,
    max_faults: 1,
};

/// The registry build of a per-line baseline (`flair`, `secded`, `dected`).
fn build_per_line(
    p: &ResolvedParams,
    ctx: &BuildCtx,
    name: &'static str,
    strength: EccStrength,
) -> Result<Box<dyn LineProtection>, BuildError> {
    let scheme = per_line::build(
        name,
        strength,
        Arc::clone(&ctx.fault_map),
        ctx.geometry.lines(),
    )
    .map_err(|reason| p.unbuildable(reason))?;
    Ok(Box::new(scheme))
}

/// Registers the baseline schemes (`flair`, `secded`, `dected`,
/// `flair-online`, `ms-ecc`) as declarative registry entries.
pub fn register_baselines(registry: &mut SchemeRegistry) {
    registry.register(SchemeDescriptor {
        name: "flair",
        doc: "per-line SECDED with >= 2-fault lines disabled (FLAIR steady state)",
        params: Vec::new(),
        label: |_| "flair".to_string(),
        build: |p, ctx| build_per_line(p, ctx, "flair", EccStrength::Secded),
        admissibility: |_| SECDED_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "secded",
        doc: "plain per-line SECDED (the Table 5 area-normalization baseline)",
        params: Vec::new(),
        label: |_| "secded".to_string(),
        build: |p, ctx| build_per_line(p, ctx, "secded", EccStrength::Secded),
        admissibility: |_| SECDED_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "dected",
        doc: "per-line DEC-TED with >= 3-fault lines disabled",
        params: Vec::new(),
        label: |_| "dected".to_string(),
        build: |p, ctx| build_per_line(p, ctx, "dected", EccStrength::Dected),
        admissibility: |_| LineRule::Total {
            span: CellSpan::DataDected,
            max_faults: 2,
        },
    });

    registry.register(SchemeDescriptor {
        name: "flair-online",
        doc: "FLAIR with its online DMR + rotating-MBIST training cost",
        params: vec![ParamSpec {
            name: "accesses_per_pair",
            doc: "L2 accesses spent testing each way pair (0 = lines x 4)",
            default: ParamValue::U64(0),
        }],
        label: |_| "flair-online".to_string(),
        build: |p, ctx| {
            let lines = ctx.geometry.lines();
            let per_pair = match p.u64("accesses_per_pair") {
                0 => lines as u64 * 4,
                n => n,
            };
            let scheme = flair_online::build(
                Arc::clone(&ctx.fault_map),
                lines,
                ctx.geometry.ways,
                per_pair,
            )
            .map_err(|reason| p.unbuildable(reason))?;
            Ok(Box::new(scheme))
        },
        // The online training cost changes runtime, not which lines
        // FLAIR's SECDED can ultimately keep in service.
        admissibility: |_| SECDED_RULE,
    });

    registry.register(SchemeDescriptor {
        name: "ms-ecc",
        doc: "OLSC(m, t) on every line, ~11-fault correction (MS-ECC, MICRO'09)",
        params: vec![
            ParamSpec {
                name: "m",
                doc: "OLSC block width in bits (4, 8 or 16)",
                default: ParamValue::U64(8),
            },
            ParamSpec {
                name: "t",
                doc: "corrections per block (1 <= t, 2t <= m+1)",
                default: ParamValue::U64(2),
            },
        ],
        label: |_| "ms-ecc".to_string(),
        build: |p, ctx| {
            let scheme = msecc::build(
                Arc::clone(&ctx.fault_map),
                ctx.geometry.lines(),
                p.u64("m") as usize,
                p.u64("t") as usize,
            )
            .map_err(|reason| p.unbuildable(reason))?;
            Ok(Box::new(scheme))
        },
        // OLSC(m, t): m*m-cell data blocks, t corrections each.
        admissibility: |p| LineRule::PerBlock {
            block_cells: (p.u64("m") * p.u64("m")) as u32,
            max_faults: p.u64("t") as u32,
        },
    });
}

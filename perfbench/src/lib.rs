//! End-to-end and per-layer benchmark of the Killi reproduction.
//!
//! One run drives the workspace through its public functions from one
//! process, in three phases that take turns (see `README.md` beside this crate for why
//! each was chosen and which layer metric should move which end-to-end
//! metric):
//!
//! - [`sweep_paper`]: Monte-Carlo `run_sweep` over the paper's grid with
//!   every registered scheme — simulator and protection layers;
//! - [`serve_mixed`]: an in-process `killi serve` driven over HTTP by
//!   closed-loop clients — framing, queue and result cache;
//! - [`vmin_fleet`]: a 13-scheme Vmin campaign that builds a die store,
//!   then answers several campaigns from it — die synthesis and store.
//!
//! Every run reports every metric, so the workloads differ in their
//! input, not their phases: the simulated trace the sweeps replay
//! (memory-bound `xsbench` or compute-bound `hacc`).
//!
//! An untraced run reports the end-to-end metrics; a traced run times
//! each layer call with [`spans`] and reports the per-layer metrics.
//! Every input derives from the run's seed.

use std::path::PathBuf;
use std::time::Instant;

use killi_repro::workloads::Workload;

pub mod output;
pub mod serve_mixed;
pub mod spans;
pub mod sweep_paper;
pub mod vmin_fleet;

pub use output::{Metric, Outcome};
use spans::Recorder;

/// Workload names, as `--workload` takes them: the simulated trace that
/// the sweep phase and the service's sweep jobs replay.
pub const WORKLOADS: [&str; 2] = ["xsbench", "hacc"];

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload seed; every die, trace and job seed derives from it.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Worker threads and client connections: the machine's parallelism.
    pub threads: usize,
    /// Directory for the span log and scratch files.
    pub out_dir: PathBuf,
}

impl RunSpec {
    /// A spec using every core and `.bench_out` under the working
    /// directory.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        RunSpec {
            seed,
            seconds,
            trace,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            out_dir: PathBuf::from(".bench_out"),
        }
    }

    /// Where a traced run writes its spans.
    pub fn span_log(&self, workload: &str) -> PathBuf {
        self.out_dir
            .join(format!("spans-{workload}-seed{}.jsonl", self.seed))
    }
}

/// Size of every phase of a run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// The sweep phase.
    pub sweep: sweep_paper::Scale,
    /// The service phase.
    pub serve: serve_mixed::Scale,
    /// The campaign phase.
    pub vmin: vmin_fleet::Scale,
}

impl Scale {
    /// The benchmark's size.
    pub const BENCH: Scale = Scale {
        sweep: sweep_paper::Scale::BENCH,
        serve: serve_mixed::Scale::BENCH,
        vmin: vmin_fleet::Scale::BENCH,
    };
}

/// How long the service is driven in each cycle of an untraced run:
/// about as long as one sweep iteration or campaign round takes, so the
/// three phases share the timed region roughly evenly.
const SERVE_SLICE_S: f64 = 1.25;

/// Runs one workload at the benchmark's scale.
pub fn run(workload: &str, spec: &RunSpec) -> Result<Outcome, String> {
    run_scaled(workload, spec, &Scale::BENCH)
}

/// Runs one workload.
///
/// Untraced, the three phases are set up, then take turns until the timed
/// region has passed: a sweep iteration, a slice of service traffic, a
/// campaign round. Every phase's figures are thus spread over the whole
/// region, not a third of it, which evens out the host's speed drifting
/// over tens of seconds.
///
/// Traced, the phases run one after the other, each for a third of the
/// timed region, recording spans into one shared recorder.
pub fn run_scaled(workload: &str, spec: &RunSpec, scale: &Scale) -> Result<Outcome, String> {
    let trace = match workload {
        "xsbench" => Workload::Xsbench,
        "hacc" => Workload::Hacc,
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    if !spec.trace {
        // The sweep first: its warm-up iteration measures the run's peak
        // memory before any other phase has allocated.
        let mut sweep = sweep_paper::Phase::start(spec, &scale.sweep, trace)?;
        let mut serve = serve_mixed::Phase::start(spec, &scale.serve, trace)?;
        let mut vmin = vmin_fleet::Phase::start(spec, &scale.vmin)?;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < spec.seconds {
            sweep.step();
            serve.step(SERVE_SLICE_S.min(spec.seconds / 3.0))?;
            vmin.step()?;
        }
        return Outcome::merge([sweep.finish(), serve.finish()?, vmin.finish()?]);
    }

    let rec = Recorder::new();
    let third = RunSpec {
        seconds: spec.seconds / 3.0,
        ..spec.clone()
    };
    let mut outcome = Outcome::merge([
        sweep_paper::traced(&third, &scale.sweep, trace, &rec)?,
        serve_mixed::traced(&third, &scale.serve, trace, &rec)?,
        vmin_fleet::traced(&third, &scale.vmin, &rec)?,
    ])?;
    // Both the sweep and the campaign synthesise dies; the fault layer's
    // time per call is over every call either made.
    for (metric, span) in [
        ("fault.die_ms", "fault.die"),
        ("fault.map_at_ms", "fault.map_at"),
    ] {
        let ns = rec
            .per_call_ns(span)
            .ok_or_else(|| format!("no `{span}` span recorded"))?;
        outcome.metrics.push(Metric::new(metric, "ms", ns / 1e6));
    }
    rec.write_jsonl(&spec.span_log(workload))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(outcome)
}

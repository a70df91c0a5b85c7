//! The campaign phase: a 13-scheme Vmin campaign on the default 7-point grid
//! that first builds a `killi-diestore/v1` store (the build pass), then
//! answers several campaigns with different `target` values from that
//! store (the reuse pass).
//!
//! The build pass is mostly die synthesis plus store writes; the reuse
//! pass skips synthesis and is store reads plus binning, so together
//! they show a synthesis gain that costs reads, or the reverse. No
//! simulation runs here, so this phase is the same in every workload.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use killi_repro::bench::exec::par_map;
use killi_repro::bench::fault_models::{build_fault_model, fault_model_label};
use killi_repro::bench::schemes::{default_registry, SchemeConfig};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::rng::derive_seed;
use killi_repro::vmin::campaign::synth_record;
use killi_repro::vmin::{
    check_report, run_campaign, DieStoreReader, DieStoreWriter, StoreMeta, ValidatedVminConfig,
    VminConfig, VminReport,
};

use crate::output::{
    cpu_timed, median, peak_rss_mb, process_cpu_s, repeated_setup, reset_peak_rss, Metric, Outcome,
};
use crate::spans::Recorder;
use crate::RunSpec;

/// Size of one round (a build pass plus a reuse pass).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Dies in the fleet.
    pub dies: usize,
    /// Cache lines per die.
    pub lines: usize,
    /// `target` of each reuse-pass campaign. The first equals the build
    /// pass's, so the two reports at that target must be byte-identical.
    pub reuse_targets: &'static [f64],
}

impl Scale {
    /// The benchmark's size: about two seconds per round on two cores,
    /// with a store of about 90 MiB (5.6 MiB per die at 4096 lines).
    /// Sixteen dies fill exactly two of the campaign's 8-die chunks on two
    /// threads.
    pub const BENCH: Scale = Scale {
        dies: 16,
        lines: 4096,
        reuse_targets: &[BUILD_TARGET, 0.999, 0.98, 0.95],
    };
}

/// The build pass's usable-line target (the campaign default).
const BUILD_TARGET: f64 = 0.99;

/// Dies of the storeless warm-up campaign in set-up.
const WARMUP_DIES: usize = 2;

/// Share of a traced run's time spent on the untraced rounds that the
/// tracing overhead is measured against.
const UNTRACED_SHARE: f64 = 0.4;

/// Every registered scheme, the fault-free baseline included.
fn schemes() -> Vec<SchemeConfig> {
    default_registry()
        .descriptors()
        .iter()
        .map(|d| SchemeConfig::new(d.name))
        .collect()
}

fn config(
    seed: u64,
    scale: &Scale,
    threads: usize,
    target: f64,
    store: Option<PathBuf>,
) -> Result<ValidatedVminConfig, String> {
    VminConfig {
        root_seed: seed,
        dies: scale.dies,
        lines: scale.lines,
        target,
        schemes: schemes(),
        threads,
        store,
        ..VminConfig::default()
    }
    .validated()
    .map_err(|e| format!("campaign config: {e}"))
}

/// Removes the die store when the run ends, however it ends.
struct StoreFile(PathBuf);

impl StoreFile {
    fn clear(&self) -> Result<(), String> {
        match std::fs::remove_file(&self.0) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("removing {}: {e}", self.0.display()))
            }
            _ => Ok(()),
        }
    }
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = self.clear();
    }
}

struct Inputs {
    build: ValidatedVminConfig,
    reuse: Vec<ValidatedVminConfig>,
}

/// Validates every campaign and runs a small storeless warm-up campaign
/// (different dies), so lazy tables and first-touch allocation are paid
/// before the timed region.
fn setup(spec: &RunSpec, scale: &Scale, store: &Path) -> Result<Inputs, String> {
    let path = Some(store.to_path_buf());
    let build = config(spec.seed, scale, spec.threads, BUILD_TARGET, path.clone())?;
    let reuse = scale
        .reuse_targets
        .iter()
        .map(|&t| config(spec.seed, scale, spec.threads, t, path.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let warmup_scale = Scale {
        dies: WARMUP_DIES,
        ..scale.clone()
    };
    let warmup = config(
        derive_seed(spec.seed, "warmup", &[]),
        &warmup_scale,
        spec.threads,
        BUILD_TARGET,
        None,
    )?;
    black_box(run_campaign(&warmup).map_err(|e| e.to_string())?);
    Ok(Inputs { build, reuse })
}

/// One untraced round: the build pass, then the reuse pass, each timed
/// in process CPU seconds.
struct Round {
    build_s: f64,
    reuse_s: f64,
    /// Peak resident MiB during the round. A per-layer metric here, not
    /// the end-to-end `peak_rss_mb`: fresh processes running the same
    /// seed settle at about 95, 130 or 155 MiB depending on which glibc
    /// malloc arenas the campaign's short-lived worker threads draw,
    /// wider apart than any bound the benchmark may set.
    peak_mb: f64,
    build: String,
    reuse: Vec<String>,
}

fn campaign(config: &ValidatedVminConfig) -> Result<VminReport, String> {
    run_campaign(config)
        .map(|out| out.report)
        .map_err(|e| format!("campaign: {e}"))
}

fn round(inputs: &Inputs, store: &StoreFile) -> Result<Round, String> {
    store.clear()?;
    reset_peak_rss()?;
    let (build, build_s) = cpu_timed(|| campaign(&inputs.build));
    let (reuse, reuse_s) = cpu_timed(|| {
        inputs
            .reuse
            .iter()
            .map(campaign)
            .collect::<Result<Vec<_>, _>>()
    });
    let (build, reuse) = (build?, reuse?);
    Ok(Round {
        build_s,
        reuse_s,
        peak_mb: peak_rss_mb()?,
        build: build.to_json(),
        reuse: reuse.iter().map(VminReport::to_json).collect(),
    })
}

/// Output checks; returns the failed dies. Every report must pass
/// `check_report`; the build-pass and reuse-pass reports at the build
/// target must be byte-identical; every round must repeat the first.
fn check(rounds: &[Round], dies: u64) -> u64 {
    let first = &rounds[0];
    let mut failed = 0;
    for r in rounds {
        let bad =
            |json: &String, expected: &String| check_report(json).is_err() || json != expected;
        failed += dies * u64::from(bad(&r.build, &first.build) || r.reuse[0] != r.build);
        for (json, expected) in r.reuse.iter().zip(&first.reuse) {
            failed += dies * u64::from(bad(json, expected));
        }
    }
    failed
}

/// The phase between set-up and results: its inputs, its die store and
/// the untraced rounds run so far.
pub struct Phase {
    inputs: Inputs,
    store: StoreFile,
    setup_s: f64,
    dies: u64,
    rounds: Vec<Round>,
}

impl Phase {
    /// Sets up, five times, for `setup_s`.
    pub fn start(spec: &RunSpec, scale: &Scale) -> Result<Phase, String> {
        std::fs::create_dir_all(&spec.out_dir)
            .map_err(|e| format!("creating {}: {e}", spec.out_dir.display()))?;
        let store = StoreFile(
            spec.out_dir
                .join(format!("vmin-fleet-{}.diestore", std::process::id())),
        );
        let (inputs, setup_s) = repeated_setup(|| setup(spec, scale, &store.0), drop);
        Ok(Phase {
            inputs: inputs?,
            store,
            setup_s,
            dies: scale.dies as u64,
            rounds: Vec::new(),
        })
    }

    /// One timed round: the build pass, then the reuse pass.
    pub fn step(&mut self) -> Result<(), String> {
        self.rounds.push(round(&self.inputs, &self.store)?);
        Ok(())
    }

    fn campaigns_per_round(&self) -> u64 {
        1 + self.inputs.reuse.len() as u64
    }

    /// Output checks and the end-to-end metrics; deletes the store.
    pub fn finish(self) -> Result<Outcome, String> {
        self.store.clear()?;
        let dies = self.dies;
        let build_rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| dies as f64 / r.build_s)
            .collect();
        let reuse_dies = dies * self.inputs.reuse.len() as u64;
        let reuse_rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| reuse_dies as f64 / r.reuse_s)
            .collect();
        Ok(Outcome {
            attempted: dies * self.campaigns_per_round() * self.rounds.len() as u64,
            failed: check(&self.rounds, dies),
            metrics: vec![
                Metric::new("setup_s", "s", self.setup_s),
                Metric::new("dies_per_s", "1/cpu_s", median(&build_rates)),
                Metric::new("reuse_dies_per_s", "1/cpu_s", median(&reuse_rates)),
            ],
        })
    }
}

/// The traced phase: untraced rounds for [`UNTRACED_SHARE`] of
/// `spec.seconds`, then traced ones (spans into `rec`) for the rest;
/// reports the per-layer metrics.
pub fn traced(spec: &RunSpec, scale: &Scale, rec: &Recorder) -> Result<Outcome, String> {
    let mut phase = Phase::start(spec, scale)?;
    let start = Instant::now();
    while phase.rounds.is_empty() || start.elapsed().as_secs_f64() < spec.seconds * UNTRACED_SHARE {
        phase.step()?;
    }
    let (inputs, store, dies, rounds) = (&phase.inputs, &phase.store, phase.dies, &phase.rounds);
    let campaigns_per_round = phase.campaigns_per_round();
    let mut failed = check(rounds, dies);
    let mut attempted = dies * campaigns_per_round * rounds.len() as u64;
    let build_secs: Vec<f64> = rounds.iter().map(|r| r.build_s).collect();

    let start = Instant::now();
    let mut traced_secs = Vec::new();
    let mut first: Option<Counts> = None;
    loop {
        let (secs, counts, reports) = traced_round(rec, traced_secs.len() as u64, inputs, store)?;
        traced_secs.push(secs);
        attempted += dies * campaigns_per_round;
        let expected = first.get_or_insert(counts);
        let (build, reuse) = (&rounds[0].build, &rounds[0].reuse);
        for (json, expected) in reports.iter().zip(std::iter::once(build).chain(reuse)) {
            failed += dies * u64::from(json != expected);
        }
        failed += dies * u64::from(*expected != counts);
        if start.elapsed().as_secs_f64() >= spec.seconds * (1.0 - UNTRACED_SHARE) {
            break;
        }
    }
    store.clear()?;

    let counts = first.expect("at least one traced round");
    let per_call = |name: &str| {
        rec.per_call_ns(name)
            .ok_or_else(|| format!("no `{name}` span recorded"))
    };
    let mut metrics = Vec::new();
    for (metric, span) in [
        ("vmin.synth_record_ms", "vmin.synth_record"),
        ("vmin.store_append_ms", "vmin.store_append"),
        ("vmin.store_read_ms", "vmin.store_read"),
        ("vmin.to_json_ms", "vmin.to_json"),
    ] {
        metrics.push(Metric::new(metric, "ms", per_call(span)? / 1e6));
    }
    metrics.push(Metric::new(
        "fault.faulty_lines",
        "count",
        counts.faulty_lines as f64,
    ));
    metrics.push(Metric::new(
        "vmin.search_probes",
        "count",
        counts.search_probes as f64,
    ));
    metrics.push(Metric::new(
        "vmin.store_bytes_per_die",
        "B",
        counts.store_bytes as f64 / dies as f64,
    ));
    metrics.push(Metric::new(
        "vmin.peak_rss_mb",
        "MiB",
        median(&rounds.iter().map(|r| r.peak_mb).collect::<Vec<_>>()),
    ));
    metrics.push(Metric::new(
        "trace.overhead_ratio.vmin",
        "ratio",
        median(&traced_secs) / median(&build_secs),
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Work counts of one round, which repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    /// Lines with at least one faulty cell at the grid's lowest voltage,
    /// summed over the fleet.
    faulty_lines: u64,
    /// Grid-point pass/fail evaluations of the reuse pass's campaigns.
    /// Bisection over the 7-point grid probes 4 times per search unless
    /// the die bins at the top point or fails it, which no die of this
    /// workload does, so the count is fixed by the workload's shape.
    search_probes: u64,
    /// Size of the die store file.
    store_bytes: u64,
}

/// One round through the layers' public functions, with a span around
/// each call: per-die synthesis on the thread pool and in-order appends
/// (as `run_campaign` builds a store), the build-target campaign
/// answered from that store (together, the timed build pass), then the
/// reuse campaigns. Afterwards every die is read back and re-derived
/// through the fault model's own `die` / `map_at`, so those layers get
/// spans of their own. Returns the build CPU seconds, the counts, and the
/// report bytes of the build campaign followed by the reuse campaigns.
fn traced_round(
    rec: &Recorder,
    it: u64,
    inputs: &Inputs,
    store: &StoreFile,
) -> Result<(f64, Counts, Vec<String>), String> {
    let c = inputs.build.config();
    let model = build_fault_model(&c.fault_model).map_err(|e| e.to_string())?;
    let label = fault_model_label(&c.fault_model).map_err(|e| e.to_string())?;
    let seeds: Vec<u64> = (0..c.dies)
        .map(|i| derive_seed(c.root_seed, "die", &[i as u64]))
        .collect();
    store.clear()?;
    let root_id = rec.open("vmin.round", None, it);
    let root = Some(root_id);

    let cpu_start = process_cpu_s();
    let meta = StoreMeta {
        root_seed: c.root_seed,
        lines: c.lines as u32,
        grid: c.vdds.clone(),
        fault_model: label,
        dies: c.dies as u32,
    };
    let store_err = |e: killi_repro::vmin::StoreError| format!("die store: {e}");
    let mut writer = DieStoreWriter::create(&store.0, meta).map_err(store_err)?;
    let threads = c.threads.max(1);
    for chunk in seeds.chunks(threads * 4) {
        let records = par_map(threads, chunk, None, |_, &seed| {
            rec.time("vmin.synth_record", root, it, || {
                synth_record(model.as_ref(), c.lines, &c.vdds, seed)
            })
        });
        for r in &records {
            rec.time("vmin.store_append", root, it, || writer.append(r))
                .map_err(store_err)?;
        }
    }
    let store_bytes = writer.finish().map_err(store_err)?;
    let report = rec.time("vmin.run_campaign", root, it, || campaign(&inputs.build))?;
    let build_s = process_cpu_s() - cpu_start;
    let reuse = inputs
        .reuse
        .iter()
        .map(|config| rec.time("vmin.run_campaign", root, it, || campaign(config)))
        .collect::<Result<Vec<_>, _>>()?;

    let mut reader = DieStoreReader::open(&store.0).map_err(store_err)?;
    for i in 0..c.dies {
        black_box(
            rec.time("vmin.store_read", root, it, || reader.read_die(i))
                .map_err(store_err)?,
        );
    }
    let json = rec.time_repeated("vmin.to_json", root, it, 20, || report.to_json());
    let mut faulty_lines = 0;
    for &seed in &seeds {
        let cap = NormVdd(c.vdds[0]);
        let die = rec
            .time("fault.die", root, it, || {
                model.die(c.lines, cap, FreqGhz::PEAK, seed)
            })
            .ok_or("the campaign's fault model has no per-die factorization")?;
        for &vdd in &c.vdds {
            let map = rec.time("fault.map_at", root, it, || die.map_at(NormVdd(vdd)));
            if vdd == c.vdds[0] {
                faulty_lines += (0..map.lines())
                    .filter(|&l| !map.line(l).is_empty())
                    .count() as u64;
            }
        }
    }
    rec.close(root_id);
    let counts = Counts {
        faulty_lines,
        search_probes: reuse.iter().map(|r| r.stats.probes).sum(),
        store_bytes,
    };
    let mut reports = vec![json];
    reports.extend(reuse.iter().map(VminReport::to_json));
    Ok((build_s, counts, reports))
}

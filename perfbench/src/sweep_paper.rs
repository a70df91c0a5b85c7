//! The sweep phase: Monte-Carlo `run_sweep` over the paper's voltage
//! grid (0.65 / 0.625 / 0.6) with every registered scheme, on the run's
//! workload trace (`xsbench`, memory-bound, or `hacc`, compute-bound).
//!
//! The simulator and the protection layers do almost all the work; the
//! MS-ECC and `killi-olsc` cells dominate, so codec cost shows. Fault
//! synthesis is a small share: one die per replicate. The modelled
//! caches start cold in every cell by design — Killi's DFH training from
//! reset is part of what is simulated. The model is unvalidated against
//! hardware, so simulated statistics serve as output checks only.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use killi_repro::bench::exec::par_map;
use killi_repro::bench::fault_models::build_fault_model;
use killi_repro::bench::runner::{run_cell_traced, ObsConfig, RunResult};
use killi_repro::bench::schemes::{default_registry, SchemeConfig};
use killi_repro::bench::sweep::{
    run_sweep, run_sweep_reference, Accumulator, SweepConfig, SweepReport,
};
use killi_repro::core::ecc_cache::{EccCache, EccCacheConfig, EccPayload};
use killi_repro::ecc::bch::dected;
use killi_repro::ecc::olsc::OlscLine;
use killi_repro::ecc::parity::seg16;
use killi_repro::ecc::secded::secded;
use killi_repro::ecc::Line512;
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::FaultMap;
use killi_repro::fault::rng::derive_seed;
use killi_repro::obs::Counter;
use killi_repro::sim::trace::{Trace, TraceOp};
use killi_repro::workloads::{TraceParams, Workload};

use crate::output::{
    cpu_timed, median, peak_rss_mb, repeated_setup, reset_peak_rss, Metric, Outcome,
};
use crate::spans::Recorder;
use crate::RunSpec;

/// Size of one sweep.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Operations per CU stream.
    pub ops_per_cu: usize,
    /// Monte-Carlo replicates per cell.
    pub replications: usize,
    /// Minimum wall time of one batched span of nanosecond-scale calls
    /// (codec checks, ECC-cache probes).
    pub batch: Duration,
}

impl Scale {
    /// The benchmark's size: about a second per sweep on two cores.
    pub const BENCH: Scale = Scale {
        ops_per_cu: 2000,
        replications: 2,
        batch: Duration::from_millis(20),
    };
}

/// Share of a traced run's time spent on the untraced pass that the
/// tracing overhead is measured against.
const UNTRACED_SHARE: f64 = 0.4;

/// Every registered scheme except the fault-free baseline, which the
/// sweep runs implicitly once per (workload, replicate).
fn schemes() -> Vec<SchemeConfig> {
    default_registry()
        .descriptors()
        .iter()
        .filter(|d| d.name != "baseline")
        .map(|d| SchemeConfig::new(d.name))
        .collect()
}

/// The sweep every iteration runs.
fn config(seed: u64, scale: &Scale, trace: Workload, threads: usize) -> SweepConfig {
    let mut config = SweepConfig::paper(scale.ops_per_cu, seed, scale.replications);
    config.schemes = schemes();
    config.workloads = vec![trace];
    config.threads = threads;
    config
}

/// Inputs prepared before the timed region.
struct Inputs {
    config: SweepConfig,
    /// Op buffers per (workload, replicate), `[w * reps + rep]`.
    traces: Vec<Arc<Vec<Vec<TraceOp>>>>,
    /// Simulated memory operations of one sweep, over every job.
    mem_ops: u64,
}

impl Inputs {
    fn reps(&self) -> usize {
        self.config.replications.max(1)
    }

    /// The trace seed `run_sweep` derives for (workload, replicate): keyed
    /// by the workload's position in `Workload::ALL`.
    fn trace_seed(&self, w: usize, rep: usize) -> u64 {
        let id = Workload::ALL
            .iter()
            .position(|&x| x == self.config.workloads[w])
            .expect("workload in ALL") as u64;
        derive_seed(self.config.root_seed, "trace", &[id, rep as u64])
    }

    fn trace_params(&self, w: usize, rep: usize) -> TraceParams {
        TraceParams {
            cus: self.config.gpu.cus,
            ops_per_cu: self.config.ops_per_cu,
            seed: self.trace_seed(w, rep),
            l2_bytes: self.config.gpu.l2.size_bytes,
        }
    }

    fn die_seed(&self, rep: usize) -> u64 {
        derive_seed(self.config.root_seed, "die", &[rep as u64])
    }
}

fn memory_ops(ops: &[Vec<TraceOp>]) -> u64 {
    ops.iter()
        .flatten()
        .filter(|op| !matches!(op, TraceOp::Compute(_)))
        .count() as u64
}

/// Validates the sweep (which test-builds every scheme) and generates
/// its traces to count the simulated memory operations.
fn setup(seed: u64, scale: &Scale, trace: Workload, threads: usize) -> Result<Inputs, String> {
    let config = config(seed, scale, trace, threads);
    config
        .clone()
        .validated()
        .map_err(|e| format!("sweep config: {e}"))?;
    let mut inputs = Inputs {
        config,
        traces: Vec::new(),
        mem_ops: 0,
    };
    let reps = inputs.reps();
    let keys: Vec<(usize, usize)> = (0..inputs.config.workloads.len())
        .flat_map(|w| (0..reps).map(move |rep| (w, rep)))
        .collect();
    inputs.traces = par_map(threads, &keys, None, |_, &(w, rep)| {
        Arc::new(inputs.config.workloads[w].ops(&inputs.trace_params(w, rep)))
    });
    // Every scheme cell and the baseline replay the same trace.
    let replays = 1 + (inputs.config.vdds.len() * inputs.config.schemes.len()) as u64;
    inputs.mem_ops = inputs.traces.iter().map(|t| memory_ops(t)).sum::<u64>() * replays;
    Ok(inputs)
}

/// The phase between set-up and results: its inputs and what its
/// untraced iterations measured.
pub struct Phase {
    inputs: Inputs,
    setup_s: f64,
    /// Peak resident MiB of the warm-up iteration.
    peak_mb: f64,
    /// The warm-up iteration's report and its bytes, which every later
    /// iteration must repeat.
    report: SweepReport,
    json: String,
    /// CPU seconds of each timed iteration.
    cpu_s: Vec<f64>,
    /// Timed iterations whose report bytes differ from the warm-up's.
    mismatched: u64,
}

impl Phase {
    /// Sets up (five times, for `setup_s`), then runs one untimed
    /// warm-up iteration. The run's peak memory is measured on that
    /// iteration: it runs before any other phase has allocated, so no
    /// other phase's leftovers count towards it.
    pub fn start(spec: &RunSpec, scale: &Scale, trace: Workload) -> Result<Phase, String> {
        let (inputs, setup_s) =
            repeated_setup(|| setup(spec.seed, scale, trace, spec.threads), drop);
        let inputs = inputs?;
        reset_peak_rss()?;
        let report = run_sweep(&inputs.config);
        let peak_mb = peak_rss_mb()?;
        let json = report.to_json();
        Ok(Phase {
            inputs,
            setup_s,
            peak_mb,
            report,
            json,
            cpu_s: Vec::new(),
            mismatched: 0,
        })
    }

    /// One timed iteration.
    pub fn step(&mut self) {
        let (report, cpu_s) = cpu_timed(|| run_sweep(&self.inputs.config));
        self.cpu_s.push(cpu_s);
        self.mismatched += u64::from(report.to_json() != self.json);
    }

    fn jobs(&self) -> u64 {
        self.inputs.config.job_count() as u64
    }

    /// Output checks and the end-to-end metrics.
    pub fn finish(self) -> Outcome {
        let jobs = self.jobs();
        let failed = self.mismatched * jobs + check(&self.inputs, &self.report);
        let rates: Vec<f64> = self
            .cpu_s
            .iter()
            .map(|s| self.inputs.mem_ops as f64 / s)
            .collect();
        Outcome {
            attempted: jobs * (1 + rates.len() as u64),
            failed,
            metrics: vec![
                Metric::new("setup_s", "s", self.setup_s),
                Metric::new("peak_rss_mb", "MiB", self.peak_mb),
                Metric::new("sim_ops_per_s", "1/cpu_s", median(&rates)),
            ],
        }
    }
}

/// Output checks outside the timed region; returns the failed jobs.
///
/// - A reduced slice (one voltage, `killi` plus one other scheme picked
///   by the seed) rerun through `run_sweep_reference` must reproduce the
///   same cells of the full report byte for byte.
/// - Each baseline replay must see exactly the memory operations counted
///   in set-up and the cycles the report aggregated, so `sim_ops_per_s`
///   counts work the sweep really did.
fn check(inputs: &Inputs, report: &SweepReport) -> u64 {
    let config = &inputs.config;
    let reps = inputs.reps();
    let mut failed = 0;

    let seed = config.root_seed as usize;
    let vdd = config.vdds[seed % config.vdds.len()];
    let other = 1 + seed % (config.schemes.len() - 1);
    let mut slice = config.clone();
    slice.vdds = vec![vdd];
    slice.schemes = vec![config.schemes[0].clone(), config.schemes[other].clone()];
    let reference = run_sweep_reference(&slice);
    let expected = SweepReport {
        vdds: slice.vdds.clone(),
        schemes: reference.schemes.clone(),
        cells: report
            .cells
            .iter()
            .filter(|c| {
                c.scheme == "baseline"
                    || (c.vdd.to_bits() == vdd.to_bits() && reference.schemes.contains(&c.scheme))
            })
            .cloned()
            .collect(),
        ..report.clone()
    };
    if expected.to_json() != reference.to_json() {
        failed += slice.job_count() as u64;
    }

    let free = Arc::new(FaultMap::fault_free(config.gpu.l2.lines()));
    let baseline = SchemeConfig::new("baseline");
    for (w, workload) in config.workloads.iter().enumerate() {
        let mut cycles = Accumulator::default();
        let mut ok = true;
        for rep in 0..reps {
            let ops = &inputs.traces[w * reps + rep];
            let r = run_cell_traced(
                *workload,
                &baseline,
                &config.gpu,
                Trace::from_shared(Arc::clone(ops)),
                &free,
                inputs.trace_seed(w, rep),
                &ObsConfig::default(),
            );
            ok &= r.stats.loads + r.stats.stores == memory_ops(ops);
            cycles.add(r.stats.cycles as f64);
        }
        let cell = report
            .cells
            .iter()
            .find(|c| c.scheme == "baseline" && c.workload == workload.name());
        if !ok || cell.map(|c| *c.metric("cycles")) != Some(cycles) {
            failed += reps as u64;
        }
    }
    failed
}

/// The traced phase: untraced iterations for [`UNTRACED_SHARE`] of
/// `spec.seconds`, then traced ones (spans into `rec`) for the rest;
/// reports the per-layer metrics.
pub fn traced(
    spec: &RunSpec,
    scale: &Scale,
    trace: Workload,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let mut phase = Phase::start(spec, scale, trace)?;
    let start = Instant::now();
    while phase.cpu_s.is_empty() || start.elapsed().as_secs_f64() < spec.seconds * UNTRACED_SHARE {
        phase.step();
    }
    let jobs = phase.jobs();
    let Phase {
        inputs,
        report,
        cpu_s: untraced,
        mismatched,
        ..
    } = phase;

    let start = Instant::now();
    let mut traced = Vec::new();
    let mut first: Option<(Counts, Artifacts)> = None;
    let mut count_mismatches = 0;
    loop {
        let (iteration, cpu_s) = cpu_timed(|| traced_iteration(rec, traced.len() as u64, &inputs));
        let (counts, artifacts) = iteration?;
        traced.push(cpu_s);
        match &first {
            None => first = Some((counts, artifacts)),
            Some((expected, _)) => count_mismatches += u64::from(*expected != counts),
        }
        if start.elapsed().as_secs_f64() >= spec.seconds * (1.0 - UNTRACED_SHARE) {
            break;
        }
    }
    let (mut counts, artifacts) = first.expect("at least one traced iteration");
    let (syndrome_checks, dfh_events) = event_counts(&inputs, &artifacts)?;
    counts.syndrome_checks = syndrome_checks;
    black_box(rec.time_repeated("sweep.to_json", None, 0, 20, || report.to_json()));
    codec_spans(rec, &inputs, &artifacts.maps, scale.batch);

    let failed = (mismatched + count_mismatches + u64::from(dfh_events != counts.dfh_transitions))
        * jobs
        + check(&inputs, &report);
    let per_call = |name: &str| {
        rec.per_call_ns(name)
            .ok_or_else(|| format!("no `{name}` span recorded"))
    };
    let mut metrics = Vec::new();
    for (metric, span) in [
        ("ecc.seg16_ns", "ecc.seg16"),
        ("ecc.secded_decode_ns", "ecc.secded_decode"),
        ("ecc.dected_decode_ns", "ecc.dected_decode"),
        ("ecc.olsc_encode_ns", "ecc.olsc_encode"),
        ("ecc.olsc_decode_ns", "ecc.olsc_decode"),
        ("core.ecc_cache_probe_ns", "core.ecc_cache_probe"),
    ] {
        metrics.push(Metric::new(metric, "ns", per_call(span)?));
    }
    for (name, value) in [
        ("core.syndrome_checks", counts.syndrome_checks),
        ("core.ecc_cache_accesses", counts.ecc_cache_accesses),
        ("core.dfh_transitions", counts.dfh_transitions),
        ("sim.l2_accesses", counts.l2_accesses),
        ("fault.faulty_lines", counts.faulty_lines),
    ] {
        metrics.push(Metric::new(name, "count", value as f64));
    }
    let mut cells = vec!["baseline".to_string()];
    cells.extend(inputs.config.schemes.iter().map(|s| s.name.clone()));
    for scheme in cells {
        let ns = per_call(&format!("runner.cell.{scheme}"))?;
        metrics.push(Metric::new(
            format!("runner.cell_ms.{scheme}"),
            "ms",
            ns / 1e6,
        ));
    }
    for (metric, span) in [
        ("workloads.ops_ms", "workloads.ops"),
        ("sweep.to_json_ms", "sweep.to_json"),
    ] {
        metrics.push(Metric::new(metric, "ms", per_call(span)? / 1e6));
    }
    metrics.push(Metric::new(
        "trace.overhead_ratio.sweep",
        "ratio",
        median(&traced) / median(&untraced),
    ));
    Ok(Outcome {
        attempted: jobs * (1 + untraced.len() + traced.len()) as u64,
        failed,
        metrics,
    })
}

/// Work counts of one sweep, which repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    /// Demand accesses reaching the modelled L2 (hits plus misses).
    l2_accesses: u64,
    /// Syndrome observations (SECDED / DEC-TED / OLSC checks) by the
    /// schemes, counted from their event stream.
    syndrome_checks: u64,
    /// ECC-cache lookups, inserts and updates by the schemes.
    ecc_cache_accesses: u64,
    /// DFH state transitions across every Killi cell.
    dfh_transitions: u64,
    /// Lines with at least one faulty cell, over every (voltage,
    /// replicate) fault map.
    faulty_lines: u64,
}

impl Counts {
    fn add(&mut self, r: &RunResult) {
        self.l2_accesses += r.stats.l2_hits + r.stats.l2_misses;
        self.ecc_cache_accesses += r.metrics.get(Counter::EccCacheAccesses);
        self.dfh_transitions += r.metrics.get(Counter::DfhTransitions);
    }
}

fn faulty_lines(map: &FaultMap) -> u64 {
    (0..map.lines())
        .filter(|&l| !map.line(l).is_empty())
        .count() as u64
}

/// Fault maps and op buffers of one sweep, shared by its jobs.
struct Artifacts {
    /// `[v * reps + rep]`.
    maps: Vec<Arc<FaultMap>>,
    /// `[w * reps + rep]`.
    traces: Vec<Arc<Vec<Vec<TraceOp>>>>,
    free: Arc<FaultMap>,
}

/// One simulation: scheme, voltage index (`None` for the fault-free
/// baseline), workload index, replicate.
type Job<'a> = (&'a SchemeConfig, Option<usize>, usize, usize);

/// The sweep's jobs in `run_sweep`'s order: baselines, then vdd-major,
/// scheme, workload, replicate.
fn jobs<'a>(inputs: &'a Inputs, baseline: &'a SchemeConfig) -> Vec<Job<'a>> {
    let config = &inputs.config;
    let (reps, workloads) = (inputs.reps(), config.workloads.len());
    let mut jobs = Vec::with_capacity(config.job_count());
    for w in 0..workloads {
        for rep in 0..reps {
            jobs.push((baseline, None, w, rep));
        }
    }
    for v in 0..config.vdds.len() {
        for scheme in &config.schemes {
            for w in 0..workloads {
                for rep in 0..reps {
                    jobs.push((scheme, Some(v), w, rep));
                }
            }
        }
    }
    jobs
}

fn run_job(inputs: &Inputs, artifacts: &Artifacts, job: Job<'_>, obs: &ObsConfig) -> RunResult {
    let (scheme, v, w, rep) = job;
    let reps = inputs.reps();
    let map = v.map_or(&artifacts.free, |v| &artifacts.maps[v * reps + rep]);
    run_cell_traced(
        inputs.config.workloads[w],
        scheme,
        &inputs.config.gpu,
        Trace::from_shared(Arc::clone(&artifacts.traces[w * reps + rep])),
        map,
        inputs.trace_seed(w, rep),
        obs,
    )
}

/// One sweep through the layers' public functions, in `run_sweep`'s
/// phase order (dies, fault maps, traces, then every simulation job on
/// the thread pool), with a span around each call.
fn traced_iteration(
    rec: &Recorder,
    it: u64,
    inputs: &Inputs,
) -> Result<(Counts, Artifacts), String> {
    let config = &inputs.config;
    let threads = config.threads;
    let reps = inputs.reps();
    let lines = config.gpu.l2.lines();
    let root_id = rec.open("sweep.iteration", None, it);
    let root = Some(root_id);
    let model = build_fault_model(&config.fault_model).map_err(|e| e.to_string())?;

    let cap = config.vdds.iter().cloned().fold(f64::INFINITY, f64::min);
    let rep_keys: Vec<usize> = (0..reps).collect();
    let dies = par_map(threads, &rep_keys, None, |_, &rep| {
        rec.time("fault.die", root, it, || {
            model.die(lines, NormVdd(cap), FreqGhz::PEAK, inputs.die_seed(rep))
        })
    })
    .into_iter()
    .collect::<Option<Vec<_>>>()
    .ok_or("the sweep's fault model has no per-die factorization")?;
    let map_keys: Vec<(usize, usize)> = (0..config.vdds.len())
        .flat_map(|v| (0..reps).map(move |rep| (v, rep)))
        .collect();
    let maps = par_map(threads, &map_keys, None, |_, &(v, rep)| {
        let vdd = NormVdd(config.vdds[v]);
        Arc::new(rec.time("fault.map_at", root, it, || dies[rep].map_at(vdd)))
    });
    let trace_keys: Vec<(usize, usize)> = (0..config.workloads.len())
        .flat_map(|w| (0..reps).map(move |rep| (w, rep)))
        .collect();
    let traces = par_map(threads, &trace_keys, None, |_, &(w, rep)| {
        Arc::new(rec.time("workloads.ops", root, it, || {
            config.workloads[w].ops(&inputs.trace_params(w, rep))
        }))
    });
    let artifacts = Artifacts {
        maps,
        traces,
        free: Arc::new(FaultMap::fault_free(lines)),
    };

    let baseline = SchemeConfig::new("baseline");
    let results = par_map(threads, &jobs(inputs, &baseline), None, |_, &job| {
        let span = format!("runner.cell.{}", job.0.name);
        rec.time(&span, root, it, || {
            run_job(inputs, &artifacts, job, &ObsConfig::default())
        })
    });
    rec.close(root_id);

    let mut counts = Counts::default();
    for r in &results {
        counts.add(r);
    }
    counts.faulty_lines = artifacts.maps.iter().map(|m| faulty_lines(m)).sum();
    Ok((counts, artifacts))
}

/// Per-job event ring capacity of the event-counting pass; above the
/// largest event count of any job at the benchmark's scale, so no event
/// is dropped.
const EVENT_CAPACITY: usize = 1 << 20;

/// Syndrome checks are not kept as a scheme counter; they exist only as
/// `syndrome_observation` events. Replays every job once with event
/// recording on (outside the timed passes) and counts them. Also returns
/// the DFH transitions seen as events, which must equal the schemes' own
/// counter.
fn event_counts(inputs: &Inputs, artifacts: &Artifacts) -> Result<(u64, u64), String> {
    let baseline = SchemeConfig::new("baseline");
    let obs = ObsConfig::traced(EVENT_CAPACITY);
    let per_job = par_map(
        inputs.config.threads,
        &jobs(inputs, &baseline),
        None,
        |_, &job| {
            let trace = run_job(inputs, artifacts, job, &obs)
                .trace
                .ok_or("event recording produced no trace")?;
            let mut lines = trace.lines();
            let header = lines.next().unwrap_or_default();
            if !header.contains("\"dropped\":0}") {
                return Err(format!("event ring overflowed: {header}"));
            }
            let mut counts = (0, 0);
            for line in lines {
                counts.0 += u64::from(line.contains("\"type\":\"syndrome_observation\""));
                counts.1 += u64::from(line.contains("\"type\":\"dfh_transition\""));
            }
            Ok(counts)
        },
    );
    per_job.into_iter().try_fold((0, 0), |acc, c| {
        let c = c?;
        Ok((acc.0 + c.0, acc.1 + c.1))
    })
}

/// Repeats `pass` (which makes `per_pass` calls) for at least `batch`,
/// as one span; returns nothing but the span.
fn batched(rec: &Recorder, name: &str, batch: Duration, per_pass: u64, mut pass: impl FnMut()) {
    rec.time_calls(name, None, 0, || {
        let start = Instant::now();
        let mut calls = 0;
        while calls == 0 || start.elapsed() < batch {
            pass();
            calls += per_pass;
        }
        calls
    });
}

/// Times each codec and the ECC-cache probe on the faulty lines of the
/// sweep's own fault maps: every faulty line's data is a seeded payload
/// with the map's stuck-at cells applied.
fn codec_spans(rec: &Recorder, inputs: &Inputs, maps: &[Arc<FaultMap>], batch: Duration) {
    let seed = inputs.config.root_seed;
    let mut clean = Vec::new();
    let mut faulty = Vec::new();
    let mut faulty_ids = Vec::new();
    for (m, map) in maps.iter().enumerate() {
        for line in (0..map.lines()).filter(|&l| !map.line(l).is_empty()) {
            let data = Line512::from_seed(derive_seed(seed, "line", &[m as u64, line as u64]));
            let mut stored = data;
            map.corrupt_data(line, &mut stored);
            clean.push(data);
            faulty.push(stored);
            faulty_ids.push(line);
        }
    }
    let n = faulty.len() as u64;

    batched(rec, "ecc.seg16", batch, n, || {
        for line in &faulty {
            black_box(seg16(black_box(line)));
        }
    });
    let secded = secded();
    let secded_codes: Vec<_> = clean.iter().map(|d| secded.encode(d)).collect();
    batched(rec, "ecc.secded_decode", batch, n, || {
        for (line, &code) in faulty.iter().zip(&secded_codes) {
            black_box(secded.decode(black_box(line), code));
        }
    });
    let dected = dected();
    let dected_codes: Vec<_> = clean.iter().map(|d| dected.encode(d)).collect();
    batched(rec, "ecc.dected_decode", batch, n, || {
        for (line, &code) in faulty.iter().zip(&dected_codes) {
            black_box(dected.decode(black_box(line), code));
        }
    });
    // OLSC(8, 2): the code MS-ECC and killi-olsc are built with by default.
    let olsc = OlscLine::new(8, 2);
    batched(rec, "ecc.olsc_encode", batch, n, || {
        for line in &clean {
            black_box(olsc.encode(black_box(line)));
        }
    });
    let olsc_codes: Vec<Vec<bool>> = clean.iter().map(|d| olsc.encode(d)).collect();
    batched(rec, "ecc.olsc_decode", batch, n, || {
        for (line, code) in faulty.iter().zip(&olsc_codes) {
            let mut data = *line;
            black_box(olsc.decode(&mut data, code));
        }
    });

    // Killi's 1:64 ECC cache holding the faulty lines of the first map,
    // probed for every L2 line as victim selection does on each fill.
    let l2 = inputs.config.gpu.l2;
    let mut cache = EccCache::new(EccCacheConfig::with_ratio(64), l2.lines(), l2.ways);
    let first_map = maps.first().map_or(0, |m| faulty_lines(m) as usize);
    for (&line, data) in faulty_ids.iter().zip(&clean).take(first_map) {
        let payload = EccPayload::Secded {
            code: secded.encode(data),
            parity_hi: 0,
        };
        cache.insert(line, payload);
    }
    batched(
        rec,
        "core.ecc_cache_probe",
        batch,
        l2.lines() as u64,
        || {
            for line in 0..l2.lines() {
                black_box(cache.probe(black_box(line)));
            }
        },
    );
}

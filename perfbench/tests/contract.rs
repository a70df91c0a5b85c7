//! The benchmark's own contract, checked on small versions of each
//! workload: every run emits exactly the metrics `BENCHMARK.json`
//! declares, in their units, and the per-layer work counts are a pure
//! function of the seed.

use std::path::PathBuf;
use std::time::Duration;

use killi_perfbench::{
    run_scaled, serve_mixed, sweep_paper, vmin_fleet, Metric, Outcome, RunSpec, Scale, WORKLOADS,
};
use killi_repro::obs::{parse_json, JsonValue};

const SWEEP: sweep_paper::Scale = sweep_paper::Scale {
    ops_per_cu: 200,
    replications: 1,
    batch: Duration::from_millis(1),
};

const VMIN: vmin_fleet::Scale = vmin_fleet::Scale {
    dies: 3,
    lines: 512,
    reuse_targets: &[0.99, 0.999, 0.95],
};

const SERVE: serve_mixed::Scale = serve_mixed::Scale {
    sweep_ops_per_cu: 100,
    vmin_dies: 1,
    vmin_lines: 128,
};

const SMALL: Scale = Scale {
    sweep: SWEEP,
    serve: SERVE,
    vmin: VMIN,
};

/// A short run writing into its own scratch directory, so tests running
/// in parallel never share a die store or span log.
fn spec(test: &str, seed: u64, trace: bool) -> RunSpec {
    RunSpec {
        seed,
        seconds: 0.6,
        trace,
        threads: 2,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

fn run(workload: &str, spec: &RunSpec) -> Outcome {
    let outcome = run_scaled(workload, spec, &SMALL).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(outcome.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(outcome.failed, 0, "{workload}: failed output checks");
    outcome
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn declared(benchmark: &JsonValue, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|entry| {
            let field = |f: &str| {
                entry
                    .get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `metrics` are exactly the declared `list`, each in its unit.
fn assert_declared(workload: &str, metrics: &[Metric], list: &[(String, String)]) {
    let mut emitted: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut expected: Vec<&str> = list.iter().map(|(name, _)| name.as_str()).collect();
    emitted.sort_unstable();
    expected.sort_unstable();
    assert_eq!(
        emitted, expected,
        "{workload}: emitted metrics differ from the declared ones"
    );
    for m in metrics {
        assert!(
            well_formed(&m.name),
            "{workload}: bad metric name `{}`",
            m.name
        );
        let unit = list
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, unit)| unit.as_str());
        assert_eq!(
            unit,
            Some(m.unit),
            "{workload}: `{}` is not declared with unit `{}`",
            m.name,
            m.unit
        );
        assert!(
            m.value.is_finite(),
            "{workload}: `{}` is not finite",
            m.name
        );
    }
}

#[test]
fn emitted_names_are_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let benchmark = parse_json(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = declared(&benchmark, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    for workload in WORKLOADS {
        assert!(well_formed(workload));
        let untraced = run(workload, &spec("names", 1, false));
        assert_declared(workload, &untraced.metrics, &end_to_end);
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{workload}: `{}` is not positive", m.name);
        }
        let traced = run(workload, &spec("names", 1, true));
        assert_declared(workload, &traced.metrics, &per_layer);
    }
}

fn counts(outcome: &Outcome, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|name| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("no `{name}` in the traced run"))
                .value
        })
        .collect()
}

/// Every count repeats exactly for a seed. The counts that depend on the
/// seed change with it; two do not:
/// - `vmin.search_probes`: bisection over the 7-point grid takes 4 probes
///   per search unless a die bins at the top point or fails it, and no
///   die of the campaign phase does, so the count is fixed by the phase's
///   shape (dies x campaigns x schemes x 4);
/// - `sim.l2_accesses` on `xsbench`: every seed tried gives the same
///   count for one trace length, so it is a property of the trace's
///   shape there.
#[test]
fn work_counts_repeat_for_a_seed_and_change_with_it() {
    let names = [
        "core.syndrome_checks",
        "fault.faulty_lines",
        "sim.l2_accesses",
        "vmin.search_probes",
    ];
    for (workload, seed_dependent) in [("xsbench", 2), ("hacc", 3)] {
        let first = counts(&run(workload, &spec("counts-a", 7, true)), &names);
        let again = counts(&run(workload, &spec("counts-b", 7, true)), &names);
        let other = counts(&run(workload, &spec("counts-c", 8, true)), &names);
        assert_eq!(
            first, again,
            "{workload}: {names:?} differ between runs of one seed"
        );
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                first[i] != other[i],
                i < seed_dependent,
                "{workload}: `{name}` and the seed"
            );
        }
        let schemes = killi_repro::bench::schemes::default_registry()
            .descriptors()
            .len();
        let searches = VMIN.dies * VMIN.reuse_targets.len() * schemes;
        assert_eq!(first[3], (searches * 4) as f64);
    }
}

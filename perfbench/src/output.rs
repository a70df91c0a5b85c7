//! The result line the benchmark prints, and the measurements every
//! phase shares: set-up time, CPU time, peak memory and order
//! statistics.

use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one benchmark run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations whose output was checked (sweep jobs, dies and HTTP
    /// requests).
    pub attempted: u64,
    /// Checked operations whose output was wrong or refused.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// One run's result from its phases' results. Attempts and failures
    /// add up. A metric more than one phase reports is combined: set-up
    /// times and counts add up; any other name reported twice is an
    /// error.
    pub fn merge(phases: impl IntoIterator<Item = Outcome>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for phase in phases {
            out.attempted += phase.attempted;
            out.failed += phase.failed;
            for m in phase.metrics {
                let Some(seen) = out.metrics.iter_mut().find(|s| s.name == m.name) else {
                    out.metrics.push(m);
                    continue;
                };
                match (m.name.as_str(), m.unit) {
                    ("setup_s", _) | (_, "count") => seen.value += m.value,
                    (name, _) => return Err(format!("two phases report `{name}`")),
                }
            }
        }
        Ok(out)
    }

    /// The single JSON line the benchmark ends its standard output with.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (`null` for a non-finite value, which a
/// reader of the result line then rejects rather than misreading).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// How many times each phase repeats its set-up; `setup_s` is the
/// median, so one slow first pass (page faults, lazy tables) does not
/// set it.
pub const SETUP_REPEATS: usize = 5;

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median duration in seconds. `discard` receives every earlier
/// result, so set-ups that own resources (a running server) can release
/// them outside the measured interval.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let value = setup();
        secs.push(start.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(value) {
            discard(previous);
        }
    }
    (last.expect("SETUP_REPEATS > 0"), median(&secs))
}

/// CPU seconds used so far by every thread of this process, live or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The batch engines' throughput is measured against this clock, not
/// wall time: on a shared two-vCPU virtual machine the hypervisor stole
/// 7-30% of the vCPUs' time, varying minute to minute, which moved
/// wall-clock rates by up to 20% between runs, while CPU time excludes
/// it.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, which is two
    // 64-bit integers on 64-bit Linux (the only target, see below), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process clocks and /proc; it needs 64-bit Linux");

/// Runs `f` and returns its result with the process CPU seconds it took
/// (every thread `f` runs on included).
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = process_cpu_s();
    let out = f();
    (out, process_cpu_s() - start)
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident set, so [`peak_rss_mb`] then reports the peak since the reset:
/// the peak of the timed work, without set-up transients or the output
/// checks.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing `{line}`: {e}"))?;
    Ok(kib / 1024.0)
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn merging_phases() {
        let phase = |setup, lines, own: &str| Outcome {
            attempted: 2,
            failed: 1,
            metrics: vec![
                Metric::new("setup_s", "s", setup),
                Metric::new("fault.faulty_lines", "count", lines),
                Metric::new(own, "ms", 1.0),
            ],
        };
        let merged = Outcome::merge([phase(0.5, 7.0, "a"), phase(0.25, 3.0, "b")])
            .expect("distinct own metrics");
        assert_eq!((merged.attempted, merged.failed), (4, 2));
        let value = |name: &str| {
            merged
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(value("setup_s"), 0.75);
        assert_eq!(value("fault.faulty_lines"), 10.0);
        assert_eq!(merged.metrics.len(), 4);
        assert!(Outcome::merge([phase(0.5, 1.0, "a"), phase(0.5, 1.0, "a")]).is_err());
    }

    #[test]
    fn result_line_shape() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", "s", 0.25)],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}

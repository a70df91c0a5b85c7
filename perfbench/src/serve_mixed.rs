//! The service phase: an in-process `killi serve` driven over HTTP by
//! closed-loop clients.
//!
//! The loop is closed because the real caller, `killi submit --wait`,
//! waits on each reply. Each client cycles through three jobs: a fresh
//! Killi-only sweep of the run's workload trace, a fresh Killi Vmin campaign, and a repeat
//! of one of its own completed payloads. For every job it submits, polls
//! the status until the job is done, and fetches the report. The repeats
//! are answered by the content-addressed result cache, so one job in
//! three exercises HTTP framing, queue and cache alone, while the misses
//! run the sweep and campaign engines. OLSC code stays off this path.
//!
//! The fixed mix puts each reported percentile inside one kind of job:
//! sorted by latency, the jobs are cache hits, then sweep misses, then
//! campaign misses, a third each, so the median is the middle sweep miss
//! and the 90th percentile a slow campaign miss. Sweeps of two different
//! traces would split the sweep misses into two latency modes with the
//! median between them.

use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use killi_repro::bench::exec::par_map;
use killi_repro::fault::rng::derive_seed;
use killi_repro::obs::{parse_json, JsonValue};
use killi_repro::serve::{parse_job_spec, Client, Handle, Server, ServerConfig};
use killi_repro::vmin::DEFAULT_GRID;
use killi_repro::workloads::Workload;

use crate::output::{
    median, peak_rss_mb, percentile, repeated_setup, reset_peak_rss, Metric, Outcome,
};
use crate::spans::{Recorder, SpanId};
use crate::RunSpec;

/// Size of the jobs the clients submit.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `ops_per_cu` of a sweep job.
    pub sweep_ops_per_cu: usize,
    /// `dies` of a campaign job.
    pub vmin_dies: usize,
    /// `lines` of a campaign job.
    pub vmin_lines: usize,
}

impl Scale {
    /// The benchmark's size: a sweep job runs in about 70 ms and a
    /// campaign job in about 110 ms on one core.
    pub const BENCH: Scale = Scale {
        sweep_ops_per_cu: 1000,
        vmin_dies: 4,
        vmin_lines: 1024,
    };
}

/// A client's pause before each request. The server's accept loop
/// sleeps 5 ms whenever no connection is pending; a request sent the
/// instant the previous reply lands sometimes beats the loop back to
/// `accept` and sometimes not, which splits latencies into modes whose
/// weights shift from run to run. After a pause every request meets the
/// loop asleep and waits for its next wake-up, as an interactive caller's
/// would.
const THINK_TIME: Duration = Duration::from_millis(1);

/// Share of a traced run's time spent on the untraced phase that the
/// tracing overhead is measured against.
const UNTRACED_SHARE: f64 = 0.4;

fn sweep_payload(root_seed: u64, scale: &Scale, trace: Workload) -> String {
    format!(
        "{{\"root_seed\":{root_seed},\"replications\":1,\"vdds\":[0.625,0.6],\
         \"schemes\":[\"killi\"],\"workloads\":[\"{}\"],\"ops_per_cu\":{},\"threads\":1}}",
        trace.name(),
        scale.sweep_ops_per_cu
    )
}

fn vmin_payload(root_seed: u64, scale: &Scale) -> String {
    let grid: Vec<String> = DEFAULT_GRID.iter().map(|v| format!("{v:?}")).collect();
    format!(
        "{{\"mode\":\"vmin\",\"root_seed\":{root_seed},\"dies\":{},\"lines\":{},\
         \"vdds\":[{}],\"schemes\":[\"killi\"],\"threads\":1}}",
        scale.vmin_dies,
        scale.vmin_lines,
        grid.join(",")
    )
}

/// Job seeds stay below 2^32 so they survive the JSON number round trip.
fn job_seed(seed: u64, domain: &str, path: &[u64]) -> u64 {
    derive_seed(seed, domain, path) & 0xffff_ffff
}

/// The `k`-th payload of `client`: fresh sweep, fresh campaign, then a
/// repeat of one of the client's earlier fresh payloads.
fn next_payload(
    seed: u64,
    client: u64,
    k: u64,
    own: &mut Vec<String>,
    scale: &Scale,
    trace: Workload,
) -> String {
    let cycle = k / 3;
    match k % 3 {
        0 => own.push(sweep_payload(
            job_seed(seed, "sweep-job", &[client, cycle]),
            scale,
            trace,
        )),
        1 => own.push(vmin_payload(
            job_seed(seed, "vmin-job", &[client, cycle]),
            scale,
        )),
        _ => {
            let pick = derive_seed(seed, "repeat", &[client, cycle]) % own.len() as u64;
            return own[pick as usize].clone();
        }
    }
    own.last().expect("just pushed").clone()
}

/// A server running on its own thread.
struct Running {
    handle: Handle,
    thread: JoinHandle<std::io::Result<()>>,
    client: Client,
}

impl Running {
    fn start(workers: usize) -> Result<Running, String> {
        let server = Server::bind(ServerConfig {
            workers,
            queue_depth: 64,
            // Large enough that no report is evicted during a run: every
            // repeat is a cache hit.
            cache_cap: 1 << 16,
            heed_signals: false,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("binding the server: {e}"))?;
        let handle = server.handle();
        let client = Client::new(&format!("http://{}", handle.local_addr()))?;
        let thread = std::thread::spawn(move || server.run());
        let running = Running {
            handle,
            thread,
            client,
        };
        let health = running.client.get("/v1/healthz")?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        Ok(running)
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }

    /// `(cache_hits, jobs_accepted)` from `/v1/metrics`.
    fn cache_counters(&self) -> Result<(u64, u64), String> {
        let resp = self.client.get("/v1/metrics")?;
        let v = parse_json(&resp.text()).map_err(|e| format!("/v1/metrics: {e}"))?;
        let counter = |name: &str| {
            v.get("counters")
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("/v1/metrics has no `{name}`"))
        };
        Ok((counter("cache_hits")?, counter("jobs_accepted")?))
    }
}

/// One completed job as its client saw it.
struct JobResult {
    payload: String,
    latency_s: f64,
    /// The submission was answered from the cache with the job done.
    hit: bool,
    report: String,
}

/// HTTP accounting of one client.
#[derive(Debug, Default, Clone, Copy)]
struct Requests {
    sent: u64,
    failed: u64,
    polls: u64,
    useful_polls: u64,
}

/// Parses a job-status body into `(job id, state, cached)`; `None` for a
/// body the server should never send, which counts as a failed request.
fn job_status(body: &str) -> Option<(String, String, bool)> {
    let v = parse_json(body).ok()?;
    Some((
        v.get("job")?.as_str()?.to_string(),
        v.get("state")?.as_str()?.to_string(),
        v.get("cached")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
    ))
}

/// Where a traced client records its spans.
#[derive(Clone, Copy)]
struct Tracing<'a> {
    rec: &'a Recorder,
    parent: Option<SpanId>,
    run: u64,
}

/// One HTTP request, inside a span when traced; non-2xx and transport
/// errors count as failed requests.
fn request(
    client: &Client,
    post: Option<&str>,
    path: &str,
    span: &str,
    tracing: Option<Tracing<'_>>,
    requests: &mut Requests,
) -> Option<String> {
    std::thread::sleep(THINK_TIME);
    let call = || match post {
        Some(body) => client.post(path, body.as_bytes()),
        None => client.get(path),
    };
    let resp = match tracing {
        Some(t) => t.rec.time(span, t.parent, t.run, call),
        None => call(),
    };
    requests.sent += 1;
    match resp {
        Ok(r) if (200..300).contains(&r.status) => Some(r.text()),
        _ => {
            requests.failed += 1;
            None
        }
    }
}

/// Submit, poll until done, fetch. `None` when a request failed.
fn run_job(
    client: &Client,
    payload: &str,
    tracing: Option<Tracing<'_>>,
    requests: &mut Requests,
) -> Option<(bool, String)> {
    let job_span = tracing.map(|t| t.rec.open("serve.job", None, t.run));
    let tracing = tracing.map(|t| Tracing {
        parent: job_span,
        ..t
    });
    if tracing.is_some() {
        request(
            client,
            None,
            "/v1/healthz",
            "serve.healthz",
            tracing,
            requests,
        )?;
    }
    let submitted = request(
        client,
        Some(payload),
        "/v1/jobs",
        "serve.submit",
        tracing,
        requests,
    )?;
    let Some((id, mut state, cached)) = job_status(&submitted) else {
        requests.failed += 1;
        return None;
    };
    let hit = cached && state == "done";
    while state != "done" {
        if state == "failed" {
            requests.failed += 1;
            return None;
        }
        let status = request(
            client,
            None,
            &format!("/v1/jobs/{id}"),
            "serve.poll",
            tracing,
            requests,
        )?;
        let Some((_, polled, _)) = job_status(&status) else {
            requests.failed += 1;
            return None;
        };
        state = polled;
        requests.polls += 1;
        requests.useful_polls += u64::from(state == "done");
    }
    let report = request(
        client,
        None,
        &format!("/v1/jobs/{id}/report"),
        "serve.fetch",
        tracing,
        requests,
    )?;
    if let (Some(t), Some(id)) = (tracing, job_span) {
        t.rec.close(id);
    }
    Some((hit, report))
}

/// What driving the server observed, summed over every time it was
/// driven.
#[derive(Default)]
struct Observed {
    jobs: Vec<JobResult>,
    requests: Requests,
    wall_s: f64,
    /// Change of `(cache_hits, jobs_accepted)` while driven.
    cache: (u64, u64),
}

/// A client's place in its cycle of jobs, kept from one slice of driving
/// to the next.
#[derive(Debug, Default, Clone)]
struct ClientState {
    /// The fresh payloads it has submitted, which its repeats draw from.
    own: Vec<String>,
    /// Jobs it has run.
    k: u64,
}

/// Drives `server` with one closed-loop client per entry of `clients`
/// until `seconds` have passed, adding what it saw to `into`. Each client
/// finishes the job in flight at the deadline, and keeps going until it
/// has completed at least one full cycle of three jobs.
#[allow(clippy::too_many_arguments)]
fn drive(
    server: &Running,
    spec: &RunSpec,
    scale: &Scale,
    trace: Workload,
    seconds: f64,
    rec: Option<&Recorder>,
    clients: &mut [ClientState],
    into: &mut Observed,
) -> Result<(), String> {
    let before = server.cache_counters()?;
    let results = Mutex::new((Vec::new(), Requests::default()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, state) in clients.iter_mut().enumerate() {
            let c = c as u64;
            let results = &results;
            let client = server.client.clone();
            scope.spawn(move || {
                let mut jobs = Vec::new();
                let mut requests = Requests::default();
                while state.k < 3 || start.elapsed().as_secs_f64() < seconds {
                    let k = state.k;
                    let payload = next_payload(spec.seed, c, k, &mut state.own, scale, trace);
                    let tracing = rec.map(|rec| Tracing {
                        rec,
                        parent: None,
                        run: (c << 32) | k,
                    });
                    let t = Instant::now();
                    if let Some((hit, report)) = run_job(&client, &payload, tracing, &mut requests)
                    {
                        jobs.push(JobResult {
                            payload,
                            latency_s: t.elapsed().as_secs_f64(),
                            hit,
                            report,
                        });
                    }
                    state.k += 1;
                }
                let mut all = results.lock().expect("client results poisoned");
                all.0.extend(jobs);
                let r = &mut all.1;
                r.sent += requests.sent;
                r.failed += requests.failed;
                r.polls += requests.polls;
                r.useful_polls += requests.useful_polls;
            });
        }
    });
    into.wall_s += start.elapsed().as_secs_f64();
    let after = server.cache_counters()?;
    let (jobs, requests) = results.into_inner().expect("client results poisoned");
    into.jobs.extend(jobs);
    let r = &mut into.requests;
    r.sent += requests.sent;
    r.failed += requests.failed;
    r.polls += requests.polls;
    r.useful_polls += requests.useful_polls;
    into.cache.0 += after.0 - before.0;
    into.cache.1 += after.1 - before.1;
    Ok(())
}

/// Starts a server and runs one sweep and one campaign job through it
/// (seeds outside the clients' range), so worker threads, lazy tables
/// and the HTTP path are warm before the timed region.
fn setup(spec: &RunSpec, scale: &Scale, trace: Workload) -> Result<Running, String> {
    let server = Running::start(spec.threads)?;
    let mut requests = Requests::default();
    for payload in [
        sweep_payload(job_seed(spec.seed, "warmup", &[0]), scale, trace),
        vmin_payload(job_seed(spec.seed, "warmup", &[1]), scale),
    ] {
        run_job(&server.client, &payload, None, &mut requests).ok_or("warm-up job failed")?;
    }
    Ok(server)
}

/// Checks every fetched report against `JobSpec::run` on its payload,
/// on `threads` threads; returns the mismatching fetches. Traced runs
/// time each `JobSpec::run` as a `serve.job_run` span.
fn check(jobs: &[&JobResult], threads: usize, rec: Option<&Recorder>) -> Result<u64, String> {
    let mut payloads: Vec<&str> = jobs.iter().map(|j| j.payload.as_str()).collect();
    payloads.sort_unstable();
    payloads.dedup();
    let expected = par_map(threads, &payloads, None, |_, payload| {
        let spec = parse_job_spec(payload.as_bytes()).map_err(|e| e.to_string())?;
        Ok::<_, String>(match rec {
            Some(rec) => rec.time("serve.job_run", None, 0, || spec.run()),
            None => spec.run(),
        })
    });
    let mut failed = 0;
    for job in jobs {
        let i = payloads
            .binary_search(&job.payload.as_str())
            .expect("every payload was collected");
        failed += u64::from(expected[i].as_ref()? != &job.report);
    }
    Ok(failed)
}

/// The phase between set-up and results: a running server, its clients'
/// places in their cycles and what driving it has observed.
pub struct Phase {
    spec: RunSpec,
    scale: Scale,
    trace: Workload,
    server: Running,
    setup_s: f64,
    clients: Vec<ClientState>,
    observed: Observed,
}

impl Phase {
    /// Starts a warmed-up server, five times, for `setup_s`; keeps the
    /// last.
    pub fn start(spec: &RunSpec, scale: &Scale, trace: Workload) -> Result<Phase, String> {
        let (server, setup_s) = repeated_setup(
            || setup(spec, scale, trace),
            |previous| {
                if let Ok(server) = previous {
                    let _ = server.stop();
                }
            },
        );
        Ok(Phase {
            spec: spec.clone(),
            scale: scale.clone(),
            trace,
            server: server?,
            setup_s,
            clients: vec![ClientState::default(); spec.threads],
            observed: Observed::default(),
        })
    }

    /// Drives the server for `seconds` more. Between calls the server
    /// idles and the clients keep their places.
    pub fn step(&mut self, seconds: f64) -> Result<(), String> {
        drive(
            &self.server,
            &self.spec,
            &self.scale,
            self.trace,
            seconds,
            None,
            &mut self.clients,
            &mut self.observed,
        )
    }

    /// Stops the server; output checks and the end-to-end metrics.
    pub fn finish(self) -> Result<Outcome, String> {
        self.server.stop()?;
        let observed = self.observed;
        let jobs: Vec<&JobResult> = observed.jobs.iter().collect();
        let failed = observed.requests.failed + check(&jobs, self.spec.threads, None)?;
        let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
        let hits: Vec<f64> = jobs
            .iter()
            .filter(|j| j.hit)
            .map(|j| j.latency_s * 1e3)
            .collect();
        if hits.is_empty() {
            return Err("no submission was answered from the cache".to_string());
        }
        eprintln!(
            "service phase: {} jobs, {} answered from the cache; {} samples above p90",
            latencies.len(),
            hits.len(),
            latencies.len() - (0.9 * latencies.len() as f64).ceil() as usize
        );
        Ok(Outcome {
            attempted: observed.requests.sent,
            failed,
            metrics: vec![
                Metric::new("setup_s", "s", self.setup_s),
                Metric::new("jobs_per_s", "1/s", jobs.len() as f64 / observed.wall_s),
                Metric::new("job_p50_ms", "ms", percentile(&latencies, 0.5)),
                Metric::new("job_p90_ms", "ms", percentile(&latencies, 0.9)),
                Metric::new("hit_p50_ms", "ms", median(&hits)),
            ],
        })
    }
}

/// The traced phase: the server driven untraced for [`UNTRACED_SHARE`]
/// of `spec.seconds`, then a fresh server driven traced (spans into
/// `rec`) for the rest; reports the per-layer metrics.
pub fn traced(
    spec: &RunSpec,
    scale: &Scale,
    trace: Workload,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let mut phase = Phase::start(spec, scale, trace)?;
    reset_peak_rss()?;
    let untraced = phase.step(spec.seconds * UNTRACED_SHARE);
    let peak_mb = peak_rss_mb();
    phase.server.stop()?;
    let (untraced, peak_mb) = (untraced.map(|()| phase.observed)?, peak_mb?);

    let server = Running::start(spec.threads)?;
    let mut traced = Observed::default();
    let driven = drive(
        &server,
        spec,
        scale,
        trace,
        spec.seconds * (1.0 - UNTRACED_SHARE),
        Some(rec),
        &mut vec![ClientState::default(); spec.threads],
        &mut traced,
    );
    server.stop()?;
    driven?;
    let jobs: Vec<&JobResult> = untraced.jobs.iter().chain(&traced.jobs).collect();
    let failed =
        untraced.requests.failed + traced.requests.failed + check(&jobs, spec.threads, Some(rec))?;

    let mut metrics = Vec::new();
    for (metric, span) in [
        ("serve.healthz_ms", "serve.healthz"),
        ("serve.submit_ms", "serve.submit"),
        ("serve.fetch_ms", "serve.fetch"),
        ("serve.job_run_ms", "serve.job_run"),
    ] {
        let ns = rec
            .per_call_ns(span)
            .ok_or_else(|| format!("no `{span}` span recorded"))?;
        metrics.push(Metric::new(metric, "ms", ns / 1e6));
    }
    let (hits, accepted) = traced.cache;
    metrics.push(Metric::new(
        "serve.cache_hit_ratio",
        "ratio",
        hits as f64 / accepted.max(1) as f64,
    ));
    metrics.push(Metric::new(
        "serve.poll_useful_ratio",
        "ratio",
        traced.requests.useful_polls as f64 / traced.requests.polls.max(1) as f64,
    ));
    metrics.push(Metric::new("serve.peak_rss_mb", "MiB", peak_mb));
    let rate = |o: &Observed| o.jobs.len() as f64 / o.wall_s;
    metrics.push(Metric::new(
        "trace.overhead_ratio.serve",
        "ratio",
        rate(&untraced) / rate(&traced),
    ));
    Ok(Outcome {
        attempted: untraced.requests.sent + traced.requests.sent,
        failed,
        metrics,
    })
}

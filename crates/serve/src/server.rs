//! The daemon: accept loop, bounded FIFO queue, fixed worker pool, and
//! the content-addressed result store.
//!
//! Concurrency model: the accept loop handles one connection at a time
//! (every request is a cheap parse or a map lookup — the expensive work
//! happens on the workers), workers block on a `Condvar` over the
//! queue, and all shared state sits behind one `Mutex`. Reports are
//! `Arc<str>`-shared so serving a cached report never copies the bytes.
//!
//! Shutdown: [`Handle::shutdown`] (or a SIGTERM/SIGINT relayed through
//! [`crate::signal`]) flips the drain flag. From then on submissions
//! get 503, reads keep working, workers finish the queue, and
//! [`Server::run`] returns once the last job lands — completed results
//! are never lost mid-drain (regression-tested in `service_e2e`).

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use killi_obs::serve::{format_job_id, parse_job_id, JobId, ServeEvent, ServeMetrics};

use crate::http::{error_body, read_request, HttpError, Request, Response};
use crate::spec::{job_id_for, parse_job_spec, JobSpec};

/// Tuning of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1` unless exposed deliberately).
    pub host: String,
    /// Bind port; 0 asks the OS for an ephemeral one.
    pub port: u16,
    /// Worker threads executing sweeps.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get 429.
    pub queue_depth: usize,
    /// Completed reports kept before FIFO eviction.
    pub cache_cap: usize,
    /// Test-only: milliseconds each worker sleeps before starting a
    /// job, so tests can fill the queue deterministically. Zero in
    /// production.
    pub job_start_delay_ms: u64,
    /// Whether the accept loop watches [`crate::signal::triggered`].
    /// The CLI daemon keeps this on; in-process tests turn it off so a
    /// signal test elsewhere in the binary cannot drain them.
    pub heed_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 2,
            queue_depth: 32,
            cache_cap: 64,
            job_start_delay_ms: 0,
            heed_signals: true,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Everything known about one submitted job.
struct JobRecord {
    /// Canonical config JSON — kept to detect the astronomically
    /// unlikely id collision and to re-run after cache eviction.
    canonical: String,
    config: JobSpec,
    state: JobState,
    /// The report bytes (`killi-sweep/v2` or `killi-vmin/v1`), exactly
    /// as the engine emits them; `None` until done or after eviction.
    report: Option<Arc<str>>,
    error: Option<String>,
}

/// Mutex-guarded mutable state.
#[derive(Default)]
struct Inner {
    jobs: HashMap<JobId, JobRecord>,
    queue: VecDeque<JobId>,
    running: usize,
    /// Completion order of cached reports, oldest first (FIFO eviction).
    done_order: VecDeque<JobId>,
    events: Vec<ServeEvent>,
    metrics: ServeMetrics,
}

/// Cap on the retained event log; old events fall off the front.
const EVENT_LOG_CAP: usize = 4096;

impl Inner {
    fn emit(&mut self, event: ServeEvent) {
        self.metrics.apply(&event);
        if self.events.len() == EVENT_LOG_CAP {
            self.events.remove(0);
        }
        self.events.push(event);
    }
}

struct Shared {
    state: Mutex<Inner>,
    work_ready: Condvar,
    /// Set once; from then on submissions are rejected and workers
    /// exit when the queue runs dry.
    draining: AtomicBool,
    config: ServerConfig,
    local_addr: SocketAddr,
}

/// A cheap cloneable view onto a running server, for shutdown and
/// inspection (the CLI uses it for ctrl-c; tests use it to assert on
/// metrics, events, and drained results without racing the sockets).
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// The bound address (with the OS-assigned port when port 0 was
    /// requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Begins a graceful drain: new submissions get 503, queued and
    /// running jobs finish, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
    }

    /// Snapshot of the service counters.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.state.lock().unwrap().metrics
    }

    /// Snapshot of the event log (the most recent few thousand events;
    /// older ones fall off the front).
    pub fn events(&self) -> Vec<ServeEvent> {
        self.shared.state.lock().unwrap().events.clone()
    }

    /// The stored report bytes of a job, if it completed and is still
    /// cached. Lets tests verify drained results without a socket.
    pub fn report(&self, id: JobId) -> Option<Arc<str>> {
        self.shared
            .state
            .lock()
            .unwrap()
            .jobs
            .get(&id)
            .and_then(|j| j.report.clone())
    }

    /// State name of a job (`queued`/`running`/`done`/`failed`).
    pub fn job_state(&self, id: JobId) -> Option<&'static str> {
        self.shared
            .state
            .lock()
            .unwrap()
            .jobs
            .get(&id)
            .map(|j| j.state.name())
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (port 0 = ephemeral) without starting work.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(Inner::default()),
                work_ready: Condvar::new(),
                draining: AtomicBool::new(false),
                config,
                local_addr,
            }),
        })
    }

    /// A handle for shutdown and inspection.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Runs the accept loop until a graceful drain completes. Checks
    /// [`crate::signal::triggered`] each poll tick, so a process-level
    /// SIGTERM/SIGINT (when [`crate::signal::install`] was called)
    /// starts the drain without any handle plumbing.
    pub fn run(self) -> std::io::Result<()> {
        let workers = self.shared.config.workers.max(1);
        let mut pool = Vec::with_capacity(workers);
        for worker in 0..workers {
            let shared = Arc::clone(&self.shared);
            pool.push(std::thread::spawn(move || worker_loop(&shared, worker)));
        }

        self.listener.set_nonblocking(true)?;
        loop {
            if self.shared.config.heed_signals && crate::signal::triggered() {
                self.shared.draining.store(true, Ordering::SeqCst);
                self.shared.work_ready.notify_all();
            }
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    // Request handling is cheap (parse + map ops); the
                    // heavy lifting happens on the worker pool.
                    let _ = stream.set_nodelay(true);
                    handle_connection(&self.shared, &mut stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.shared.draining.load(Ordering::SeqCst) {
                        let inner = self.shared.state.lock().unwrap();
                        if inner.queue.is_empty() && inner.running == 0 {
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }

        // Drain finished: wake any still-parked workers so they observe
        // the empty queue + drain flag and exit.
        self.shared.work_ready.notify_all();
        for thread in pool {
            let _ = thread.join();
        }
        Ok(())
    }
}

/// One worker: pull, execute, store; exit when draining finds the queue
/// empty.
fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let job = {
            let mut inner = shared.state.lock().unwrap();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    inner.running += 1;
                    inner.emit(ServeEvent::JobDequeued { job: id, worker });
                    let record = inner.jobs.get_mut(&id).expect("queued job has a record");
                    record.state = JobState::Running;
                    break Some((id, record.config.clone()));
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                inner = shared.work_ready.wait(inner).unwrap();
            }
        };
        let Some((id, config)) = job else {
            return;
        };

        if shared.config.job_start_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.job_start_delay_ms));
        }

        // A panicking job (a bug, not a workload) must not take the
        // worker down with it; the job lands as Failed instead.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| config.run()));

        let mut inner = shared.state.lock().unwrap();
        inner.running -= 1;
        let record = inner.jobs.get_mut(&id).expect("running job has a record");
        match outcome {
            Ok(report) => {
                record.state = JobState::Done;
                record.report = Some(Arc::from(report));
                inner.emit(ServeEvent::JobCompleted { job: id });
                inner.emit(ServeEvent::CacheInsert { job: id });
                inner.done_order.push_back(id);
                evict_over_capacity(&mut inner, shared.config.cache_cap);
            }
            Err(panic) => {
                record.state = JobState::Failed;
                record.error = Some(panic_message(&panic));
                inner.emit(ServeEvent::JobFailed { job: id });
            }
        }
    }
}

/// Drops the oldest cached reports beyond `cap`. Records stay so the
/// job id remains known; a resubmission re-enqueues the sweep.
fn evict_over_capacity(inner: &mut Inner, cap: usize) {
    while inner.done_order.len() > cap.max(1) {
        let oldest = inner.done_order.pop_front().expect("len checked");
        if let Some(record) = inner.jobs.get_mut(&oldest) {
            record.report = None;
        }
        inner.emit(ServeEvent::CacheEvict { job: oldest });
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("sweep panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("sweep panicked: {s}")
    } else {
        "sweep panicked".to_string()
    }
}

/// Reads one request, routes it, writes one response.
fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    // The accept loop runs the listener nonblocking; the request socket
    // itself must block (with the read timeout `read_request` sets).
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let response = match read_request(stream) {
        Ok(request) => route(shared, &request),
        Err(HttpError::Io(_)) => return, // peer went away; nothing to say
        Err(e) => {
            shared.state.lock().unwrap().emit(ServeEvent::BadRequest);
            let status = match e {
                HttpError::TooLarge => 400,
                _ => 400,
            };
            Response::json(status, error_body(&e.to_string()))
        }
    };
    let _ = response.write_to(stream);
}

fn route(shared: &Shared, request: &Request) -> Response {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("POST", "/v1/jobs") => submit(shared, &request.body),
        ("GET", "/v1/healthz") => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"draining\":{}}}",
                shared.draining.load(Ordering::SeqCst)
            ),
        ),
        ("GET", "/v1/metrics") => {
            let json = shared.state.lock().unwrap().metrics.to_json();
            Response::json(200, json)
        }
        ("GET", _) if path.starts_with("/v1/jobs/") => job_get(shared, path),
        (_, "/v1/jobs") | (_, "/v1/healthz") | (_, "/v1/metrics") => Response::json(
            405,
            error_body(&format!("method {method} not allowed on {path}")),
        ),
        (_, _) if path.starts_with("/v1/jobs/") => Response::json(
            405,
            error_body(&format!("method {method} not allowed on {path}")),
        ),
        _ => Response::json(404, error_body(&format!("no such endpoint {path}"))),
    }
}

/// `GET /v1/jobs/:id` and `GET /v1/jobs/:id/report`.
fn job_get(shared: &Shared, path: &str) -> Response {
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, want_report) = match rest.strip_suffix("/report") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Some(id) = parse_job_id(id_text) else {
        shared.state.lock().unwrap().emit(ServeEvent::BadRequest);
        return Response::json(
            400,
            error_body(&format!("`{id_text}` is not a 32-hex-char job id")),
        );
    };
    let inner = shared.state.lock().unwrap();
    let Some(record) = inner.jobs.get(&id) else {
        return Response::json(404, error_body(&format!("no job {id_text}")));
    };
    if !want_report {
        return Response::json(200, status_body(id, record));
    }
    match (record.state, &record.report) {
        (JobState::Done, Some(report)) => Response::json(200, report.as_bytes()),
        (JobState::Done, None) => Response::json(
            404,
            error_body("report evicted from cache; resubmit the job to recompute"),
        ),
        (JobState::Failed, _) => Response::json(
            500,
            error_body(record.error.as_deref().unwrap_or("job failed")),
        ),
        (_, _) => Response::json(
            409,
            error_body(&format!("job is {}, report not ready", record.state.name())),
        )
        .with_header("retry-after", "1"),
    }
}

fn status_body(id: JobId, record: &JobRecord) -> Vec<u8> {
    let mut body = format!(
        "{{\"job\":\"{}\",\"state\":\"{}\"",
        format_job_id(id),
        record.state.name()
    );
    if let Some(error) = &record.error {
        body.push_str(&format!(",\"error\":\"{}\"", killi_obs::escape_json(error)));
    }
    body.push('}');
    body.into_bytes()
}

/// `POST /v1/jobs`.
fn submit(shared: &Shared, body: &[u8]) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        shared.state.lock().unwrap().emit(ServeEvent::Draining);
        return Response::json(503, error_body("draining; not accepting new jobs"))
            .with_header("retry-after", "5");
    }
    let config = match parse_job_spec(body) {
        Ok(config) => config,
        Err(e) => {
            shared.state.lock().unwrap().emit(ServeEvent::BadRequest);
            return Response::json(400, error_body(&e.to_string()));
        }
    };
    let id = job_id_for(&config);
    let canonical = config.canonical_json();
    let id_text = format_job_id(id);

    let mut inner = shared.state.lock().unwrap();
    if let Some(record) = inner.jobs.get(&id) {
        if record.canonical != canonical {
            // 2^-128 territory, but the canonical string makes it
            // detectable instead of silently wrong.
            return Response::json(500, error_body("job id collision; change a config knob"));
        }
        if record.report.is_some() || record.state != JobState::Done {
            // Known job, any live state: answer from the store.
            let state = record.state;
            inner.emit(ServeEvent::JobAccepted { job: id });
            inner.emit(ServeEvent::CacheHit { job: id });
            return Response::json(
                200,
                format!(
                    "{{\"job\":\"{id_text}\",\"state\":\"{}\",\"cached\":true}}",
                    state.name()
                ),
            );
        }
        // Done but evicted: fall through and re-enqueue below.
    }

    if inner.queue.len() >= shared.config.queue_depth {
        let depth = inner.queue.len();
        inner.emit(ServeEvent::QueueFull { depth });
        return Response::json(429, error_body("queue full")).with_header("retry-after", "1");
    }

    let depth = inner.queue.len() + 1;
    inner.jobs.insert(
        id,
        JobRecord {
            canonical,
            config,
            state: JobState::Queued,
            report: None,
            error: None,
        },
    );
    inner.queue.push_back(id);
    inner.emit(ServeEvent::JobAccepted { job: id });
    inner.emit(ServeEvent::JobEnqueued { job: id, depth });
    drop(inner);
    shared.work_ready.notify_one();
    Response::json(
        202,
        format!("{{\"job\":\"{id_text}\",\"state\":\"queued\",\"cached\":false}}"),
    )
}

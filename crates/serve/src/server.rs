//! The campaign daemon: an accept loop (TCP or Unix socket), a bounded
//! worker pool feeding the [`orchestrator`] scheduler, and the JSON API
//! the `pv3t1d serve` command exposes.
//!
//! ## Endpoints
//!
//! | method & path           | behavior                                          |
//! |-------------------------|---------------------------------------------------|
//! | `GET /healthz`          | liveness + job counts + coalescing totals + last gc |
//! | `GET /metrics`          | daemon registry, Prometheus text exposition       |
//! | `GET /metrics.json`     | the same registry as JSON                         |
//! | `GET /metrics/history`  | sampler ring as NDJSON (`?window=<seconds>`)      |
//! | `POST /runs`            | submit a scenario document → `202 {"job": id}`    |
//! | `GET /jobs`             | list all jobs                                     |
//! | `GET /jobs/<id>`        | job state (+ run manifest once terminal)          |
//! | `DELETE /jobs/<id>`     | cancel (cooperative; the scheduler drains)        |
//! | `GET /jobs/<id>/events` | stream progress events as newline-delimited JSON  |
//!
//! ## Accept path
//!
//! The accept thread blocks in `accept` on a blocking listener, so a
//! request is read the moment it arrives; nothing on the idle path is
//! polled. [`Server::shutdown`] cancels the shutdown token and then
//! connects to the daemon's own listener once; the accept thread wakes,
//! sees the token, drops that connection and exits, which closes the
//! listener. The metrics sampler and the CAS janitor park in
//! [`CancelToken::sleep`], which the cancel wakes at once, instead of
//! re-checking the token in short sleep slices.
//!
//! ## Correlation ids
//!
//! Every accepted request gets a daemon-unique id (`req-000042`). For
//! `POST /runs` the id is stored on the job, echoed in the 202 response
//! and the job status document, stamped on every progress event, woven
//! into the scheduler's trace-span names, and attached to every log
//! line the request or its job emits — one grep follows a request end
//! to end. Ids are execution metadata: they never enter cache keys or
//! run fingerprints.
//!
//! ## Shared execution state
//!
//! Every job runs through the same [`FlightTable`] and the same
//! results directory, so concurrent jobs that reach the same
//! content-addressed stage key share one computation (request
//! coalescing) and later jobs hit the CAS outright. Per-job run
//! manifests land under `<results>/jobs/<id>.run.json` — including
//! partial manifests for jobs cancelled by `DELETE` or daemon
//! shutdown, which is what makes kill-and-restart resume from
//! checkpoints with zero re-execution.

use crate::http;
use crate::janitor::{self, JanitorConfig, JanitorState};
use crate::jobs::{JobState, JobTable};
use crate::telemetry::{self, Telemetry};
use obs::{CancelToken, Json, MetricsRegistry};
use orchestrator::{run_scenario, FlightTable, RunOptions, Scenario, StageStatus};
use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent connection cap; excess connections get a 503 and are
/// closed immediately rather than queueing behind slow handlers.
const MAX_CONNECTIONS: usize = 1024;
/// Pause after a failed `accept` (e.g. `EMFILE`), so a persistent
/// error does not spin the accept thread. Idle waiting is not polled:
/// the listener blocks, and shutdown wakes it with a self-connect.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);
/// Bound on the self-connect that wakes the blocked accept on shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Per-connection read timeout: a silent client cannot pin a handler
/// thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:7878` (port 0 picks a free one).
    Tcp(String),
    /// A Unix domain socket path (`unix:/path` on the CLI).
    Unix(PathBuf),
}

impl Listen {
    /// Parses the CLI form: `unix:<path>` or a TCP `host:port`.
    pub fn parse(text: &str) -> Self {
        match text.strip_prefix("unix:") {
            Some(path) => Listen::Unix(PathBuf::from(path)),
            None => Listen::Tcp(text.to_string()),
        }
    }
}

/// Daemon configuration, CLI-shaped.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Results directory (CAS + per-job manifests).
    pub results_dir: PathBuf,
    /// Worker pool size — concurrently executing jobs.
    pub workers: usize,
    /// Per-run DAG concurrency handed to the scheduler.
    pub stage_jobs: usize,
    /// CAS janitor cadence; `None` disables the janitor.
    pub gc_interval: Option<Duration>,
    /// CAS size budget the janitor enforces.
    pub gc_max_bytes: u64,
    /// The shutdown token (bridged from SIGTERM by `pv3t1d serve`).
    pub shutdown: CancelToken,
    /// Print a line per lifecycle event to stdout.
    pub verbose: bool,
    /// Cadence of the metrics sampler feeding `GET /metrics/history`.
    pub sample_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            results_dir: PathBuf::from("results"),
            workers: 2,
            stage_jobs: 2,
            gc_interval: None,
            gc_max_bytes: 256 * 1024 * 1024,
            shutdown: CancelToken::new(),
            verbose: false,
            sample_interval: Duration::from_secs(1),
        }
    }
}

/// State shared by connection handlers, workers, and the janitor.
pub(crate) struct Shared {
    pub(crate) jobs: JobTable,
    pub(crate) flight: Arc<FlightTable>,
    pub(crate) results_dir: PathBuf,
    pub(crate) stage_jobs: usize,
    pub(crate) shutdown: CancelToken,
    pub(crate) janitor: JanitorState,
    pub(crate) telemetry: Telemetry,
    workers: usize,
    busy_workers: AtomicUsize,
    active_connections: AtomicUsize,
    started: Instant,
    verbose: bool,
}

/// A running daemon. Dropping it does **not** stop the threads — call
/// [`Server::shutdown`] (or let the process exit).
pub struct Server {
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
    threads: Vec<std::thread::JoinHandle<()>>,
    addr: String,
    local: Local,
}

/// Where the daemon's own listener can be reached — the target of the
/// shutdown self-connect.
enum Local {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Local {
    /// Connects to the listener once and hangs up, which returns the
    /// accept thread's blocking `accept`. A wildcard bind (`0.0.0.0`,
    /// `[::]`) is reached through the loopback address of its family.
    fn wake(&self) -> io::Result<()> {
        match self {
            Local::Tcp(addr) => {
                let mut addr = *addr;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).map(drop)
            }
            // A Unix connect has no timeout knob, but it only blocks while
            // the backlog is full, and the accept thread drains the
            // backlog without waiting on anything but `accept` itself.
            #[cfg(unix)]
            Local::Unix(path) => std::os::unix::net::UnixStream::connect(path).map(drop),
            #[cfg(not(unix))]
            Local::Unix(_) => Err(io::ErrorKind::Unsupported.into()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

/// One accepted connection, abstracting TCP vs Unix sockets.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn configure(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(READ_TIMEOUT)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(READ_TIMEOUT)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Listener {
    fn bind(listen: &Listen) -> io::Result<(Listener, String, Local)> {
        match listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let actual = l.local_addr()?;
                Ok((Listener::Tcp(l), actual.to_string(), Local::Tcp(actual)))
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a previous daemon blocks the
                // bind; remove it (connect-refused probes confirm it is
                // dead territory anyway, this is the standard dance).
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)?;
                Ok((
                    Listener::Unix(l),
                    format!("unix:{}", path.display()),
                    Local::Unix(path.clone()),
                ))
            }
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are only supported on unix",
            )),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Server {
    /// Binds, spawns the accept loop + worker pool + janitor, and
    /// returns immediately.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let (listener, addr, local) = Listener::bind(&config.listen)?;
        std::fs::create_dir_all(config.results_dir.join("jobs"))?;
        let shared = Arc::new(Shared {
            jobs: JobTable::new(),
            flight: Arc::new(FlightTable::new()),
            results_dir: config.results_dir.clone(),
            stage_jobs: config.stage_jobs.max(1),
            shutdown: config.shutdown.clone(),
            janitor: JanitorState::new(),
            telemetry: Telemetry::new(),
            workers: config.workers.max(1),
            busy_workers: AtomicUsize::new(0),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
            verbose: config.verbose,
        });

        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        let mut threads = Vec::new();
        for i in 0..config.workers.max(1) {
            let worker_shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(worker_shared))?,
            );
        }
        let sampler_shared = shared.clone();
        let sample_interval = config.sample_interval.max(Duration::from_millis(50));
        threads.push(
            std::thread::Builder::new()
                .name("serve-sampler".into())
                .spawn(move || sampler_loop(sampler_shared, sample_interval))?,
        );
        if let Some(interval) = config.gc_interval {
            let janitor_shared = shared.clone();
            let jc = JanitorConfig {
                store_root: config.results_dir.join("cas"),
                interval,
                max_bytes: config.gc_max_bytes,
            };
            threads.push(
                std::thread::Builder::new()
                    .name("serve-janitor".into())
                    .spawn(move || janitor::run(jc, janitor_shared))?,
            );
        }
        if config.verbose {
            println!("serve: listening on {addr} ({} workers)", config.workers.max(1));
        }
        Ok(Server {
            shared,
            accept,
            threads,
            addr,
            local,
        })
    }

    /// The bound address — with `--listen 127.0.0.1:0` this is where
    /// the daemon actually ended up.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The token that stops the daemon when cancelled (hand it to a
    /// signal handler).
    pub fn shutdown_token(&self) -> CancelToken {
        self.shared.shutdown.clone()
    }

    /// Blocks until the shutdown token fires, then drains.
    pub fn wait(self) {
        self.shared.shutdown.sleep(Duration::MAX);
        self.shutdown();
    }

    /// Graceful drain: stop accepting, cancel every job (the scheduler
    /// stops at the next unit boundary and writes partial manifests),
    /// retire the queue, and join all daemon threads.
    ///
    /// The accept thread blocks in `accept`, so the drain wakes it by
    /// connecting to the daemon's own listener. If that connect fails,
    /// the accept thread is left detached rather than joined, so a
    /// failed wake can never hang the drain.
    pub fn shutdown(self) {
        self.shared.shutdown.cancel();
        self.shared.jobs.cancel_all();
        if self.local.wake().is_ok() {
            let _ = self.accept.join();
        }
        for t in self.threads {
            let _ = t.join();
        }
        // Workers exit without draining the queue on shutdown; mark the
        // leftovers cancelled so their event streams terminate.
        for id in self.shared.jobs.active_ids() {
            self.shared.jobs.finish(id, JobState::Cancelled, None, None);
        }
        if let Local::Unix(path) = &self.local {
            let _ = std::fs::remove_file(path);
        }
        if self.shared.verbose {
            println!("serve: drained and stopped");
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Whatever returned the accept after shutdown — the drain's wake
        // connect or a late client — is dropped unanswered.
        if shared.shutdown.is_cancelled() {
            return;
        }
        match accepted {
            Ok(conn) => {
                if shared.active_connections.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
                    shared.active_connections.fetch_sub(1, Ordering::AcqRel);
                    let mut conn = conn;
                    let _ = http::write_response(&mut conn, 503, "{\"error\":\"overloaded\"}");
                    continue;
                }
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(conn, &conn_shared);
                        conn_shared.active_connections.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    shared.active_connections.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(_) => {
                if shared.shutdown.sleep(ACCEPT_BACKOFF) {
                    return;
                }
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(claim) = shared.jobs.claim(&shared.shutdown) {
        shared.busy_workers.fetch_add(1, Ordering::AcqRel);
        if shared.verbose {
            println!("serve: job {} ({}) started", claim.id, claim.scenario.name);
        }
        if obs::log::enabled(obs::log::Level::Info) {
            obs::log::info(
                "job started",
                &[
                    ("job", Json::Num(claim.id as f64)),
                    ("scenario", Json::Str(claim.scenario.name.clone())),
                    ("request_id", Json::Str(claim.request_id.clone())),
                ],
            );
        }
        let opts = RunOptions {
            jobs: shared.stage_jobs,
            results_dir: shared.results_dir.clone(),
            cancel: Some(claim.cancel.clone()),
            flight: Some(shared.flight.clone()),
            events: Some(claim.events.clone()),
            request_id: Some(claim.request_id.clone()),
            ..RunOptions::default()
        };
        match run_scenario(&claim.scenario, &opts) {
            Ok(summary) => {
                // The per-job manifest is written even for cancelled and
                // failed runs — it records which stages completed, so a
                // restarted daemon (or operator) can see what resumed.
                let path = shared
                    .results_dir
                    .join("jobs")
                    .join(format!("{}.run.json", claim.id));
                let _ = summary.write_to(&path);
                let cancelled = summary
                    .stages
                    .iter()
                    .any(|s| matches!(s.status, StageStatus::Cancelled(_)));
                let state = if summary.ok() {
                    JobState::Done
                } else if cancelled {
                    JobState::Cancelled
                } else {
                    JobState::Failed
                };
                if shared.verbose {
                    println!("serve: job {} {}", claim.id, state.word());
                }
                if obs::log::enabled(obs::log::Level::Info) {
                    obs::log::info(
                        "job finished",
                        &[
                            ("job", Json::Num(claim.id as f64)),
                            ("state", Json::Str(state.word().to_string())),
                            ("wall_seconds", Json::Num(summary.wall_seconds)),
                            ("request_id", Json::Str(claim.request_id.clone())),
                        ],
                    );
                }
                // Fold the job's scheduler metrics into the daemon-wide
                // registry: counters add across jobs (daemon CAS totals),
                // the job histogram and throughput gauge feed /metrics.
                shared.telemetry.with_registry(|reg| {
                    reg.merge(&summary.metrics);
                    reg.inc("serve.jobs.finished_total", 1);
                    reg.inc(&format!("serve.jobs.{}_total", state.word()), 1);
                    let (name, lo, hi, n) = telemetry::JOB_SECONDS;
                    reg.histogram(name, lo, hi, n).record(summary.wall_seconds);
                    let units = summary
                        .metrics
                        .counter("orchestrator.checkpoint.stored_units")
                        .unwrap_or(0)
                        + summary
                            .metrics
                            .counter("orchestrator.checkpoint.resumed_units")
                            .unwrap_or(0);
                    if summary.wall_seconds > 0.0 {
                        reg.set_gauge(
                            "serve.job.units_per_s",
                            units as f64 / summary.wall_seconds,
                        );
                    }
                });
                shared.jobs.finish(claim.id, state, Some(summary.to_json()), None);
            }
            Err(e) => {
                if shared.verbose {
                    println!("serve: job {} failed: {e}", claim.id);
                }
                if obs::log::enabled(obs::log::Level::Error) {
                    obs::log::error(
                        "job failed",
                        &[
                            ("job", Json::Num(claim.id as f64)),
                            ("error", Json::Str(e.to_string())),
                            ("request_id", Json::Str(claim.request_id.clone())),
                        ],
                    );
                }
                shared.telemetry.with_registry(|reg| {
                    reg.inc("serve.jobs.finished_total", 1);
                    reg.inc("serve.jobs.failed_total", 1);
                });
                shared
                    .jobs
                    .finish(claim.id, JobState::Failed, None, Some(e.to_string()));
            }
        }
        shared.busy_workers.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The daemon-wide registry with live gauges overlaid: the base
/// registry (HTTP counters + merged job metrics) plus queue depth,
/// worker occupancy, CAS hit ratio, flight totals, janitor lifetime
/// counters, and uptime — recomputed at scrape/sample time so every
/// consumer (`/metrics`, `/metrics.json`, the sampler) sees one shape.
pub(crate) fn registry_snapshot(shared: &Shared) -> MetricsRegistry {
    let mut reg = shared.telemetry.registry_clone();
    let (queued, running, finished) = shared.jobs.counts();
    reg.set_gauge("serve.jobs.queued", queued as f64);
    reg.set_gauge("serve.jobs.running", running as f64);
    reg.set_gauge("serve.jobs.finished", finished as f64);
    reg.set_gauge("serve.queue.depth", queued as f64);
    let busy = shared.busy_workers.load(Ordering::Acquire);
    reg.set_gauge("serve.workers.total", shared.workers as f64);
    reg.set_gauge("serve.workers.busy", busy as f64);
    reg.set_gauge(
        "serve.workers.utilization",
        busy as f64 / shared.workers as f64,
    );
    let hits = reg.counter("orchestrator.cas.hits").unwrap_or(0);
    let misses = reg.counter("orchestrator.cas.misses").unwrap_or(0);
    if hits + misses > 0 {
        reg.set_gauge("serve.cas.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    reg.set_counter("serve.flight.executed_total", shared.flight.executed_total());
    reg.set_counter(
        "serve.flight.coalesced_total",
        shared.flight.coalesced_total(),
    );
    let (gc_passes, gc_bytes, gc_removed) = shared.janitor.totals();
    reg.set_counter("serve.gc.passes_total", gc_passes);
    reg.set_counter("serve.gc.bytes_reclaimed_total", gc_bytes);
    reg.set_counter("serve.gc.removed_total", gc_removed);
    reg.set_gauge(
        "serve.connections.active",
        shared.active_connections.load(Ordering::Acquire) as f64,
    );
    reg.set_gauge("serve.uptime_seconds", shared.started.elapsed().as_secs_f64());
    reg
}

/// The sampler thread: capture one registry snapshot per interval into
/// the bounded history ring until the daemon drains.
fn sampler_loop(shared: Arc<Shared>, interval: Duration) {
    while !shared.shutdown.is_cancelled() {
        let mut sample = Json::object();
        sample.insert("ts_ms", Json::Num(telemetry::now_ms() as f64));
        sample.insert("metrics", registry_snapshot(&shared).to_json());
        shared.telemetry.push_sample(sample);
        shared.shutdown.sleep(interval);
    }
}

fn handle_connection(conn: Conn, shared: &Shared) -> io::Result<()> {
    conn.configure()?;
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    let t0 = Instant::now();
    let request = match http::read_request(&mut reader)? {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(bad) => {
            let mut err = Json::object();
            err.insert("error", Json::Str(bad.to_string()));
            shared.telemetry.observe_http("?", 400, t0.elapsed().as_secs_f64());
            return http::write_response(&mut writer, 400, &err.render());
        }
    };
    // The correlation id: minted at accept, logged with the outcome,
    // and (for POST /runs) stored on the job it creates.
    let request_id = shared.telemetry.mint_request_id();
    let result = route(&request, &mut writer, shared, &request_id);
    let status = *result.as_ref().unwrap_or(&0);
    shared
        .telemetry
        .observe_http(&request.method, status, t0.elapsed().as_secs_f64());
    if obs::log::enabled(obs::log::Level::Debug) {
        obs::log::debug(
            "http request",
            &[
                ("method", Json::Str(request.method.clone())),
                ("path", Json::Str(request.path.clone())),
                ("status", Json::Num(f64::from(status))),
                ("request_id", Json::Str(request_id)),
            ],
        );
    }
    result.map(|_| ())
}

fn respond(w: &mut impl Write, status: u16, doc: &Json) -> io::Result<u16> {
    http::write_response(w, status, &doc.render())?;
    Ok(status)
}

fn error_doc(message: &str) -> Json {
    let mut o = Json::object();
    o.insert("error", Json::Str(message.to_string()));
    o
}

fn route(
    req: &http::Request,
    w: &mut impl Write,
    shared: &Shared,
    request_id: &str,
) -> io::Result<u16> {
    // Query strings arrive verbatim in the target; split them off before
    // segment matching (`/metrics/history?window=60`).
    let (path, query) = req
        .path
        .split_once('?')
        .unwrap_or((req.path.as_str(), ""));
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond(w, 200, &healthz(shared)),
        ("GET", ["metrics"]) => {
            let text = obs::prom::render(&registry_snapshot(shared));
            http::write_response_typed(w, 200, "text/plain; version=0.0.4", &text)?;
            Ok(200)
        }
        ("GET", ["metrics.json"]) => {
            respond(w, 200, &registry_snapshot(shared).to_json())
        }
        ("GET", ["metrics", "history"]) => {
            let window = match telemetry::parse_window_ms(query) {
                Ok(window) => window,
                Err(msg) => return respond(w, 400, &error_doc(&msg)),
            };
            let body = shared.telemetry.history_ndjson(window);
            http::write_response_typed(w, 200, "application/x-ndjson", &body)?;
            Ok(200)
        }
        ("POST", ["runs"]) => submit(req, w, shared, request_id),
        ("GET", ["jobs"]) => respond(w, 200, &shared.jobs.list_json()),
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| shared.jobs.status_json(id)) {
            Some(doc) => respond(w, 200, &doc),
            None => respond(w, 404, &error_doc("no such job")),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id).and_then(|id| shared.jobs.cancel(id)) {
            Some(state) => {
                let mut doc = Json::object();
                doc.insert("cancelled", Json::Bool(true));
                doc.insert("was", Json::Str(state.word().to_string()));
                respond(w, 202, &doc)
            }
            None => respond(w, 404, &error_doc("no such job")),
        },
        ("GET", ["jobs", id, "events"]) => match parse_id(id).and_then(|id| shared.jobs.events(id))
        {
            Some(bus) => stream_events(w, &bus, shared).map(|()| 200),
            None => respond(w, 404, &error_doc("no such job")),
        },
        (_, ["healthz" | "runs" | "jobs" | "metrics" | "metrics.json", ..]) => {
            respond(w, 405, &error_doc("method not allowed"))
        }
        _ => respond(w, 404, &error_doc("no such route")),
    }
}

fn parse_id(text: &str) -> Option<u64> {
    text.parse::<u64>().ok()
}

fn healthz(shared: &Shared) -> Json {
    let (queued, running, finished) = shared.jobs.counts();
    let mut jobs = Json::object();
    jobs.insert("queued", Json::Num(queued as f64));
    jobs.insert("running", Json::Num(running as f64));
    jobs.insert("finished", Json::Num(finished as f64));
    let mut flight = Json::object();
    flight.insert(
        "executed_total",
        Json::Num(shared.flight.executed_total() as f64),
    );
    flight.insert(
        "coalesced_total",
        Json::Num(shared.flight.coalesced_total() as f64),
    );
    let reg = shared.telemetry.registry_clone();
    let mut cas = Json::object();
    let hits = reg.counter("orchestrator.cas.hits").unwrap_or(0);
    let misses = reg.counter("orchestrator.cas.misses").unwrap_or(0);
    cas.insert("hits", Json::Num(hits as f64));
    cas.insert("misses", Json::Num(misses as f64));
    cas.insert(
        "hit_ratio",
        if hits + misses > 0 {
            Json::Num(hits as f64 / (hits + misses) as f64)
        } else {
            Json::Null
        },
    );
    let busy = shared.busy_workers.load(Ordering::Acquire);
    let mut workers = Json::object();
    workers.insert("total", Json::Num(shared.workers as f64));
    workers.insert("busy", Json::Num(busy as f64));
    workers.insert(
        "utilization",
        Json::Num(busy as f64 / shared.workers as f64),
    );
    let mut doc = Json::object();
    doc.insert("ok", Json::Bool(true));
    doc.insert("draining", Json::Bool(shared.shutdown.is_cancelled()));
    doc.insert(
        "uptime_seconds",
        Json::Num(shared.started.elapsed().as_secs_f64()),
    );
    doc.insert("jobs", jobs);
    doc.insert("flight", flight);
    doc.insert("cas", cas);
    doc.insert("workers", workers);
    // Request-latency quantiles from the exposition histogram, in ms.
    // An empty histogram has no quantiles ([`FixedHistogram::quantile`]
    // returns `None`), and the key is emitted as an explicit `null`
    // rather than omitted — clients render "n/a" instead of a garbage
    // 0.00 and never need to guess whether the field was forgotten.
    let latency = reg
        .get_histogram(telemetry::HTTP_SECONDS.0)
        .and_then(|h| h.quantile_summary())
        .map(|(p50, p90, p99)| {
            let mut latency = Json::object();
            latency.insert("p50_ms", Json::Num(p50 * 1e3));
            latency.insert("p90_ms", Json::Num(p90 * 1e3));
            latency.insert("p99_ms", Json::Num(p99 * 1e3));
            latency
        });
    doc.insert("http_latency", latency.unwrap_or(Json::Null));
    doc.insert("gc", shared.janitor.to_json());
    doc
}

fn submit(
    req: &http::Request,
    w: &mut impl Write,
    shared: &Shared,
    request_id: &str,
) -> io::Result<u16> {
    if shared.shutdown.is_cancelled() {
        return respond(w, 503, &error_doc("draining"));
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return respond(w, 400, &error_doc("scenario body is not UTF-8")),
    };
    let scenario = match Scenario::parse(text) {
        Ok(sc) => sc,
        Err(e) => return respond(w, 400, &error_doc(&e.to_string())),
    };
    if let Err(e) = scenario.validate() {
        return respond(w, 400, &error_doc(&e.to_string()));
    }
    let mut doc = Json::object();
    doc.insert("scenario", Json::Str(scenario.name.clone()));
    let id = shared.jobs.submit(scenario, request_id.to_string());
    doc.insert("job", Json::Num(id as f64));
    doc.insert("request_id", Json::Str(request_id.to_string()));
    respond(w, 202, &doc)
}

/// Tails a job's event bus as close-delimited NDJSON: replays history
/// from cursor 0, then follows live until the bus closes (job terminal)
/// or the daemon shuts down.
fn stream_events(w: &mut impl Write, bus: &obs::EventBus, shared: &Shared) -> io::Result<()> {
    http::write_stream_head(w)?;
    let mut cursor = 0usize;
    loop {
        let (events, closed) = bus.wait_from(cursor, Duration::from_millis(200));
        cursor += events.len();
        for event in &events {
            writeln!(w, "{}", event.render())?;
        }
        if !events.is_empty() {
            w.flush()?;
        }
        if closed || shared.shutdown.is_cancelled() {
            return w.flush();
        }
    }
}

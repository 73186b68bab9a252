//! `serve_mixed`: an open loop at a fixed rate against one `pv3t1d serve`
//! daemon, with a seeded mix of
//!
//! * `hit` — resubmits a scenario completed during set-up (HTTP, spec
//!   parsing, the scheduler and CAS reads);
//! * `dup` — a pair of identical fresh scenarios sent a few ms apart
//!   (`FlightTable` coalescing and its follower poll);
//! * `cold` — a small fresh-seed `chip_campaign` (real compute and CAS
//!   writes).
//!
//! Latency is timed from when each request was due to when the daemon
//! logged the job finished. The generator runs two sender threads, each
//! holding at most one connection at a time; it learns job ends from the
//! daemon's NDJSON log, not by polling.

use crate::spans::Tracer;
use crate::util::{self, median, quantile, Rng};
use crate::{Ctx, Report};
use obs::Json;
use orchestrator::{run_scenario, ArtifactStore, RunOptions, Scenario};
use serve::loadtest::exchange;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Offered load, in request events per second (a `dup` event is two
/// requests). On the 2-vCPU reference host the daemon completes at most
/// about 78 requests/s of this mix, and from 75 events/s on latency grows
/// without bound (`perfbench/knee.py`); this is about a quarter of that.
pub const RATE_PER_S: f64 = 20.0;
/// Event mix, repeated every ten events: 7 `hit`, 1 `dup` (two requests),
/// 2 `cold`. The order is fixed so the two `cold` events are five events
/// apart in every window and every seed; a shuffled order lets them
/// collide by chance, which moves p99 from seed to seed.
const PATTERN: [Kind; 10] = [
    Kind::Hit, Kind::Hit, Kind::Cold, Kind::Hit, Kind::Hit,
    Kind::Dup, Kind::Hit, Kind::Cold, Kind::Hit, Kind::Hit,
];
/// Gap between the two requests of a `dup` pair.
const DUP_GAP: Duration = Duration::from_millis(3);
/// A request that is not `done` within this many ms of being due misses
/// its latency limit.
pub const JOB_LIMIT_MS: f64 = 1000.0;
/// Sender threads of the generator. A POST round trip includes the
/// daemon's accept poll (up to 25 ms), so one sender alone would fall
/// behind well below the daemon's knee.
const SENDERS: usize = 2;
/// Daemon job workers; one stage at a time per job and one campaign
/// worker per stage, so runnable compute threads equal the job workers.
pub const DAEMON_WORKERS: usize = 2;
/// Scenarios completed during set-up, which `hit` requests resubmit.
const HIT_POOL: u64 = 4;
/// Chips per request scenario.
const CHIPS: u64 = 1;
/// How long after the last due time unfinished requests count as failed.
const DRAIN: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hit,
    Dup,
    Cold,
}

impl Kind {
    fn word(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Dup => "dup",
            Kind::Cold => "cold",
        }
    }
}

/// A request scenario: a small severe-corner chip campaign and its
/// retention map.
fn request_doc(name: &str, seed: u64) -> String {
    format!(
        r#"{{"schema": 2, "name": "{name}", "scale": "quick", "default_timeout_seconds": 120,
 "stages": [
  {{"id": "chips", "kind": "chip_campaign",
    "params": {{"node": "32nm", "corner": "severe", "seed": {seed}, "chips": {CHIPS}}}}},
  {{"id": "retention_map", "kind": "retention_map",
    "params": {{"lo_ns": 0, "hi_ns": 3000, "bins": 12, "threshold_ns": 700}}, "deps": ["chips"]}}
 ]}}
"#
    )
}

fn hit_doc(seed: u64, i: u64) -> String {
    request_doc(&format!("hit{i}"), Rng::new(seed, 0x417 + i).below(1 << 31) + 1)
}

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
struct Planned {
    kind: Kind,
    /// Offset from the window start.
    due: Duration,
    body: String,
}

/// The seeded request schedule of one window: one event per `1 / rate`
/// interval, placed in its middle half by a seeded jitter, kinds in
/// [`PATTERN`] order, a seeded hit scenario per `hit` and a fresh
/// scenario seed per fresh event. Even spacing keeps the offered load
/// steady from window to window, so the tail measures the daemon rather
/// than arrival bursts.
fn schedule(seed: u64, window: Duration, rate: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 0x5C4E_0000);
    let mut out = Vec::new();
    let mut fresh = 0u64;
    let events = ((window.as_secs_f64() * rate) as u64).max(1);
    for i in 0..events {
        let t = (i as f64 + 0.25 + 0.5 * rng.unit()) / rate;
        let due = Duration::from_secs_f64(t);
        let kind = PATTERN[i as usize % PATTERN.len()];
        let tag = rng.next_u64() >> 33;
        match kind {
            Kind::Hit => out.push(Planned { kind, due, body: hit_doc(seed, rng.below(HIT_POOL)) }),
            Kind::Dup | Kind::Cold => {
                fresh += 1;
                let name = format!("{}_{fresh}", kind.word());
                let body = request_doc(&name, tag + 1);
                if kind == Kind::Dup {
                    out.push(Planned { kind, due, body: body.clone() });
                    out.push(Planned { kind, due: due + DUP_GAP, body });
                } else {
                    out.push(Planned { kind, due, body });
                }
            }
        }
    }
    out
}

/// What a sender learned about one request.
#[derive(Debug, Clone)]
struct Sent {
    index: usize,
    send: Instant,
    ack: Instant,
    job: Option<u64>,
    request_id: String,
}

fn post(addr: &str, body: &str) -> Result<(u64, String), String> {
    let resp = exchange(addr, "POST", "/runs", Some(body)).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&resp.body);
    if resp.status != 202 {
        return Err(format!("POST /runs: HTTP {}: {text}", resp.status));
    }
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let job = doc.get("job").and_then(Json::as_u64).ok_or("no job id")?;
    let rid = doc.get("request_id").and_then(Json::as_str).unwrap_or("").to_string();
    Ok((job, rid))
}

fn get_json(addr: &str, path: &str) -> Result<(Json, String), String> {
    let resp = exchange(addr, "GET", path, None).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("GET {path}: HTTP {}", resp.status));
    }
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    Ok((Json::parse(&text).map_err(|e| e.to_string())?, text))
}

fn healthz_counters(addr: &str) -> Result<[f64; 3], String> {
    let (h, _) = get_json(addr, "/healthz")?;
    let n = |a: &str, b: &str| h.get(a).and_then(|x| x.get(b)).and_then(Json::as_f64).unwrap_or(0.0);
    Ok([n("cas", "hits"), n("cas", "misses"), n("flight", "coalesced_total")])
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

/// Maps the daemon log's wall-clock `ts_ms` onto this process's
/// monotonic clock.
#[derive(Debug, Clone, Copy)]
struct Clock {
    at: Instant,
    unix_ms: f64,
}

impl Clock {
    fn now() -> Self {
        let at = Instant::now();
        let unix_ms = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64() * 1e3);
        Clock { at, unix_ms }
    }

    /// `ts_ms` is truncated to the millisecond; the midpoint of that
    /// millisecond is the estimate.
    fn instant(&self, ts_ms: f64) -> Instant {
        let off = ts_ms + 0.5 - self.unix_ms;
        if off >= 0.0 {
            self.at + Duration::from_secs_f64(off / 1e3)
        } else {
            self.at.checked_sub(Duration::from_secs_f64(-off / 1e3)).unwrap_or(self.at)
        }
    }
}

/// Job start and end times as the daemon logged them (`job started` and
/// `job finished` lines of its NDJSON log).
#[derive(Debug, Default)]
struct Lifecycle {
    started: BTreeMap<u64, Instant>,
    /// End time and terminal state per job id.
    finished: BTreeMap<u64, (Instant, String)>,
}

/// Reads the daemon's NDJSON log from a byte offset on.
struct LogTail {
    path: PathBuf,
    offset: usize,
    clock: Clock,
}

impl LogTail {
    /// Starts at the current end of the log.
    fn open(path: &Path) -> Result<Self, String> {
        let offset = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?.len() as usize;
        Ok(LogTail { path: path.to_path_buf(), offset, clock: Clock::now() })
    }

    /// Folds every complete line written since the last read into `life`.
    fn read_into(&mut self, life: &mut Lifecycle) -> Result<(), String> {
        let bytes = std::fs::read(&self.path).map_err(|e| e.to_string())?;
        let Some(new) = bytes.get(self.offset..) else {
            return Err("daemon log shrank (rotated)".into());
        };
        let Some(last_nl) = new.iter().rposition(|&b| b == b'\n') else { return Ok(()) };
        for line in String::from_utf8_lossy(&new[..last_nl]).lines() {
            let Ok(doc) = Json::parse(line) else { continue };
            let (Some(msg), Some(job), Some(ts)) = (
                doc.get("msg").and_then(Json::as_str),
                doc.get("job").and_then(Json::as_u64),
                doc.get("ts_ms").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let t = self.clock.instant(ts);
            match msg {
                "job started" => {
                    life.started.insert(job, t);
                }
                "job finished" => {
                    let state = doc.get("state").and_then(Json::as_str).unwrap_or("").to_string();
                    life.finished.insert(job, (t, state));
                }
                _ => {}
            }
        }
        self.offset += last_nl + 1;
        Ok(())
    }
}

/// Runs one open-loop window: [`SENDERS`] threads take the requests in
/// order, each sleeping until its request is due; then the daemon log is
/// read until every accepted job has finished. Returns what was sent, the
/// daemon-side lifecycle and the window start.
fn window(addr: &str, plan: &[Planned], log: &Path) -> Result<(Vec<Sent>, Lifecycle, Instant), String> {
    let mut tail = LogTail::open(log)?;
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let sent = Mutex::new(Vec::with_capacity(plan.len()));
    std::thread::scope(|s| {
        for _ in 0..SENDERS {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = plan.get(index) else { return };
                if let Some(wait) = (start + p.due).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let send = Instant::now();
                let (job, request_id) = match post(addr, &p.body) {
                    Ok((j, r)) => (Some(j), r),
                    Err(_) => (None, String::new()),
                };
                let ack = Instant::now();
                sent.lock().unwrap().push(Sent { index, send, ack, job, request_id });
            });
        }
    });
    let mut sent = sent.into_inner().unwrap();
    sent.sort_by_key(|s| s.index);
    let deadline = start + plan.last().map_or(Duration::ZERO, |p| p.due) + DRAIN;
    let mut life = Lifecycle::default();
    loop {
        tail.read_into(&mut life)?;
        let all = sent.iter().all(|s| s.job.is_none_or(|j| life.finished.contains_key(&j)));
        if all || Instant::now() >= deadline {
            return Ok((sent, life, start));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A running daemon with its address and its NDJSON log.
struct Live {
    daemon: util::Daemon,
    addr: String,
    results: PathBuf,
    log: PathBuf,
}

/// Starts a daemon on a fresh results dir and completes the hit pool.
/// The daemon logs job starts and ends at `info`, which is where request
/// end times come from.
fn start_daemon(ctx: &Ctx, results: &Path) -> Result<Live, String> {
    util::fresh_dir(results).map_err(|e| e.to_string())?;
    let log = results.with_extension("ndjson");
    let daemon = util::Daemon::spawn(
        Command::new(&ctx.pv3t1d)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", &DAEMON_WORKERS.to_string(), "--jobs", "1"])
            .args(["--gc-interval-secs", "0", "--log-level", "info", "--log"])
            .arg(&log)
            .arg("--results")
            .arg(results)
            .env("PV3T1D_WORKERS", "1"),
        &results.with_extension("log"),
    )
    .map_err(|e| format!("spawn pv3t1d serve: {e}"))?;
    let addr = daemon.wait_listening(Duration::from_secs(20)).map_err(|e| e.to_string())?;
    let mut jobs = Vec::new();
    for i in 0..HIT_POOL {
        jobs.push(post(&addr, &hit_doc(ctx.seed, i))?.0);
    }
    for job in jobs {
        loop {
            let (doc, _) = get_json(&addr, &format!("/jobs/{job}"))?;
            match doc.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some(s) if is_terminal(s) => return Err(format!("set-up job {job} ended {s}")),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    Ok(Live { daemon, addr, results: results.to_path_buf(), log })
}

/// Per-request outcome after a window.
struct Outcome {
    kind: Kind,
    latency_ms: f64,
    submit_ms: f64,
    done: bool,
    job: Option<u64>,
    request_id: String,
    due: Instant,
    send: Instant,
    ack: Instant,
    /// When a daemon worker took the job (its `job started` log line).
    started: Option<Instant>,
    end: Instant,
}

fn outcomes(plan: &[Planned], sent: &[Sent], life: &Lifecycle, start: Instant) -> Vec<Outcome> {
    sent.iter()
        .map(|s| {
            let p = &plan[s.index];
            let due = start + p.due;
            let fin = s.job.and_then(|j| life.finished.get(&j));
            let end = fin.map_or(due + DRAIN, |(t, _)| *t);
            Outcome {
                kind: p.kind,
                latency_ms: end.saturating_duration_since(due).as_secs_f64() * 1e3,
                submit_ms: s.ack.duration_since(s.send).as_secs_f64() * 1e3,
                done: fin.is_some_and(|(_, st)| st == "done"),
                job: s.job,
                request_id: s.request_id.clone(),
                due,
                send: s.send,
                ack: s.ack,
                started: s.job.and_then(|j| life.started.get(&j).copied()),
                end,
            }
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let dir = util::fresh_dir(&ctx.work.join("serve_mixed")).map_err(|e| e.to_string())?;

    // Set-up: start a daemon and complete the hit pool. Repeated on fresh
    // results dirs; the last daemon serves the window.
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    for i in 0..5 {
        if let Some(l) = live.take() {
            l.daemon.stop().map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        live = Some(start_daemon(ctx, &dir.join(format!("results{i}")))?);
        setups.push(util::secs(t));
    }
    let live = live.expect("set-up ran");
    rep.metric("setup_s", median(&setups), "s");

    let rate = ctx.rate.unwrap_or(RATE_PER_S);
    let plan = schedule(ctx.seed, Duration::from_secs_f64(ctx.seconds), rate);
    let again = schedule(ctx.seed, Duration::from_secs_f64(ctx.seconds), rate);
    rep.attempt(plan == again, "request schedule differs between two generations of one seed");
    let before = healthz_counters(&live.addr)?;
    let result = window(&live.addr, &plan, &live.log).and_then(|(sent, life, start)| {
        let outs = outcomes(&plan, &sent, &life, start);
        check_done(&live.addr, &plan, &outs, &mut rep, &dir)?;
        if ctx.trace {
            traced(&live, &plan, &sent, &outs, start, before, &dir, &mut rep)
        } else {
            untraced(&live, &plan, &outs, start, rate, &mut rep);
            Ok(())
        }
    });
    live.daemon.stop().map_err(|e| e.to_string())?;
    result.map(|()| rep)
}

fn check_done(addr: &str, plan: &[Planned], outs: &[Outcome], rep: &mut Report, scratch: &Path) -> Result<(), String> {
    // The log's terminal state must be `done`, and so must the job
    // table's.
    let (list, _) = get_json(addr, "/jobs")?;
    let listed: BTreeMap<u64, String> = list
        .get("jobs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| Some((row.get("job")?.as_u64()?, row.get("state")?.as_str()?.to_string())))
        .collect();
    for o in outs {
        let in_table = o.job.and_then(|j| listed.get(&j)).is_some_and(|s| s == "done");
        rep.attempt(o.done && in_table, &format!("request {} ({}) did not end done", o.request_id, o.kind.word()));
    }
    // A sampled served job of each kind must match `run_scenario` on the
    // same document, run in this process.
    for kind in [Kind::Hit, Kind::Dup, Kind::Cold] {
        let Some((i, o)) = outs.iter().enumerate().find(|(_, o)| o.kind == kind && o.done) else {
            continue;
        };
        let job = o.job.expect("done jobs have ids");
        let (doc, _) = get_json(addr, &format!("/jobs/{job}"))?;
        let served = doc.get("manifest").and_then(|m| m.get("fingerprint")).and_then(Json::as_str).unwrap_or("");
        let sc = Scenario::parse(&plan[i].body).map_err(|e| e.to_string())?;
        let local = util::fresh_dir(&scratch.join(format!("check_{}", kind.word()))).map_err(|e| e.to_string())?;
        let opts = RunOptions { jobs: 1, results_dir: local, ..RunOptions::default() };
        let summary = run_scenario(&sc, &opts).map_err(|e| e.to_string())?;
        rep.attempt(summary.fingerprint() == served, &format!("served {} job fingerprint differs from run_scenario", kind.word()));
    }
    Ok(())
}

fn untraced(live: &Live, plan: &[Planned], outs: &[Outcome], start: Instant, rate: f64, rep: &mut Report) {
    let lat: Vec<f64> = outs.iter().map(|o| o.latency_ms).collect();
    let done = outs.iter().filter(|o| o.done).count();
    let ok = outs.iter().filter(|o| o.done && o.latency_ms <= JOB_LIMIT_MS).count();
    let wall = outs.iter().map(|o| o.end).max().unwrap_or(start).duration_since(start).as_secs_f64();
    let late: Vec<f64> = outs.iter().map(|o| o.send.duration_since(o.due).as_secs_f64() * 1e3).collect();
    rep.metric("wall_s", wall, "s");
    rep.metric("p50_ms", quantile(&lat, 0.5), "ms");
    rep.metric("p99_ms", quantile(&lat, 0.99), "ms");
    rep.metric("peak_rss_mb", live.daemon.peak_rss_mb(), "MiB");
    rep.metric("slo_ok_frac", ok as f64 / plan.len().max(1) as f64, "fraction");
    let mut slowest: Vec<&Outcome> = outs.iter().collect();
    slowest.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
    let tail = slowest.iter().take(8).map(|o| Json::Str(format!("{} {:.1}", o.kind.word(), o.latency_ms)));
    rep.detail("slowest_ms", Json::Arr(tail.collect()));
    rep.detail("requests", Json::Num(plan.len() as f64));
    rep.detail("rate_events_per_s", Json::Num(rate));
    rep.detail("done_per_s", Json::Num(done as f64 / wall.max(1e-9)));
    rep.detail("generator_late_ms_p50", Json::Num(quantile(&late, 0.5)));
    rep.detail("generator_late_ms_p99", Json::Num(quantile(&late, 0.99)));
    rep.detail("generator_late_ms_max", Json::Num(quantile(&late, 1.0)));
}

/// Per-layer metrics of the same window the untraced run measures. All
/// spans are built after the window from the senders' timestamps and the
/// daemon log, so tracing adds nothing inside the window.
#[allow(clippy::too_many_arguments)]
fn traced(
    live: &Live,
    plan: &[Planned],
    sent: &[Sent],
    outs: &[Outcome],
    start: Instant,
    before: [f64; 3],
    scratch: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let after = healthz_counters(&live.addr)?;
    let posthoc = Instant::now();
    let mut tr = Tracer::new(true);
    for o in outs {
        let rid = Some(o.request_id.as_str());
        let root = tr.add(&format!("serve.request.{}", o.kind.word()), o.due, o.end, None, rid);
        tr.add("bench.generator_wait", o.due, o.send, root, rid);
        tr.add("serve.submit", o.send, o.ack, root, rid);
        let job = tr.add("serve.job", o.ack, o.end, root, rid);
        if let Some(started) = o.started {
            tr.add("serve.job.run", started.max(o.ack), o.end, job, rid);
        }
    }

    // Shadow pass: the per-request spec, JSON and CAS calls the daemon
    // makes, repeated here on the same documents and artifacts.
    let store = ArtifactStore::new(live.results.join("cas"));
    let shadow = util::fresh_dir(&scratch.join("shadow_cas")).map_err(|e| e.to_string())?;
    let shadow_store = ArtifactStore::new(shadow);
    for (o, s) in outs.iter().zip(sent) {
        let Some(job) = o.job else { continue };
        let (_, text) = get_json(&live.addr, &format!("/jobs/{job}"))?;
        let body = &plan[s.index].body;
        tr.span_for("bench.shadow", Some(&o.request_id), |tr| -> Result<(), String> {
            let sc = tr.span("orchestrator.spec_parse", |_| Scenario::parse(body).and_then(|sc| sc.validate().map(|_| sc)));
            sc.map_err(|e| e.to_string())?;
            let doc = tr.span("obs.json_parse", |_| Json::parse(&text)).map_err(|e| e.to_string())?;
            let rendered = tr.span("obs.json_render", |_| doc.render());
            if rendered.is_empty() {
                return Err("empty render".into());
            }
            let stages = doc.get("manifest").and_then(|m| m.get("results")).and_then(|r| r.get("stages")).and_then(Json::as_obj);
            for e in stages.into_iter().flat_map(|m| m.values()) {
                let Some(key) = e.get("key").and_then(Json::as_str) else { continue };
                let entry = tr.span("orchestrator.cas_get", |_| store.get(key)).ok_or("artifact missing")?;
                tr.span("orchestrator.cas_put", |_| shadow_store.put(key, &entry.kind, &entry.payload))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
    }

    let submit: Vec<f64> = outs.iter().map(|o| o.submit_ms).collect();
    rep.metric("serve.submit_ms_p50", quantile(&submit, 0.5), "ms");
    rep.metric("serve.submit_ms_p99", quantile(&submit, 0.99), "ms");
    for kind in [Kind::Hit, Kind::Dup, Kind::Cold] {
        let l: Vec<f64> = outs.iter().filter(|o| o.kind == kind).map(|o| o.latency_ms).collect();
        rep.metric(&format!("serve.job_ms.{}", kind.word()), if l.is_empty() { 0.0 } else { median(&l) }, "ms");
    }
    // Jobs accepted and not yet finished, swept over the window; a job
    // that ended before its 202 arrived counts from its end.
    let mut edges: Vec<(Instant, i64)> = Vec::new();
    for o in outs.iter().filter(|o| o.job.is_some()) {
        edges.push((o.ack.min(o.end), 1));
        edges.push((o.end, -1));
    }
    edges.sort();
    let (mut depth, mut depth_max) = (0i64, 0i64);
    for (_, d) in edges {
        depth += d;
        depth_max = depth_max.max(depth);
    }
    rep.metric("serve.queue_depth_max", depth_max as f64, "count");
    let busy: f64 = outs.iter().filter_map(|o| Some(o.end.saturating_duration_since(o.started?).as_secs_f64())).sum();
    let wall = outs.iter().map(|o| o.end).max().unwrap_or(start).duration_since(start).as_secs_f64();
    rep.metric("serve.workers_util", busy / (wall * DAEMON_WORKERS as f64).max(1e-9), "fraction");
    let (hits, misses) = (after[0] - before[0], after[1] - before[1]);
    rep.metric("orchestrator.cas_hit_ratio", hits / (hits + misses).max(1.0), "fraction");
    rep.metric("orchestrator.flight.coalesced", after[2] - before[2], "count");
    for name in ["orchestrator.spec_parse", "orchestrator.cas_get", "orchestrator.cas_put", "obs.json_parse", "obs.json_render"] {
        rep.metric(&format!("{name}_s"), tr.self_s(name), "s");
    }
    rep.metric("trace.overhead_pct", 0.0, "%");
    rep.detail("trace.posthoc_s", Json::Num(util::secs(posthoc)));
    rep.tracer = Some(tr);
    Ok(())
}

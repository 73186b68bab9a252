//! `replay_validate`: set-up records seeded `gzip` (about 27k-block
//! footprint) and `mcf` (1.5M blocks, far beyond the 1,024-line L1) trace
//! files; the timed phase replays each through
//! `validate::run_differential*` for the three default schemes.
//!
//! The traced run replays through the benchmark's own copy of the
//! differential loop, with timing `DemandSink` wrappers around the cache
//! under test and the golden model and a timed record decoder, and checks
//! that it reproduces the library loop's counters exactly.

use crate::spans::Tracer;
use crate::util::{self, median, Rng};
use crate::{probe, Ctx, Report};
use cachesim::{AccessKind, AccessResult, AccessReplayer, CacheConfig, DataCache, DemandSink, PortBusy, Scheme};
use obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use validate::{GoldenCache, DivergenceReport};
use workloads::{SpecBenchmark, TraceReader};

/// Records per trace file.
const RECORDS: u64 = 200_000;
/// Chip retention profile both models run with.
const RETENTION: &str = "mixed";
/// One (trace, scheme) replay slower than this misses its latency limit.
pub const OP_LIMIT_S: f64 = 10.0;
/// The traced benchmarks and the stream tag their generator seed uses.
const TRACES: [(SpecBenchmark, u64); 2] = [(SpecBenchmark::Gzip, 0x67), (SpecBenchmark::Mcf, 0x6D)];

fn record_all(ctx: &Ctx, dir: &Path, tr: &mut Tracer) -> Result<(Vec<PathBuf>, u64), String> {
    let mut paths = Vec::new();
    let mut digest = util::FNV_OFFSET;
    for (bench, tag) in TRACES {
        let seed = Rng::new(ctx.seed, tag).next_u64() >> 16;
        let path = dir.join(format!("{bench}.trace"));
        tr.span("workloads.trace_gen", |_| workloads::record_bench_to_path(bench, seed, RECORDS, &path))
            .map_err(|e| format!("record {bench}: {e}"))?;
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        digest = util::fnv1a(&bytes, digest);
        paths.push(path);
    }
    Ok((paths, digest))
}

fn reader(path: &Path) -> Result<TraceReader<std::io::BufReader<std::fs::File>>, String> {
    TraceReader::open(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn config(scheme: Scheme) -> (CacheConfig, cachesim::RetentionProfile) {
    let cfg = CacheConfig::paper(scheme);
    let retention = validate::named_retention(RETENTION, cfg.geometry.lines()).expect("known profile");
    (cfg, retention)
}

/// One untraced (trace, scheme) replay through the library harness.
fn replay_plain(path: &Path, scheme: Scheme) -> Result<DivergenceReport, String> {
    let (cfg, retention) = config(scheme);
    let mut r = reader(path)?;
    let mut err = None;
    let stream = std::iter::from_fn(|| match r.next_record() {
        Ok(x) => x,
        Err(e) => {
            err = Some(e);
            None
        }
    });
    let report = validate::run_differential_with(cfg, stream, retention, 0);
    match err {
        Some(e) => Err(format!("{}: {e}", path.display())),
        None => Ok(report),
    }
}

/// Times every demand access into the wrapped model.
struct Timed<'a, C> {
    inner: &'a mut C,
    ns: u64,
    calls: u64,
    busy: u64,
}

impl<C: DemandSink> DemandSink for Timed<'_, C> {
    fn try_access(&mut self, cycle: u64, addr: u64, kind: AccessKind) -> Result<AccessResult, PortBusy> {
        let t = Instant::now();
        let r = self.inner.try_access(cycle, addr, kind);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.busy += u64::from(r.is_err());
        r
    }
}

/// Layer counters of one traced replay.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    records: u64,
    accesses: u64,
    attempts: u64,
    port_busy: u64,
    hits: u64,
    demand: u64,
    refreshes: u64,
    retention_evictions: u64,
}

/// The differential loop of `validate::run_differential_models`, with the
/// decoder and both models behind timers. Returns the per-counter rows.
fn replay_traced(path: &Path, scheme: Scheme, tr: &mut Tracer, c: &mut Counters) -> Result<Vec<(&'static str, u64, u64)>, String> {
    let (cfg, retention) = config(scheme);
    let mut dut = DataCache::new(cfg, retention.clone());
    let mut golden = GoldenCache::new(cfg, retention);
    let mut r = reader(path)?;
    let (mut rep_dut, mut rep_golden) = (AccessReplayer::new(), AccessReplayer::new());
    let mut t_dut = Timed { inner: &mut dut, ns: 0, calls: 0, busy: 0 };
    let mut t_golden = Timed { inner: &mut golden, ns: 0, calls: 0, busy: 0 };
    let (mut decode_ns, mut j) = (0u64, 0u64);
    let mut mismatches = 0u64;
    loop {
        let t = Instant::now();
        let next = r.next_record();
        decode_ns += t.elapsed().as_nanos() as u64;
        let Some(instr) = next.map_err(|e| format!("{}: {e}", path.display()))? else {
            break;
        };
        if let Some((slot, addr, kind)) = validate::harness::demand_of(j, &instr) {
            let a = rep_dut.step(&mut t_dut, slot, addr, kind);
            let b = rep_golden.step(&mut t_golden, slot, addr, kind);
            mismatches += u64::from(a != b);
            c.accesses += 1;
        }
        j += 1;
    }
    let drain_at = rep_dut.cycle().max(rep_golden.cycle()) + validate::harness::DRAIN_CYCLES;
    let (dut_ns, dut_calls, dut_busy) = (t_dut.ns, t_dut.calls, t_dut.busy);
    let (gold_ns, gold_calls) = (t_golden.ns, t_golden.calls);
    dut.advance(drain_at);
    golden.advance(drain_at);
    tr.hot("workloads.decode", decode_ns, j);
    tr.hot("cachesim.access", dut_ns, dut_calls);
    tr.hot("validate.golden", gold_ns, gold_calls);

    let d = validate::harness::dut_counters(&dut);
    c.records += j;
    c.attempts += dut_calls;
    c.port_busy += dut_busy;
    c.hits += d.hits;
    c.demand += d.loads + d.stores;
    c.refreshes += d.refreshes;
    c.retention_evictions += d.dead_lines;
    let mut rows: Vec<(&'static str, u64, u64)> = d
        .rows()
        .into_iter()
        .zip(golden.counters().rows())
        .map(|((name, dv), (_, gv))| (name, dv, gv))
        .collect();
    rows.push(("result_mismatches", mismatches, 0));
    Ok(rows)
}

fn plain_rows(rep: &DivergenceReport) -> Vec<(&'static str, u64, u64)> {
    let mut rows: Vec<_> = rep.rows.iter().map(|r| (r.counter, r.dut, r.golden)).collect();
    rows.push(("result_mismatches", rep.result_mismatches, 0));
    rows
}

/// One pass over every (trace, scheme): op latencies and counter rows.
fn pass_plain(paths: &[PathBuf], rep: &mut Report, reference: &mut Vec<Vec<(&'static str, u64, u64)>>) -> (Vec<f64>, u64) {
    let mut ops = Vec::new();
    let mut ok_in_limit = 0;
    let mut i = 0;
    for path in paths {
        for (_, scheme) in validate::default_schemes() {
            let t = Instant::now();
            let result = replay_plain(path, scheme);
            let s = util::secs(t);
            ops.push(s);
            match result {
                Ok(report) => {
                    let rows = plain_rows(&report);
                    if reference.len() <= i {
                        reference.push(rows.clone());
                    }
                    let ok = report.max_divergence() == 0 && reference[i] == rows;
                    rep.attempt(ok, &format!("{} {}: divergence or counters changed", path.display(), report.scheme));
                    ok_in_limit += u64::from(ok && s <= OP_LIMIT_S);
                }
                Err(e) => rep.attempt(false, &e),
            }
            i += 1;
        }
    }
    (ops, ok_in_limit)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let dir = util::fresh_dir(&ctx.work.join("replay_validate")).map_err(|e| e.to_string())?;

    // Set-up: record both trace files; repeated, and every repetition must
    // write byte-identical files.
    let mut setups = Vec::new();
    let mut digest = None;
    let mut tracer = Tracer::new(ctx.trace);
    let mut paths = Vec::new();
    let mut speed = probe::Speed::new()?;
    for _ in 0..3 {
        let t = Instant::now();
        let (p, d) = record_all(ctx, &dir, &mut tracer)?;
        setups.push(util::secs(t) / speed.interval()?);
        rep.attempt(digest.is_none_or(|x| x == d), "trace files differ between set-ups of one seed");
        digest = Some(d);
        paths = p;
    }
    rep.metric("setup_s", median(&setups), "s");
    rep.detail("trace_digest", Json::Str(format!("{:016x}", digest.unwrap_or(0))));

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut reference = Vec::new();
    if ctx.trace {
        let setup_gen_s = tracer.self_s("workloads.trace_gen") / setups.len() as f64;
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let mut last = None;
        while traced.is_empty() || Instant::now() < deadline {
            let t = Instant::now();
            pass_plain(&paths, &mut rep, &mut reference);
            untraced.push(util::secs(t));
            let mut tr = Tracer::new(true);
            let mut c = Counters::default();
            let t = Instant::now();
            let mut i = 0;
            for path in &paths {
                for (name, scheme) in validate::default_schemes() {
                    let rows = tr.span("validate.differential", |tr| replay_traced(path, scheme, tr, &mut c));
                    let ok = matches!(&rows, Ok(r) if reference.get(i) == Some(r));
                    rep.attempt(ok, &format!("{} {name}: traced replay differs from the library loop", path.display()));
                    i += 1;
                }
            }
            traced.push(util::secs(t));
            last = Some((tr, c));
        }
        let (tr, c) = last.expect("one traced pass");
        rep.metric("workloads.trace_gen_s", setup_gen_s, "s");
        rep.metric("workloads.instrs_generated", (RECORDS * TRACES.len() as u64) as f64, "count");
        rep.metric("workloads.decode_s", tr.self_s("workloads.decode"), "s");
        rep.metric("workloads.records", c.records as f64, "count");
        rep.metric("cachesim.access_s", tr.self_s("cachesim.access"), "s");
        rep.metric("cachesim.accesses", c.accesses as f64, "count");
        rep.metric("cachesim.hit_ratio", c.hits as f64 / c.demand.max(1) as f64, "fraction");
        rep.metric("cachesim.port_busy_ratio", c.port_busy as f64 / c.attempts.max(1) as f64, "fraction");
        rep.metric("cachesim.refreshes", c.refreshes as f64, "count");
        rep.metric("cachesim.retention_evictions", c.retention_evictions as f64, "count");
        rep.metric("validate.golden_s", tr.self_s("validate.golden"), "s");
        let (u, t) = (median(&untraced), median(&traced));
        rep.metric("trace.overhead_pct", (t - u) / u * 100.0, "%");
        rep.detail("untraced_pass_s", Json::Num(u));
        rep.detail("traced_pass_s", Json::Num(t));
        rep.tracer = Some(tr);
        return Ok(rep);
    }

    // Times are host-normalized per pass (see `crate::probe`); the
    // raw median pass wall is kept as a detail.
    let mut speed = probe::Speed::new()?;
    let (mut walls, mut raw_walls) = (Vec::new(), Vec::new());
    let mut ops: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let (mut ok_in_limit, mut replays) = (0, 0);
    while walls.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let (o, ok) = pass_plain(&paths, &mut rep, &mut reference);
        let wall = util::secs(t);
        let slow = speed.interval()?;
        raw_walls.push(wall);
        walls.push(wall / slow);
        for (i, s) in o.iter().enumerate() {
            ops.entry(i).or_default().push(s * 1e3 / slow);
        }
        replays += o.len();
        ok_in_limit += ok;
    }
    rep.metric("wall_s", median(&walls), "s");
    rep.metric("p50_ms", util::quantile_of_medians(&ops, 0.5), "ms");
    rep.metric("p99_ms", util::quantile_of_medians(&ops, 0.99), "ms");
    rep.metric("peak_rss_mb", util::vm_hwm_mb("/proc/self/status"), "MiB");
    rep.metric("slo_ok_frac", ok_in_limit as f64 / replays as f64, "fraction");
    rep.detail("passes", Json::Num(walls.len() as f64));
    rep.detail("raw_wall_s", Json::Num(median(&raw_walls)));
    rep.detail("host_slowness", Json::Num(speed.median()));
    rep.detail("replay_ms", Json::Arr(ops.values().map(|v| Json::Num(median(v))).collect()));
    let counters: Vec<Json> = reference
        .iter()
        .map(|rows| {
            let mut o = Json::object();
            for (name, dut, _) in rows {
                o.insert(name, Json::Num(*dut as f64));
            }
            o
        })
        .collect();
    rep.detail("dut_counters", Json::Arr(counters));
    Ok(rep)
}

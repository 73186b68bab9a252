//! `perfbench`: the pv3t1d end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --pv3t1d <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rate <events/s>]
//! ```
//!
//! Workloads: `campaign_cold`, `serve_mixed`, `replay_validate` (see
//! `perfbench/README.md`). With `--trace 0` the last stdout line is a JSON
//! object carrying every end-to-end metric; with `--trace 1` it carries
//! every per-layer metric (0 for layers the workload does not touch) and
//! the spans are written under `.bench_work/results/`. A correctness
//! mismatch is a failed operation and makes the exit code 1.
//!
//! `perfbench --speed-probe` runs the host-speed probe (`probe.rs`) and
//! prints its seconds; the workloads spawn it between timed intervals.

mod campaign;
mod probe;
mod replay;
mod serve;
mod spans;
mod util;

use obs::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("slo_ok_frac", "fraction"),
];

/// Per-layer metrics every traced run reports, with their units.
const PER_LAYER: [(&str, &str); 38] = [
    ("vlsi.sample_s", "s"),
    ("vlsi.chips", "count"),
    ("vlsi.median_retention_ns", "ns"),
    ("vlsi.yield_frac", "fraction"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.instrs_generated", "count"),
    ("workloads.decode_s", "s"),
    ("workloads.records", "count"),
    ("t3cache.evaluate_s", "s"),
    ("t3cache.suite_runs", "count"),
    ("uarch.sim_instrs", "count"),
    ("uarch.sim_cycles", "count"),
    ("uarch.replay_flushes", "count"),
    ("cachesim.access_s", "s"),
    ("cachesim.accesses", "count"),
    ("cachesim.hit_ratio", "fraction"),
    ("cachesim.port_busy_ratio", "fraction"),
    ("cachesim.refreshes", "count"),
    ("cachesim.retention_evictions", "count"),
    ("validate.golden_s", "s"),
    ("orchestrator.stage_busy_s", "s"),
    ("orchestrator.sched_overhead_s", "s"),
    ("orchestrator.worker_util", "fraction"),
    ("orchestrator.cas_get_s", "s"),
    ("orchestrator.cas_put_s", "s"),
    ("orchestrator.spec_parse_s", "s"),
    ("orchestrator.cas_hit_ratio", "fraction"),
    ("orchestrator.flight.coalesced", "count"),
    ("obs.json_parse_s", "s"),
    ("obs.json_render_s", "s"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p99", "ms"),
    ("serve.job_ms.hit", "ms"),
    ("serve.job_ms.dup", "ms"),
    ("serve.job_ms.cold", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.workers_util", "fraction"),
    ("trace.overhead_pct", "%"),
];

/// Everything a workload needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pv3t1d: PathBuf,
    /// `serve_mixed` offered load in events/s, overriding the default
    /// (`--rate`, used by the knee sweep in `perfbench/knee.py`).
    pub rate: Option<f64>,
    /// Scratch space inside the checkout.
    pub work: PathBuf,
}

/// A workload's result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    details: Vec<(String, Json)>,
    pub tracer: Option<spans::Tracer>,
}

impl Report {
    /// Counts one checked operation.
    pub fn attempt(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what.to_string());
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn detail(&mut self, name: &str, value: Json) {
        self.details.push((name.to_string(), value));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pv3t1d: PathBuf,
    rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        pv3t1d: PathBuf::new(),
        rate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--pv3t1d" => a.pv3t1d = PathBuf::from(value()?),
            "--rate" => a.rate = Some(value()?.parse().map_err(|e| format!("--rate: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if a.rate.is_some_and(|r: f64| !(r > 0.0 && r <= 1000.0)) {
        return Err("--rate must be in (0, 1000]".into());
    }
    if !a.pv3t1d.is_file() {
        return Err(format!("--pv3t1d {:?} is not a file", a.pv3t1d));
    }
    Ok(a)
}

/// Digest of the program sources, standing in for the commit when the
/// checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock"), root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = util::FNV_OFFSET;
    for f in files {
        h = util::fnv1a(f.to_string_lossy().as_bytes(), h);
        h = util::fnv1a(&std::fs::read(&f).unwrap_or_default(), h);
    }
    format!("{h:016x}")
}

/// nproc, CPU model, rustc version, git commit and a source digest.
fn host_record() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut h = Json::object();
    h.insert("nproc", Json::Num(nproc as f64));
    h.insert("cpu_model", Json::Str(cpu));
    h.insert("rustc", Json::Str(util::command_line("rustc", &["--version"])));
    h.insert("git_commit", Json::Str(util::command_line("git", &["rev-parse", "HEAD"])));
    h.insert("source_digest", Json::Str(source_digest(Path::new("."))));
    h
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let work = PathBuf::from(".bench_work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        pv3t1d: args.pv3t1d,
        rate: args.rate,
        work: work.join(format!("run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| e.to_string())?;
    let host = host_record();
    let result = match args.workload.as_str() {
        "campaign_cold" => campaign::run(&ctx),
        "serve_mixed" => serve::run(&ctx),
        "replay_validate" => replay::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    // Work files (traces, results dirs) are large; only the record stays.
    let _ = std::fs::remove_dir_all(&ctx.work);
    let rep = result?;

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::object();
    for (name, unit) in wanted {
        let value = match rep.metrics.iter().find(|m| m.0 == *name) {
            Some(m) => m.1,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        let mut m = Json::object();
        m.insert("value", Json::Num(value));
        m.insert("unit", Json::Str((*unit).to_string()));
        metrics.insert(name, m);
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let results = work.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let mut record = Json::object();
    record.insert("workload", Json::Str(args.workload.clone()));
    record.insert("seed", Json::Num(args.seed as f64));
    record.insert("seconds", Json::Num(args.seconds));
    record.insert("host", host.clone());
    record.insert("metrics", metrics.clone());
    let mut details = Json::object();
    for (k, v) in &rep.details {
        details.insert(k, v.clone());
    }
    record.insert("details", details.clone());
    record.insert(
        "failures",
        Json::Arr(rep.failures.iter().map(|f| Json::Str(f.clone())).collect()),
    );

    println!("host: {}", host.render());
    println!("details: {}", details.render());
    for (name, value, unit) in &rep.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    if let Some(tr) = &rep.tracer {
        println!("per-layer self time (one traced pass):");
        for (layer, s) in tr.layer_self_times() {
            println!("  {layer:<14} {s:>12.6} s");
        }
        for (name, (s, n)) in tr.self_times() {
            println!("  {name:<34} {s:>12.6} s  {n:>10} calls");
        }
        let path = results.join(format!("{stem}.spans.json"));
        tr.write(&path).map_err(|e| e.to_string())?;
        println!("spans: {}", path.display());
    }
    for f in &rep.failures {
        eprintln!("FAILED: {f}");
    }
    std::fs::write(results.join(format!("{stem}.json")), record.render_pretty())
        .map_err(|e| e.to_string())?;

    let correct = rep.failed == 0 && rep.attempted > 0;
    let mut line = Json::object();
    line.insert("correct", Json::Bool(correct));
    line.insert("attempted", Json::Num(rep.attempted as f64));
    line.insert("failed", Json::Num(rep.failed as f64));
    line.insert("metrics", metrics);
    println!("{}", line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(probe::FLAG) {
        println!("{}", probe::kernel());
        return ExitCode::SUCCESS;
    }
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

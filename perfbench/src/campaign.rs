//! `campaign_cold`: a cold `pv3t1d run` of a seed-generated schema-3
//! scenario (severe-corner chip campaign, retention map, a dvfs_point
//! sweep over all three cell technologies × two operating points, the
//! frontier and a report).
//!
//! Untraced runs time whole child processes. The traced run re-executes
//! the scenario's compute layer by layer in this process, with spans
//! around the calls into vlsi, workloads, t3cache and uarch, and checks
//! that it reproduces the child's payloads exactly.

use crate::spans::Tracer;
use crate::util::{self, median, Rng};
use crate::{probe, Ctx, Report};
use cachesim::Scheme;
use obs::Json;
use orchestrator::{ArtifactStore, Scenario};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use t3cache::chip::{ChipGrade, ChipModel, ChipPopulation};
use t3cache::dvfs::YIELD_DEAD_LINE_LIMIT;
use t3cache::evaluate::{EvalConfig, Evaluator};
use uarch::sim::SimResult;
use vlsi::celltech::CellTechKind;
use vlsi::montecarlo::ChipFactory;
use vlsi::tech::{OperatingPoint, TechNode};
use vlsi::units::{Frequency, Voltage};
use vlsi::variation::VariationCorner;

/// Stage concurrency of the `pv3t1d run` child (`--jobs`).
pub const STAGE_JOBS: usize = 1;
/// Campaign workers inside each stage (`PV3T1D_WORKERS`). With one stage
/// at a time this keeps one compute thread runnable, which leaves the
/// second of the two reference vCPUs to the benchmark and the kernel and
/// matches the single-threaded speed probe the times are normalized by.
pub const CAMPAIGN_WORKERS: usize = 1;
/// glibc malloc arenas of the `pv3t1d run` child (`MALLOC_ARENA_MAX`).
/// Whether the worker thread gets an arena of its own depends on thread
/// timing, and with it the child's peak RSS: 14.5 or 23 MiB for the same
/// scenario, changing with the host's load. One arena makes it steady.
pub const MALLOC_ARENAS: usize = 1;
/// A cold run slower than this misses its latency limit.
pub const RUN_LIMIT_S: f64 = 15.0;

const CHIPS: u64 = 6;
const SCALE: &str =
    r#"{"mc_chips": 6, "sim_chips": 2, "instructions": 6000, "warmup": 3000}"#;
/// The sweep's two operating points: nominal, and a low-voltage point.
const OPS: &str = r#"[{"vdd": 1.0, "freq_ghz": 4.3}, {"vdd": 0.8, "freq_ghz": 2.8, "temp_c": 70}]"#;

/// The scenario document for `seed` (byte-identical for a given seed).
/// The seed picks the chip populations; the amount of work is fixed.
pub fn scenario_doc(seed: u64) -> String {
    let mut rng = Rng::new(seed, 0xC0);
    let chip_seed = 1 + rng.below(1 << 31);
    let grid_seed = 1 + rng.below(1 << 31);
    format!(
        r#"{{
  "schema": 3,
  "name": "bench_campaign_{seed}",
  "scale": {SCALE},
  "default_timeout_seconds": 600,
  "technologies": ["3t1d", "stt-arc", "6t-lv"],
  "operating_points": {OPS},
  "stages": [
    {{ "id": "chips", "kind": "chip_campaign",
       "params": {{ "node": "32nm", "corner": "severe", "seed": {chip_seed}, "chips": {CHIPS} }} }},
    {{ "id": "retention_map", "kind": "retention_map",
       "params": {{ "lo_ns": 0, "hi_ns": 3000, "bins": 12, "threshold_ns": 700 }},
       "deps": ["chips"] }},
    {{ "id": "grid", "kind": "dvfs_point", "sweep": true,
       "params": {{ "node": "32nm", "corner": "severe", "seed": {grid_seed} }} }},
    {{ "id": "frontier", "kind": "dvfs_frontier", "deps": ["grid"] }},
    {{ "id": "report", "kind": "report", "deps": ["retention_map", "frontier"] }}
  ]
}}
"#
    )
}

/// What one `pv3t1d run` child produced.
struct ChildOutcome {
    run: util::ChildRun,
    manifest: Json,
    fingerprint: String,
}

fn run_child(ctx: &Ctx, scenario: &Path, results: &Path, extra: &[&str]) -> Result<ChildOutcome, String> {
    let mut cmd = Command::new(&ctx.pv3t1d);
    cmd.arg("run")
        .arg(scenario)
        .arg("--results")
        .arg(results)
        .arg("--jobs")
        .arg(STAGE_JOBS.to_string())
        .args(extra)
        .env("PV3T1D_WORKERS", CAMPAIGN_WORKERS.to_string())
        .env("MALLOC_ARENA_MAX", MALLOC_ARENAS.to_string());
    let run = util::run_child(&mut cmd, &results.with_extension("log"))
        .map_err(|e| format!("spawn pv3t1d run: {e}"))?;
    if !run.success {
        return Err(format!("pv3t1d run failed (see {})", results.with_extension("log").display()));
    }
    let name = format!("{}.run.json", scenario_name(scenario)?);
    let text = std::fs::read_to_string(results.join(name)).map_err(|e| format!("manifest: {e}"))?;
    let manifest = Json::parse(&text).map_err(|e| format!("manifest: {e}"))?;
    let fingerprint = manifest
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("manifest has no fingerprint")?
        .to_string();
    Ok(ChildOutcome { run, manifest, fingerprint })
}

fn scenario_name(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Ok(Scenario::parse(&text).map_err(|e| e.to_string())?.name)
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = j;
    for k in path {
        cur = cur.get(k)?;
    }
    cur.as_f64()
}

/// Execution seconds of the stages that compute (`chip_campaign` and
/// `dvfs_point`), by stage id; the millisecond bookkeeping stages are left
/// out.
fn compute_stage_ms(manifest: &Json) -> Vec<(String, f64)> {
    let kinds = manifest.get("results").and_then(|r| r.get("stages"));
    stage_seconds(manifest)
        .into_iter()
        .filter(|(id, _)| {
            let kind = kinds.and_then(|k| k.get(id)).and_then(|e| e.get("kind")).and_then(Json::as_str);
            matches!(kind, Some("chip_campaign" | "dvfs_point"))
        })
        .map(|(id, s)| (id, s * 1e3))
        .collect()
}

/// Per-stage execution seconds from a manifest.
fn stage_seconds(manifest: &Json) -> Vec<(String, f64)> {
    manifest
        .get("execution")
        .and_then(|e| e.get("stages"))
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(id, e)| e.get("seconds").and_then(Json::as_f64).map(|s| (id.clone(), s)))
                .collect()
        })
        .unwrap_or_default()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let dir = util::fresh_dir(&ctx.work.join("campaign_cold")).map_err(|e| e.to_string())?;
    let scenario = dir.join("scenario.json");

    // Set-up: generate the scenario, check the generator is deterministic,
    // and plan it against an empty cache (spec parse, grid expansion and
    // key hashing in the program, all misses). Repeated after one untimed
    // round that loads the binary; median reported.
    let mut setups = Vec::new();
    let mut doc_hash = None;
    let mut speed = probe::Speed::new()?;
    for i in 0..16 {
        let t = Instant::now();
        let doc = scenario_doc(ctx.seed);
        std::fs::write(&scenario, &doc).map_err(|e| e.to_string())?;
        let plan_dir = util::fresh_dir(&dir.join("plan")).map_err(|e| e.to_string())?;
        let planned = util::run_child(
            Command::new(&ctx.pv3t1d)
                .arg("plan")
                .arg(&scenario)
                .arg("--results")
                .arg(&plan_dir),
            &dir.join(format!("plan{i}.log")),
        )
        .map_err(|e| e.to_string())?;
        let took = util::secs(t);
        let slow = speed.interval()?;
        if i > 0 {
            setups.push(took / slow);
        }
        let h = util::fnv1a(doc.as_bytes(), util::FNV_OFFSET);
        rep.attempt(planned.success && doc_hash.is_none_or(|d| d == h), "scenario generation or plan");
        doc_hash = Some(h);
    }
    rep.metric("setup_s", median(&setups), "s");

    if ctx.trace {
        return traced(ctx, &dir, &scenario, rep);
    }

    // Times are host-normalized per run (see `crate::probe`), probed
    // between runs while no child computes; the raw median wall is kept as
    // a detail.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut speed = probe::Speed::new()?;
    let (mut walls, mut raw_walls) = (Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut stage_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut ok_in_limit = 0u64;
    let mut runs = 0u64;
    let mut reference: Option<String> = None;
    let mut last_results = PathBuf::new();
    let mut last_manifest = None;
    while runs == 0 || Instant::now() < deadline {
        let results = util::fresh_dir(&dir.join(format!("cold{}", runs % 2))).map_err(|e| e.to_string())?;
        runs += 1;
        let outcome = run_child(ctx, &scenario, &results, &[]);
        let slow = speed.interval()?;
        match outcome {
            Ok(out) => {
                let cold = num(&out.manifest, &["execution", "cache_hits"]) == Some(0.0);
                let same = reference.get_or_insert_with(|| out.fingerprint.clone()) == &out.fingerprint;
                let ok = cold && same;
                rep.attempt(ok, "cold run fingerprint differs from the first run's");
                if ok && out.run.wall_s <= RUN_LIMIT_S {
                    ok_in_limit += 1;
                }
                walls.push(out.run.wall_s / slow);
                raw_walls.push(out.run.wall_s);
                rss.push(out.run.peak_rss_mb);
                for (id, ms) in compute_stage_ms(&out.manifest) {
                    stage_ms.entry(id).or_default().push(ms / slow);
                }
                last_results = results;
                last_manifest = Some(out.manifest);
            }
            Err(e) => rep.attempt(false, &e),
        }
    }

    // The cached rerun must be all hits and reproduce the fingerprint.
    if let Some(reference) = &reference {
        match run_child(ctx, &scenario, &last_results, &["--expect-cached"]) {
            Ok(out) => rep.attempt(&out.fingerprint == reference, "cached rerun fingerprint differs"),
            Err(e) => rep.attempt(false, &e),
        }
    }

    rep.metric("wall_s", median(&walls), "s");
    rep.metric("p50_ms", util::quantile_of_medians(&stage_ms, 0.5), "ms");
    rep.metric("p99_ms", util::quantile_of_medians(&stage_ms, 0.99), "ms");
    rep.metric("peak_rss_mb", median(&rss), "MiB");
    rep.metric("slo_ok_frac", ok_in_limit as f64 / runs as f64, "fraction");
    rep.detail("runs", Json::Num(runs as f64));
    rep.detail("raw_wall_s", Json::Num(median(&raw_walls)));
    rep.detail("host_slowness", Json::Num(speed.median()));
    let mut per_stage = Json::object();
    for (id, v) in &stage_ms {
        per_stage.insert(id, Json::Num(median(v)));
    }
    rep.detail("stage_ms", per_stage);
    rep.detail("stage_jobs", Json::Num(STAGE_JOBS as f64));
    rep.detail("campaign_workers", Json::Num(CAMPAIGN_WORKERS as f64));
    rep.detail("malloc_arenas", Json::Num(MALLOC_ARENAS as f64));
    // Exact outputs beside the timings: per-cell yield, median retention,
    // normalized performance and BIPS, and the chip campaign's median.
    if let Some(manifest) = last_manifest {
        let (cells, chip_median) = reference_cells(&manifest, &last_results.join("cas"))?;
        let mut exact = Json::object();
        for (id, v) in cells {
            exact.insert(&id, Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()));
        }
        exact.insert("chips.median_ns", Json::Num(chip_median));
        rep.detail("exact", exact);
    }
    rep.detail("fingerprint", reference.map_or(Json::Null, Json::Str));
    rep.detail("run_walls_s", Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()));
    Ok(rep)
}

/// Per dvfs cell: (yield fraction, median retention ns, normalized perf,
/// BIPS), keyed by stage id — compared bit-for-bit against the child's
/// payloads.
type Cells = Vec<(String, [f64; 4])>;

/// Exact simulated statistics of one layered pass.
#[derive(Debug, Default, Clone, PartialEq)]
struct PassStats {
    chips: u64,
    instrs_generated: u64,
    suite_runs: u64,
    sim: SimResult,
    cells: Cells,
    chip_median_ns: f64,
}

fn traced(ctx: &Ctx, dir: &Path, scenario_path: &Path, mut rep: Report) -> Result<Report, String> {
    let text = std::fs::read_to_string(scenario_path).map_err(|e| e.to_string())?;
    let scenario = Scenario::parse(&text).map_err(|e| e.to_string())?;

    // One cold child for the scheduler's view and the reference payloads.
    let results = util::fresh_dir(&dir.join("traced_run")).map_err(|e| e.to_string())?;
    let out = run_child(ctx, scenario_path, &results, &[])?;
    let cold = num(&out.manifest, &["execution", "cache_hits"]) == Some(0.0);
    rep.attempt(cold, "traced cold run had cache hits");
    let stages = stage_seconds(&out.manifest);
    let busy: f64 = stages.iter().map(|(_, s)| s).sum();
    let wall = num(&out.manifest, &["execution", "wall_seconds"]).unwrap_or(out.run.wall_s);
    let critical = critical_path(&scenario, &stages);
    let jobs = STAGE_JOBS as f64;
    rep.metric("orchestrator.stage_busy_s", busy, "s");
    rep.metric("orchestrator.sched_overhead_s", wall - critical.max(busy / jobs), "s");
    rep.metric("orchestrator.worker_util", busy / (wall * jobs), "fraction");
    let expected = reference_cells(&out.manifest, &results.join("cas"))?;

    // Layered passes in this process: untraced then traced, repeated.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    while traced_walls.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let plain = layered_pass(&scenario, &mut Tracer::new(false));
        untraced.push(util::secs(t));
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let stats = tracer.span("bench.campaign_pass", |tr| layered_pass(&scenario, tr));
        traced_walls.push(util::secs(t));
        let ok = stats == plain && stats.cells == expected.0 && stats.chip_median_ns == expected.1;
        rep.attempt(ok, "layered pass disagrees with the pv3t1d run payloads");
        last = Some((stats, tracer));
    }
    let (stats, tracer) = last.expect("at least one pass");
    rep.metric("vlsi.sample_s", tracer.self_s("vlsi.sample"), "s");
    rep.metric("vlsi.chips", stats.chips as f64, "count");
    rep.metric("workloads.trace_gen_s", tracer.self_s("workloads.trace_gen"), "s");
    rep.metric("workloads.instrs_generated", stats.instrs_generated as f64, "count");
    rep.metric("t3cache.evaluate_s", tracer.self_s("t3cache.evaluate"), "s");
    rep.metric("t3cache.suite_runs", stats.suite_runs as f64, "count");
    rep.metric("uarch.sim_instrs", stats.sim.instructions as f64, "count");
    rep.metric("uarch.sim_cycles", stats.sim.cycles as f64, "count");
    rep.metric("uarch.replay_flushes", stats.sim.replay_flushes as f64, "count");
    rep.metric("vlsi.median_retention_ns", stats.chip_median_ns, "ns");
    let yields: Vec<f64> = stats.cells.iter().map(|(_, v)| v[0]).collect();
    rep.metric("vlsi.yield_frac", yields.iter().sum::<f64>() / yields.len().max(1) as f64, "fraction");
    let (u, t) = (median(&untraced), median(&traced_walls));
    rep.metric("trace.overhead_pct", (t - u) / u * 100.0, "%");
    rep.detail("untraced_pass_s", Json::Num(u));
    rep.detail("traced_pass_s", Json::Num(t));
    rep.tracer = Some(tracer);
    Ok(rep)
}

/// Longest dependency chain of stage seconds.
fn critical_path(sc: &Scenario, stages: &[(String, f64)]) -> f64 {
    let secs = |id: &str| stages.iter().find(|(s, _)| s == id).map_or(0.0, |(_, v)| *v);
    let mut finish: BTreeMap<&str, f64> = Default::default();
    // Stages are in document order and a dependency always precedes its
    // dependents once validated, so one forward sweep suffices.
    let order = sc.validate().unwrap_or_default();
    for i in order {
        let s = &sc.stages[i];
        let start = s.deps.iter().map(|d| finish.get(d.as_str()).copied().unwrap_or(0.0)).fold(0.0, f64::max);
        finish.insert(&s.id, start + secs(&s.id));
    }
    finish.values().copied().fold(0.0, f64::max)
}

/// The child's dvfs cell summaries and chip-campaign median, read from
/// its artifact store.
fn reference_cells(manifest: &Json, cas: &Path) -> Result<(Cells, f64), String> {
    let store = ArtifactStore::new(cas);
    let stages = manifest
        .get("results")
        .and_then(|r| r.get("stages"))
        .and_then(Json::as_obj)
        .ok_or("manifest has no results.stages")?;
    let mut cells = Vec::new();
    let mut chip_median = f64::NAN;
    for (id, e) in stages {
        let key = e.get("key").and_then(Json::as_str).ok_or("stage without key")?;
        let payload = store.get(key).ok_or_else(|| format!("artifact of {id} missing"))?.payload;
        match payload.get("kind").and_then(Json::as_str) {
            Some("dvfs_point") => {
                let f = |k: &str| payload.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                cells.push((
                    id.clone(),
                    [f("yield_fraction"), f("median_retention_ns"), f("normalized_perf"), f("bips")],
                ));
            }
            Some("chip_campaign") => {
                chip_median = payload.get("median_ns").and_then(Json::as_f64).unwrap_or(f64::NAN);
            }
            _ => {}
        }
    }
    Ok((cells, chip_median))
}

fn corner(params: &Json) -> VariationCorner {
    match params.get("corner").and_then(Json::as_str) {
        Some("none") => VariationCorner::None,
        Some("typical") => VariationCorner::Typical,
        _ => VariationCorner::Severe,
    }
}

fn node(params: &Json) -> TechNode {
    params
        .get("node")
        .and_then(Json::as_str)
        .and_then(|n| n.parse().ok())
        .unwrap_or(TechNode::N32)
}

/// The scenario's compute, layer by layer: the same public calls the
/// `chip_campaign` and `dvfs_point` stages make, with spans around each.
fn layered_pass(sc: &Scenario, tr: &mut Tracer) -> PassStats {
    let mut st = PassStats::default();
    let eval_base = EvalConfig {
        instructions: sc.scale.instructions,
        warmup: sc.scale.warmup,
        ..EvalConfig::default()
    };
    let mut stages: Vec<_> = sc.stages.iter().collect();
    stages.sort_by(|a, b| a.id.cmp(&b.id));
    for s in stages {
        let p = &s.params;
        let seed = p.get("seed").and_then(Json::as_u64).unwrap_or(20_245);
        match s.kind.as_str() {
            "chip_campaign" => {
                let chips = p.get("chips").and_then(Json::as_u64).unwrap_or(u64::from(sc.scale.mc_chips));
                let factory = ChipFactory::new(node(p), corner(p).params(), seed);
                let retention: Vec<f64> = tr.span("vlsi.sample", |_| {
                    (0..chips as u32)
                        .map(|i| ChipModel::new(&factory.chip(i)).cache_retention().ns())
                        .collect()
                });
                st.chips += chips;
                st.chip_median_ns = vlsi::units::Time::from_ns(vlsi::stats::median(&retention)).ns();
            }
            "dvfs_point" => {
                let node = node(p);
                let f = |k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let op = OperatingPoint {
                    vdd: Voltage::new(f("vdd")),
                    freq: Frequency::from_ghz(f("freq_ghz")),
                    temp_c: f("temp_c"),
                };
                let kind: CellTechKind = p
                    .get("technology")
                    .and_then(Json::as_str)
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_default();
                let chips = p.get("chips").and_then(Json::as_u64).unwrap_or(u64::from(sc.scale.mc_chips)) as u32;
                let tech = kind.build(node, op);
                let pop = tr.span("vlsi.sample", |_| {
                    ChipPopulation::generate_with_tech(node, corner(p).params(), chips, seed, tech.as_ref())
                });
                st.chips += u64::from(chips);
                let yielding = pop.chips().iter().filter(|c| c.dead_fraction() < YIELD_DEAD_LINE_LIMIT).count();
                let median = pop.select(ChipGrade::Median);
                let eval = Evaluator::new(EvalConfig {
                    node,
                    operating_point: Some(op),
                    ..eval_base.clone()
                });
                tr.span("workloads.trace_gen", |_| eval.warm_traces());
                let slack = 2 * u64::from(eval.config().machine.rob_entries) + 1024;
                st.instrs_generated +=
                    eval.config().benchmarks.len() as u64 * (eval_base.warmup + eval_base.instructions + slack);
                let ideal = tr.span("t3cache.evaluate", |_| eval.run_ideal(4));
                let suite = tr.span("t3cache.evaluate", |_| {
                    eval.run_scheme(median.retention_profile(), Scheme::rsp_fifo(), 4)
                });
                st.suite_runs += 2;
                for r in ideal.runs.iter().chain(&suite.runs) {
                    st.sim.merge(&r.sim);
                }
                st.cells.push((
                    s.id.clone(),
                    [
                        yielding as f64 / pop.len().max(1) as f64,
                        median.cache_retention().ns(),
                        suite.normalized_performance(&ideal, 1.0),
                        suite.hm_bips(1.0),
                    ],
                ));
            }
            _ => {}
        }
    }
    st
}

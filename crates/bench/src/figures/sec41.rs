//! §4.1 stage: the global refresh scheme without process variation —
//! refresh bandwidth and performance cost at nominal retention.
//!
//! Paper anchors at 32 nm: a full refresh pass is 2 K cycles ≈ 476.3 ns;
//! at the ≈6000 ns nominal cache retention that is ≈8 % of cache
//! bandwidth, hidden by port under-utilization for <1 % performance loss.

use super::StageOutput;
use crate::RunScale;
use cachesim::{DataCache, RetentionProfile, Scheme};
use std::fmt::Write as _;
use t3cache::evaluate::Evaluator;
use vlsi::tech::TechNode;

/// Runs the §4.1 global-refresh study at the given scale.
pub fn global_refresh(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("sec41_global_refresh");
    out.banner("Section 4.1", "global refresh without variation (32 nm)");
    let node = TechNode::N32;
    out.manifest.tech_node = Some(node.to_string());
    out.manifest.scheme = Some(Scheme::global().to_string());

    let cfg = cachesim::CacheConfig::paper(Scheme::global());
    let pass = DataCache::global_pass_cycles(&cfg);
    let pass_ns = node.clock_period().ns() * pass as f64;
    let retention_ns = vlsi::calib::nominal_retention(node).ns();
    let ret_cycles = (retention_ns * 1e-9 * node.chip_frequency().value()) as u64;

    out.compare("refresh pass (cycles)", pass as f64, "2048 (2K)");
    out.compare("refresh pass (ns)", pass_ns, "476.3 ns");
    out.compare(
        "refresh share of cache bandwidth",
        pass_ns / retention_ns,
        "~8% (476.3/6000)",
    );

    let eval = Evaluator::new(scale.eval_config(node));
    let ideal = eval.run_ideal(4);
    let profile = RetentionProfile::uniform_cycles(ret_cycles, 1024);
    let suite = eval.run_scheme(&profile, Scheme::global(), 4);
    let perf = suite.normalized_performance(&ideal, 1.0);
    out.compare("performance vs ideal 6T", perf, ">0.99 (<1% loss)");
    out.compare(
        "dynamic power vs ideal 6T",
        suite.normalized_dynamic_power(&ideal, vlsi::power::MemKind::Dram3t1d),
        "1.3-2.25x band begins here",
    );
    let blocked: u64 = suite.runs.iter().map(|r| r.cache.blocked_cycles).sum();
    let cycles: u64 = suite.runs.iter().map(|r| r.sim.cycles).sum();
    out.compare(
        "port-blocked share of cycles (per pair)",
        blocked as f64 / (cycles * 4) as f64,
        "~0.08",
    );
    let conflicts: u64 = suite.runs.iter().map(|r| r.cache.port_conflicts).sum();
    let accesses: u64 = suite.runs.iter().map(|r| r.cache.accesses()).sum();
    out.compare(
        "demand accesses retried due to refresh",
        conflicts as f64 / accesses as f64,
        "small (hidden by under-utilization)",
    );
    let _ = writeln!(
        out.text,
        "\nhardware overhead: one global counter (negligible; §4.1)."
    );
    out
}

//! Workload calibration stage: measured properties of each synthetic
//! benchmark stream — on the trace itself (mix, stack distances,
//! footprint) and on the Table 2 machine with an ideal cache (IPC, miss
//! rate, mispredicts) — the evidence behind DESIGN.md substitution #2.

use super::StageOutput;
use crate::RunScale;
use cachesim::DataCache;
use std::fmt::Write as _;
use uarch::sim::simulate_warmed;
use vlsi::stats::harmonic_mean;
use workloads::{analyze, SpecBenchmark, SyntheticTrace};

/// Runs the workload calibration report at the given scale.
pub fn report(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("workload_report");
    out.manifest.seed = Some(11);
    out.banner("Workloads", "synthetic SPEC2000 profile calibration report");
    let _ = writeln!(
        out.text,
        "{:<8} {:>6} {:>6} {:>6} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8}",
        "bench",
        "load%",
        "store%",
        "br%",
        "footprnt",
        "near%",
        "cold%",
        "IPC",
        "missrate",
        "mispred",
        "dtlbMPKI"
    );
    let mut ipcs = Vec::new();
    for bench in SpecBenchmark::ALL {
        let mut t = SyntheticTrace::new(bench.profile(), 11);
        let s = analyze(&mut t, scale.instructions);

        let mut trace = SyntheticTrace::new(bench.profile(), 11);
        let mut cache = DataCache::ideal();
        let icache = trace.icache_miss_rate();
        let (r, cs) = simulate_warmed(
            &mut trace,
            &mut cache,
            scale.warmup,
            scale.instructions,
            icache,
        );
        ipcs.push(r.ipc());
        let _ = writeln!(
            out.text,
            "{:<8} {:>5.1}% {:>5.1}% {:>5.1}% {:>8} {:>6.1}% {:>6.2}% {:>7.3} {:>7.2}% {:>7.2}% {:>8.2}",
            bench.to_string(),
            s.frac_load * 100.0,
            s.frac_store * 100.0,
            s.frac_branch * 100.0,
            s.footprint_blocks,
            s.near_fraction() * 100.0,
            s.cold_fraction() * 100.0,
            r.ipc(),
            cs.miss_rate() * 100.0,
            r.mispredict_rate() * 100.0,
            r.dtlb_misses as f64 * 1000.0 / r.instructions as f64
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "harmonic-mean IPC (ideal cache)",
        harmonic_mean(&ipcs),
        "~0.97 (sim-alpha)",
    );
    let _ = writeln!(
        out.text,
        "\npublished SPEC2000 reference points (64KB 4-way L1D, 21264-class):\n  \
         mcf miss ~15-24%, twolf ~5-9%, mesa <1%; IPC: mesa/crafty high, mcf lowest;\n  \
         INT mispredicts 5-13%, FP 1-8%. See workloads::profile for the targets."
    );
    out
}

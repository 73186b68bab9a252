//! Ablation stages: the design choices the paper makes without isolating
//! them.
//!
//! * [`design_choices`] — counter resolution, refresh port stealing, RSP
//!   move cost and replay-flush cost (DESIGN.md calls each out).
//! * [`ooo_tolerance`] — §4.2's "out-of-order processors can tolerate
//!   large retention time variations", isolated by running the same chips
//!   on out-of-order and in-order issue.
//! * [`word_refresh`] — §4.3.1's road not taken: refresh at word rather
//!   than line granularity, quantified.

use super::StageOutput;
use crate::RunScale;
use cachesim::{CounterSpec, Scheme};
use std::fmt::Write as _;
use t3cache::chip::{ChipGrade, ChipPopulation};
use t3cache::evaluate::{EvalConfig, Evaluator};
use t3cache::wordlevel::{line_level_demand, word_level_demand};
use uarch::MachineConfig;
use vlsi::montecarlo::ChipFactory;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;
use workloads::SpecBenchmark;

/// The four-benchmark evaluation config the ablations share.
fn ablation_config(scale: &RunScale) -> EvalConfig {
    EvalConfig {
        benchmarks: vec![
            SpecBenchmark::Gzip,
            SpecBenchmark::Gcc,
            SpecBenchmark::Mcf,
            SpecBenchmark::Mesa,
        ],
        instructions: scale.instructions,
        warmup: scale.warmup,
        ..EvalConfig::default()
    }
}

/// Design-choice sensitivity studies on the median/bad severe chips:
///
/// 1. **Counter resolution** — the line-counter step `N` and width trade
///    dead-line threshold against refresh conservatism (§4.3.1: "N can be
///    set according to different variation conditions").
/// 2. **Refresh port stealing** — what the shared-port refresh actually
///    costs versus a hypothetical dedicated refresh port (§4.1 rejects the
///    dedicated port for area/power, accepting this cost).
/// 3. **RSP move cost** — the 8-cycle line move against free shuffling.
/// 4. **Replay flush** — how much of the dead-line penalty is pipeline
///    recovery rather than raw miss latency (§4.3.2).
pub fn design_choices(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("ablations");
    out.manifest.seed = Some(20_248);
    out.manifest.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Ablations",
        "design-choice sensitivity studies (severe, 32 nm)",
    );
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.max(40),
        20_248,
    );
    let chip = pop.select(ChipGrade::Median);
    let bad = pop.select(ChipGrade::Bad);

    let base_cfg = ablation_config(scale);
    let eval = Evaluator::new(base_cfg.clone());
    let ideal = eval.run_ideal(4);
    let t = &mut out.text;

    // ------------------------------------------------------------------
    let _ = writeln!(
        t,
        "\n1. counter resolution (partial-refresh/DSP, median chip)"
    );
    let _ = writeln!(
        t,
        "{:>12} {:>6} {:>12} {:>10}",
        "step cycles", "bits", "dead lines", "perf"
    );
    for (step, bits) in [(256u32, 5u32), (512, 4), (1024, 3), (2048, 3), (4096, 3)] {
        let counter = CounterSpec {
            step_cycles: step,
            bits,
        };
        let suite = eval.run_scheme_custom(
            chip.retention_profile(),
            Scheme::partial_refresh_dsp(),
            4,
            counter,
        );
        let _ = writeln!(
            t,
            "{:>12} {:>6} {:>11.1}% {:>10.3}",
            step,
            bits,
            chip.retention_profile().dead_fraction(&counter) * 100.0,
            suite.normalized_performance(&ideal, 1.0)
        );
    }
    let _ = writeln!(
        t,
        "  (coarse steps kill more lines; very fine steps refresh conservatively)"
    );

    // ------------------------------------------------------------------
    let _ = writeln!(
        t,
        "\n2. refresh port stealing (full-refresh/LRU, median chip)"
    );
    for (name, refresh_cycles) in [
        ("shared ports (8-cycle steal)", 8u32),
        ("dedicated port (free)", 0),
    ] {
        let mut cfg = cachesim::CacheConfig::paper(Scheme::new(
            cachesim::RefreshPolicy::Full,
            cachesim::ReplacementPolicy::Lru,
        ));
        // A dedicated port is modelled as a 1-cycle refresh window that
        // costs demand accesses next to nothing.
        cfg.refresh_cycles = refresh_cycles.max(1);
        let profile = chip.retention_profile().clone();
        let suite = eval.run_suite(|| cachesim::DataCache::new(cfg, profile.clone()));
        let _ = writeln!(
            t,
            "  {:<32} perf {:.3}",
            name,
            suite.normalized_performance(&ideal, 1.0)
        );
    }

    // ------------------------------------------------------------------
    let _ = writeln!(t, "\n3. RSP-FIFO move cost (median chip)");
    for (name, move_cycles) in [("8-cycle moves (paper)", 8u32), ("free shuffling", 1)] {
        let mut cfg = cachesim::CacheConfig::paper(Scheme::rsp_fifo());
        cfg.move_cycles = move_cycles;
        let profile = chip.retention_profile().clone();
        let suite = eval.run_suite(|| cachesim::DataCache::new(cfg, profile.clone()));
        let _ = writeln!(
            t,
            "  {:<32} perf {:.3}",
            name,
            suite.normalized_performance(&ideal, 1.0)
        );
    }

    // ------------------------------------------------------------------
    let _ = writeln!(t, "\n4. replay flush cost (no-refresh/LRU on the BAD chip)");
    for (name, flush) in [
        ("12-cycle pipeline flush (default)", 12u32),
        ("latency-only (no flush)", 0),
    ] {
        let eval_f = Evaluator::new(EvalConfig {
            machine: MachineConfig {
                replay_flush_cycles: flush,
                ..MachineConfig::TABLE2
            },
            ..base_cfg.clone()
        });
        let ideal_f = eval_f.run_ideal(4);
        let suite = eval_f.run_scheme(bad.retention_profile(), Scheme::no_refresh_lru(), 4);
        let _ = writeln!(
            t,
            "  {:<32} perf {:.3}",
            name,
            suite.normalized_performance(&ideal_f, 1.0)
        );
    }
    let _ = writeln!(
        t,
        "  (the dead-line pathology is mostly pipeline recovery, not miss latency)"
    );
    out
}

/// Runs the same 3T1D chips under the same schemes on the Table 2
/// machine with out-of-order vs strictly in-order issue, and compares how
/// much performance each machine loses to retention effects (expiry
/// misses, refresh port stealing, dead-line replays). Each machine is
/// normalized against its *own* ideal-6T baseline, so the comparison
/// isolates retention tolerance from raw ILP.
pub fn ooo_tolerance(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("ablation_ooo_tolerance");
    out.manifest.seed = Some(20_250);
    out.manifest.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Ablation: out-of-order tolerance",
        "retention losses on OoO vs in-order issue (severe, 32 nm)",
    );
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.max(40),
        20_250,
    );
    let base_cfg = ablation_config(scale);

    let _ = writeln!(
        out.text,
        "{:<10} {:<22} {:>12} {:>12} {:>14}",
        "chip", "scheme", "OoO perf", "in-order", "extra loss (IO)"
    );
    let mut worst_gap = 0.0f64;
    for grade in [ChipGrade::Median, ChipGrade::Bad] {
        let chip = pop.select(grade);
        for (name, scheme) in [
            ("no-refresh/LRU", Scheme::no_refresh_lru()),
            ("partial-refresh/DSP", Scheme::partial_refresh_dsp()),
            ("RSP-FIFO", Scheme::rsp_fifo()),
        ] {
            let mut row = Vec::new();
            for machine in [MachineConfig::TABLE2, MachineConfig::table2_in_order()] {
                let eval = Evaluator::new(EvalConfig {
                    machine,
                    ..base_cfg.clone()
                });
                let ideal = eval.run_ideal(4);
                let suite = eval.run_scheme(chip.retention_profile(), scheme, 4);
                row.push(suite.normalized_performance(&ideal, 1.0));
            }
            let gap = row[0] - row[1];
            worst_gap = worst_gap.max(gap);
            let _ = writeln!(
                out.text,
                "{:<10} {:<22} {:>12.3} {:>12.3} {:>14.3}",
                grade.to_string(),
                name,
                row[0],
                row[1],
                gap
            );
        }
    }
    let _ = writeln!(out.text);
    out.compare(
        "largest extra retention loss on the in-order machine",
        worst_gap,
        ">0: OoO absorbs retention effects (the paper's §4.2 insight)",
    );
    let _ = writeln!(
        out.text,
        "\neach column is normalized against that machine's own ideal-6T run,\n\
         so the gap measures *retention tolerance*, not raw ILP."
    );
    out
}

/// The paper rejects word-granularity refresh for "excessive hardware
/// overheads" without numbers. This computes both sides for sampled
/// chips: refresh power/bandwidth saved by refreshing each 64-bit word at
/// its own retention, versus the 9× line-counter storage it costs.
pub fn word_refresh(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("ablation_word_refresh");
    out.manifest.seed = Some(20_249);
    out.manifest.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Ablation: word-level refresh",
        "refresh demand at line vs word granularity (full refresh)",
    );
    // A counter wide enough that neither granularity clamps (6-bit,
    // 1024-cycle step spans 64K cycles ≈ 15 µs at 4.3 GHz); the 3-bit
    // default would saturate both and hide the comparison entirely.
    let counter = CounterSpec {
        step_cycles: 1024,
        bits: 6,
    };
    let _ = writeln!(
        out.text,
        "{:<9} {:<8} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "corner", "level", "refresh/us", "port cyc/us", "power (uW)", "counters", "dead units"
    );
    for corner in [VariationCorner::Typical, VariationCorner::Severe] {
        let factory = ChipFactory::new(TechNode::N32, corner.params(), 20_249);
        let chips = scale.sim_chips.min(12);
        let mut acc = [[0.0f64; 5]; 2];
        for i in 0..chips {
            let map = factory.chip(i).word_retention_map(8);
            for (k, d) in [
                line_level_demand(&map, &counter, TechNode::N32),
                word_level_demand(&map, &counter, TechNode::N32),
            ]
            .into_iter()
            .enumerate()
            {
                acc[k][0] += d.refreshes_per_us;
                acc[k][1] += d.port_cycles_per_us;
                acc[k][2] += d.power.value() * 1e6;
                acc[k][3] += d.counter_bits as f64;
                acc[k][4] += d.dead_units as f64;
            }
        }
        for (k, name) in ["line", "word"].iter().enumerate() {
            let _ = writeln!(
                out.text,
                "{:<9} {:<8} {:>14.2} {:>14.2} {:>12.1} {:>12.0} {:>10.1}",
                corner.to_string(),
                name,
                acc[k][0] / chips as f64,
                acc[k][1] / chips as f64,
                acc[k][2] / chips as f64,
                acc[k][3] / chips as f64,
                acc[k][4] / chips as f64
            );
        }
        if corner == VariationCorner::Typical {
            out.compare(
                "typical: refresh power saved by word granularity",
                1.0 - acc[1][2] / acc[0][2],
                "substantial (unquantified in the paper)",
            );
            out.compare(
                "typical: counter storage multiplier",
                acc[1][3] / acc[0][3],
                "9x — the 'excessive hardware overhead'",
            );
        }
    }
    let _ = writeln!(
        out.text,
        "\nverdict: the savings are MODEST, not transformative — worst-cell\n\
         statistics are logarithmic, so a 64-cell word retains only ~1.3-1.6x\n\
         longer than its 536-cell line, while counters cost 9x the bits (and\n\
         with the paper's own 3-bit counters the advantage clamps to ~zero).\n\
         The paper's decision to stop at line granularity is quantitatively sound."
    );
    out
}

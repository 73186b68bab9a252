//! Figure 8 stage: per-line retention-time distribution of the good,
//! median and bad chips under severe variation.
//!
//! Paper shape: wide spread across lines within one chip; up to 23 % dead
//! lines on the bad chip, ≈3 % on the median chip; ≈80 % of chips must be
//! discarded under the global scheme.

use super::StageOutput;
use crate::{bar, RunScale};
use cachesim::{CacheConfig, Scheme};
use std::fmt::Write as _;
use t3cache::chip::{ChipGrade, ChipPopulation};
use vlsi::stats::Histogram;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Runs the Figure 8 line-retention distributions at the given scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig08");
    out.manifest.seed = Some(20_243);
    out.manifest.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 8",
        "line retention distributions of good/median/bad chips (severe, 32 nm)",
    );
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.max(40),
        20_243,
    );
    for grade in [ChipGrade::Good, ChipGrade::Median, ChipGrade::Bad] {
        let chip = pop.select(grade);
        let counter = chip.counter_spec();
        let mut hist = Histogram::new(0.0, 5_000.0, 10);
        for t in chip.retention_times() {
            hist.push(t.ns());
        }
        let dead = chip.dead_line_fraction(&counter);
        let grade_slug = grade.to_string().to_lowercase();
        out.metrics()
            .set_gauge(&format!("chip.{grade_slug}.dead_line_fraction"), dead);
        let sum: f64 = chip.retention_times().iter().map(|t| t.ns()).sum();
        out.metrics().put_histogram(
            &format!("chip.{grade_slug}.line_retention_ns"),
            obs::FixedHistogram::from_buckets(
                0.0,
                5_000.0,
                hist.counts().to_vec(),
                hist.underflow(),
                hist.overflow(),
                sum,
            ),
        );
        let _ = writeln!(
            out.text,
            "\n{} chip (#{}) — dead lines: {:.1}%",
            grade,
            chip.index(),
            dead * 100.0
        );
        let _ = writeln!(out.text, "  retention (ns)   line probability");
        for (center, frac) in hist.iter() {
            let _ = writeln!(
                out.text,
                "  {center:>10.0}  {frac:>6.3} {}",
                bar(frac / 0.45, 30)
            );
        }
        if hist.overflow() > 0 {
            let _ = writeln!(
                out.text,
                "  {:>10}  {:>6.3}",
                ">5000",
                hist.overflow() as f64 / hist.total() as f64
            );
        }
    }

    let _ = writeln!(out.text);
    let median_dead = pop.select(ChipGrade::Median).dead_fraction();
    let bad_dead = pop.select(ChipGrade::Bad).dead_fraction();
    out.compare("median chip dead-line fraction", median_dead, "~0.03");
    out.compare("bad chip dead-line fraction", bad_dead, "~0.23");
    let cfg = CacheConfig::paper(Scheme::global());
    out.compare(
        "global-scheme discard fraction (severe)",
        pop.global_scheme_discard_fraction(&cfg),
        "~0.80",
    );
    out
}

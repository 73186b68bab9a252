//! Figure 6a stage: distribution of normalized chip frequency (=
//! performance) for 6T caches under typical process variation, 1X and 2X
//! cells.
//!
//! Paper shape: 1X 6T chips lose 10–20 % of frequency; even 2X-sized
//! cells leave ≈20 % of chips ≈3 % slow.

use super::StageOutput;
use crate::{bar, RunScale};
use std::fmt::Write as _;
use vlsi::cell6t::CellSize;
use vlsi::montecarlo::ChipFactory;
use vlsi::stats::Histogram;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Runs the Figure 6a frequency distributions at the given scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig06a");
    out.manifest.seed = Some(20_240);
    out.manifest.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 6a",
        "6T cache frequency distribution under typical variation (32 nm)",
    );
    let factory = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 20_240);

    let mut h1 = Histogram::new(0.7625, 1.0625, 12); // 0.025-wide bins centered on paper ticks
    let mut h2 = Histogram::new(0.7625, 1.0625, 12);
    let mut sum1 = 0.0;
    let mut sum2 = 0.0;
    let mut slow2 = 0u32;
    for i in 0..scale.mc_chips {
        let chip = factory.chip(i);
        let f1 = chip.frequency_multiplier_6t(CellSize::X1);
        let f2 = chip.frequency_multiplier_6t(CellSize::X2);
        h1.push(f1);
        h2.push(f2);
        sum1 += f1;
        sum2 += f2;
        if f2 < 0.99 {
            slow2 += 1;
        }
    }
    let n = scale.mc_chips as f64;
    for (label, h, sum) in [("x1", &h1, sum1), ("x2", &h2, sum2)] {
        out.metrics().put_histogram(
            &format!("freq.{label}"),
            obs::FixedHistogram::from_buckets(
                0.7625,
                1.0625,
                h.counts().to_vec(),
                h.underflow(),
                h.overflow(),
                sum,
            ),
        );
    }

    let _ = writeln!(
        out.text,
        "{:>8} {:>10} {:>26} {:>10} {:>26}",
        "freq", "1X prob", "", "2X prob", ""
    );
    for i in 0..h1.counts().len() {
        let f1 = h1.fractions()[i];
        let f2 = h2.fractions()[i];
        let _ = writeln!(
            out.text,
            "{:>8.3} {:>10.3} {:<26} {:>10.3} {:<26}",
            h1.bin_center(i),
            f1,
            bar(f1 / 0.5, 26),
            f2,
            bar(f2 / 0.5, 26)
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "mean 1X 6T normalized frequency",
        sum1 / n,
        "0.80-0.90 (10-20% loss)",
    );
    out.compare("mean 2X 6T normalized frequency", sum2 / n, "~1.0");
    out.compare(
        "fraction of 2X chips below 0.99",
        slow2 as f64 / n,
        "~0.2 (20% of chips ~3% slow)",
    );
    out
}

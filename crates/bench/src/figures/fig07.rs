//! Figure 7 stage: cache leakage-power distributions under typical
//! variation, normalized to the golden (no-variation) 6T design.
//!
//! Paper shape: >50 % of 1X-6T chips exceed 1.5× golden leakage with a
//! tail past 10×; only ≈11 % of 3T1D chips exceed the golden 6T at all,
//! and none pass ≈4×.

use super::StageOutput;
use crate::{bar, RunScale};
use std::fmt::Write as _;
use vlsi::cell6t::CellSize;
use vlsi::leakage::golden_cache_leakage_6t;
use vlsi::montecarlo::ChipFactory;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Runs the Figure 7 leakage distributions at the given scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig07");
    out.manifest.seed = Some(20_242);
    out.manifest.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 7",
        "cache leakage distributions, typical variation (32 nm), normalized to golden 6T",
    );
    let factory = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 20_242);
    let golden = golden_cache_leakage_6t(TechNode::N32, factory.layout().total_cells());

    // The paper's non-uniform bins.
    let edges = [
        0.0,
        0.375,
        0.75,
        1.25,
        1.75,
        2.5,
        3.5,
        5.0,
        7.0,
        9.0,
        11.0,
        f64::INFINITY,
    ];
    let labels = [
        "0.25X", "0.5X", "1X", "1.5X", "2X", "3X", "4X", "6X", "8X", "10X", "12X+",
    ];
    let mut c6 = [0u32; 11];
    let mut c3 = [0u32; 11];
    let mut over15_6t = 0u32;
    let mut over10_6t = 0u32;
    let mut over1_3t = 0u32;
    let mut max3 = 0.0f64;
    for i in 0..scale.mc_chips {
        let chip = factory.chip(i);
        let r6 = chip.leakage_6t(CellSize::X1).value() / golden.value();
        let r3 = chip.leakage_3t1d().value() / golden.value();
        for (k, w) in edges.windows(2).enumerate() {
            if r6 >= w[0] && r6 < w[1] {
                c6[k] += 1;
            }
            if r3 >= w[0] && r3 < w[1] {
                c3[k] += 1;
            }
        }
        if r6 > 1.5 {
            over15_6t += 1;
        }
        if r6 > 10.0 {
            over10_6t += 1;
        }
        if r3 > 1.0 {
            over1_3t += 1;
        }
        max3 = max3.max(r3);
    }
    let n = scale.mc_chips as f64;

    let _ = writeln!(
        out.text,
        "{:>8} {:>9} {:<26} {:>9} {:<26}",
        "leakage", "1X 6T", "", "3T1D", ""
    );
    for k in 0..11 {
        let label = labels[k].to_lowercase();
        out.metrics()
            .inc(&format!("leakage.six_t.bin_{label}"), c6[k] as u64);
        out.metrics()
            .inc(&format!("leakage.t3.bin_{label}"), c3[k] as u64);
        let _ = writeln!(
            out.text,
            "{:>8} {:>9.3} {:<26} {:>9.3} {:<26}",
            labels[k],
            c6[k] as f64 / n,
            bar(c6[k] as f64 / n / 0.45, 26),
            c3[k] as f64 / n,
            bar(c3[k] as f64 / n / 0.45, 26)
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "1X 6T chips above 1.5x golden",
        over15_6t as f64 / n,
        ">0.5",
    );
    out.compare(
        "1X 6T chips above 10x golden",
        over10_6t as f64 / n,
        "'some chips' (>0)",
    );
    out.compare("3T1D chips above golden 6T", over1_3t as f64 / n, "~0.11");
    out.compare("3T1D maximum ratio", max3, "<4x");
    out
}

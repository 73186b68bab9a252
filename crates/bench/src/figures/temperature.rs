//! §4.3.1 extended stage: the retention margin left on the table by
//! worst-case-temperature counter programming ("Although dynamic testing
//! is possible, we assume worst-case temperatures in this paper").
//!
//! The line counters are programmed from a BIST measurement at 80 °C; at
//! realistic die temperatures retention is several times longer, so a
//! dynamic (temperature-aware) counter policy could cut refresh energy by
//! the same factor.

use super::StageOutput;
use crate::RunScale;
use std::fmt::Write as _;
use t3cache::chip::ChipPopulation;
use vlsi::cell3t1d::retention_temperature_factor;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Runs the temperature-margin table (fixed 40-chip population;
/// scale-independent).
pub fn margin(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("temperature_margin");
    out.manifest.seed = Some(7);
    out.manifest.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Section 4.3.1 (extended)",
        "retention vs die temperature: worst-case testing margin",
    );
    let _ = writeln!(
        out.text,
        "{:>8} {:>18} {:>24}",
        "temp", "retention factor", "median cache retention"
    );
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Typical.params(), 40, 7);
    let base = pop.median_cache_retention();
    for t in [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
        let f = retention_temperature_factor(t);
        let _ = writeln!(
            out.text,
            "{:>6.0}C {:>17.2}x {:>21.0} ns",
            t,
            f,
            base.ns() * f
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "retention factor at a 50C operating point",
        retention_temperature_factor(50.0),
        "several-x margin vs 80C testing",
    );
    out.compare(
        "implied refresh-energy saving with dynamic testing",
        1.0 - 1.0 / retention_temperature_factor(50.0),
        "refresh rate scales with 1/retention",
    );
    let _ = writeln!(
        out.text,
        "\nworst-case programming is safe at any temperature <= 80C; a dynamic\n\
         policy would re-measure per thermal epoch, trading BIST time for the\n\
         refresh power above (future work the paper points at)."
    );
    out
}

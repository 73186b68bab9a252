//! Table 1 stage: circuit-simulation parameters per technology node, plus
//! the derived electrical quantities the models use.

use super::StageOutput;
use crate::RunScale;
use std::fmt::Write as _;
use vlsi::tech::{OperatingPoint, TechNode};
use vlsi::wire;

/// Renders Table 1 (analytic; scale-independent).
pub fn run(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("table1");
    out.banner("Table 1", "circuit parameters per technology node");
    let row = |name: &str, f: &dyn Fn(TechNode) -> String| {
        format!(
            "{:<26} {:>10} {:>10} {:>10}\n",
            name,
            f(TechNode::N65),
            f(TechNode::N45),
            f(TechNode::N32)
        )
    };
    let t = &mut out.text;
    *t += &row("parameter", &|n| n.to_string());
    *t += &row("cell area (um^2)", &|n| format!("{:.2}", n.cell_area_um2()));
    *t += &row("wire width (um)", &|n| {
        format!("{:.2}", n.wire_width().um())
    });
    *t += &row("wire thickness (um)", &|n| {
        format!("{:.2}", n.wire_thickness().um())
    });
    *t += &row("oxide thickness (nm)", &|n| {
        format!("{:.1}", n.oxide_thickness().nm())
    });
    *t += &row("chip frequency (GHz)", &|n| {
        format!("{:.1}", n.chip_frequency().ghz())
    });
    *t += "\nderived quantities (our models):\n";
    *t += &row("supply voltage (V)", &|n| format!("{:.1}", n.vdd().volts()));
    *t += &row("nominal Vth (V)", &|n| {
        format!("{:.2}", n.vth_nominal().volts())
    });
    *t += &row("clock period (ps)", &|n| {
        format!("{:.1}", n.clock_period().ps())
    });
    *t += &row("6T array access (ps)", &|n| {
        format!("{:.0}", n.sram_access_nominal().ps())
    });
    *t += &row("bitline length (um)", &|n| {
        format!("{:.1}", wire::bitline(n, 256).length().um())
    });
    *t += &row("bitline cap (fF)", &|n| {
        format!("{:.1}", wire::bitline_capacitance(n, 256).ff())
    });
    let _ = writeln!(
        t,
        "\nsimulation temperature: 80 C (thermal voltage {:.1} mV)",
        OperatingPoint::nominal(TechNode::N32)
            .thermal_voltage()
            .mv()
    );
    out
}

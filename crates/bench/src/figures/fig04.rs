//! Figure 4 stage: 3T1D cell access time vs time elapsed since the last
//! write, for nominal, weak (leaky) and strong cells, against the 6T
//! reference.
//!
//! Paper shape: access time rises as the stored charge decays, crossing
//! the 6T array access time at the cell's *retention time* — ≈5.8–6 µs for
//! a nominal 32 nm cell, ≈4 µs for a weak cell, longer for a strong cell.

use super::StageOutput;
use crate::RunScale;
use std::fmt::Write as _;
use vlsi::cell3t1d::{access_time, retention_time};
use vlsi::tech::TechNode;
use vlsi::units::{Time, Voltage};
use vlsi::variation::DeviceDeviation;

/// Runs the Figure 4 access-time curves (analytic; scale-independent).
pub fn run(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig04");
    out.banner("Figure 4", "3T1D access time vs time after write (32 nm)");
    let node = TechNode::N32;
    out.manifest.tech_node = Some(node.to_string());
    let nominal = DeviceDeviation::NOMINAL;
    let weak_t1 = DeviceDeviation {
        dl_frac: 0.0,
        dvth_random: Voltage::from_mv(-150.0), // leaky storage corner
    };
    let strong_t1 = DeviceDeviation {
        dl_frac: 0.02,
        dvth_random: Voltage::from_mv(40.0), // tight storage corner
    };

    let t6 = node.sram_access_nominal();
    let _ = writeln!(
        out.text,
        "6T array access time: {:.0} ps (horizontal reference)\n",
        t6.ps()
    );
    let _ = writeln!(
        out.text,
        "{:>10} {:>12} {:>12} {:>12}",
        "elapsed", "nominal", "weak cell", "strong cell"
    );
    for us in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.8, 6.5, 7.0, 8.0] {
        let t = Time::from_us(us);
        let row = |dev_t1: DeviceDeviation| {
            let a = access_time(node, dev_t1, DeviceDeviation::NOMINAL, t);
            if a >= Time::from_us(0.9) {
                "   dead".to_string()
            } else {
                format!("{:>8.0} ps", a.ps())
            }
        };
        let _ = writeln!(
            out.text,
            "{:>8.1}us {:>12} {:>12} {:>12}",
            us,
            row(nominal),
            row(weak_t1),
            row(strong_t1)
        );
    }

    let _ = writeln!(out.text);
    let ret = |d: DeviceDeviation| retention_time(node, d, DeviceDeviation::NOMINAL).us();
    out.compare("nominal cell retention (us)", ret(nominal), "~5.8-6.0 us");
    out.compare("weak cell retention (us)", ret(weak_t1), "~4 us");
    out.compare("strong cell retention (us)", ret(strong_t1), "> nominal");
    let fresh = access_time(node, nominal, DeviceDeviation::NOMINAL, Time::ZERO);
    out.compare(
        "fresh 3T1D access / 6T access",
        fresh.ps() / t6.ps(),
        "<= 1.0 (matches 6T speed when fresh)",
    );
    out.metrics().set_gauge("access.six_t_ps", t6.ps());
    out.metrics().set_gauge("access.fresh_3t1d_ps", fresh.ps());
    out
}

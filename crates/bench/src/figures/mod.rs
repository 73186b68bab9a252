//! The figure/table *stage functions*: every table, figure, ablation and
//! extension of the reproduction, callable as a library.
//!
//! Each function here reproduces one claim of the paper and returns a
//! [`StageOutput`] — a deterministic text rendering plus a
//! [`obs::RunManifest`] of result metrics, with the fan-out timing kept
//! separately (timing legitimately varies run-to-run and must stay out
//! of anything an artifact cache hashes). The `pv3t1d` orchestrator
//! (`crates/orchestrator`) runs them as DAG stages and content-addresses
//! their outputs; `pv3t1d figure <name>` is a one-stage scenario over the
//! same path that prints the stage's text.
//!
//! The split rule: everything **seed-deterministic** goes into
//! [`StageOutput::text`] / [`StageOutput::manifest`]; everything
//! **wall-clock** ([`CampaignReport`] banners, speedups) goes into
//! [`StageOutput::timing`]. Every paper claim goes through
//! [`StageOutput::compare`], so it lands in the payload's metrics where
//! the `report` stage collects it.

pub mod ablations;
pub mod extensions;
pub mod fig01;
pub mod fig04;
pub mod fig06a;
pub mod fig06b;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod sec21;
pub mod sec41;
pub mod table1;
pub mod table3;
pub mod temperature;
pub mod workloads;

use crate::{metric_slug, RunScale};
use obs::RunManifest;
use std::fmt::Write as _;
use t3cache::campaign::CampaignReport;

/// One stage function's complete output.
#[derive(Debug)]
pub struct StageOutput {
    /// Name, seed, tech node, scheme and *result* metrics of the stage.
    /// Wall clock, worker count and git provenance are stamped by the
    /// caller (they are run properties, not stage results).
    pub manifest: RunManifest,
    /// The deterministic human-readable rendering (figure text).
    pub text: String,
    /// Campaign fan-out timing, kept out of `text` and `manifest`.
    pub timing: CampaignReport,
}

impl StageOutput {
    /// An empty output for the named experiment.
    pub fn new(name: &str) -> Self {
        Self {
            manifest: RunManifest::new(name),
            text: String::new(),
            timing: CampaignReport::empty(),
        }
    }

    /// The stage's result metrics.
    pub fn metrics(&mut self) -> &mut obs::MetricsRegistry {
        &mut self.manifest.metrics
    }

    /// Appends the standard figure banner to the text.
    pub fn banner(&mut self, id: &str, title: &str) {
        let rule = "=".repeat(69);
        let _ = writeln!(self.text, "{rule}\n{id}: {title}\n{rule}");
    }

    /// Appends a `measured vs paper` line and records the measured value
    /// as a `compare.<slug>` gauge.
    pub fn compare(&mut self, what: &str, measured: f64, paper: &str) {
        let _ = writeln!(
            self.text,
            "  {what:<52} measured {measured:>9.3}   (paper: {paper})"
        );
        self.manifest
            .metrics
            .set_gauge(&format!("compare.{}", metric_slug(what)), measured);
    }
}

/// A stage function: one experiment at a run scale.
pub type StageFn = fn(&RunScale) -> StageOutput;

/// Every registered stage, by experiment name, in paper order — the
/// registry the orchestrator's scenario specs index into.
const STAGES: [(&str, StageFn); 23] = [
    ("table1", table1::run),
    ("fig01", fig01::run),
    ("fig04", fig04::run),
    ("fig06a", fig06a::run),
    ("fig06b", fig06b::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12_points", fig12::points),
    ("fig12_surface", fig12::surface),
    ("table3", table3::run),
    ("sec21_stability", sec21::stability),
    ("sec21_redundancy", sec21::redundancy),
    ("sec41_global_refresh", sec41::global_refresh),
    ("temperature_margin", temperature::margin),
    ("ablations", ablations::design_choices),
    ("ablation_ooo_tolerance", ablations::ooo_tolerance),
    ("ablation_word_refresh", ablations::word_refresh),
    ("extension_icache", extensions::icache),
    ("extension_regfile", extensions::regfile),
    ("workload_report", workloads::report),
];

/// Looks up a stage function by its experiment name.
pub fn stage_fn(name: &str) -> Option<StageFn> {
    STAGES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// Every registered stage-function name, in paper order.
pub const STAGE_NAMES: [&str; STAGES.len()] = {
    let mut names = [""; STAGES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = STAGES[i].0;
        i += 1;
    }
    names
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_name() {
        for name in STAGE_NAMES {
            assert!(stage_fn(name).is_some(), "{name} missing from registry");
        }
        assert!(stage_fn("not_a_stage").is_none());
    }

    #[test]
    fn stage_output_collects_text_and_compare_gauges() {
        let mut out = StageOutput::new("unit");
        out.banner("Figure X", "a title");
        out.compare("mean IPC loss", 0.25, "~0.3");
        assert!(out.text.contains("Figure X: a title"));
        assert!(out.text.contains("measured     0.250"));
        assert_eq!(
            out.manifest.metrics.gauge("compare.mean_ipc_loss"),
            Some(0.25)
        );
    }

    /// The cheapest real stages produce deterministic text + fingerprints.
    #[test]
    fn analytic_stages_are_deterministic() {
        for name in ["table1", "fig04", "sec21_stability", "sec21_redundancy", "fig12_points"] {
            let f = stage_fn(name).unwrap();
            let a = f(&RunScale::QUICK);
            let b = f(&RunScale::QUICK);
            assert_eq!(a.text, b.text, "{name} text must be deterministic");
            assert_eq!(
                a.manifest.deterministic_fingerprint(),
                b.manifest.deterministic_fingerprint(),
                "{name} fingerprint must be deterministic"
            );
            assert!(!a.text.is_empty());
        }
    }
}

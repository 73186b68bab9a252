//! The experiment library behind every table and figure of the paper.
//!
//! [`figures`] holds one stage function per table, figure, ablation and
//! extension; the `pv3t1d` orchestrator runs them as scenario stages
//! (`pv3t1d run`, or `pv3t1d figure <name>` for one). This root module
//! holds what they share: the run-size knobs ([`RunScale`]), the
//! paper-vs-measured annotation format, and small text and sample
//! helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use t3cache::evaluate::EvalConfig;
use vlsi::tech::TechNode;

/// Run-size knobs: the full paper scale or the reduced `--quick` smoke scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Monte-Carlo chips for distribution figures.
    pub mc_chips: u32,
    /// Chips receiving full performance simulation.
    pub sim_chips: u32,
    /// Measured instructions per benchmark.
    pub instructions: u64,
    /// Warmup instructions per benchmark.
    pub warmup: u64,
}

impl RunScale {
    /// The reduced `--quick` smoke-run scale.
    pub const QUICK: RunScale = RunScale {
        mc_chips: 40,
        sim_chips: 10,
        instructions: 40_000,
        warmup: 20_000,
    };

    /// The full paper-reproduction scale.
    pub const FULL: RunScale = RunScale {
        mc_chips: 400,
        sim_chips: 100,
        instructions: 150_000,
        warmup: 75_000,
    };

    /// An evaluation config at this scale for a node.
    pub fn eval_config(&self, node: TechNode) -> EvalConfig {
        EvalConfig {
            node,
            instructions: self.instructions,
            warmup: self.warmup,
            ..EvalConfig::default()
        }
    }
}

/// Lowercases and collapses a human label into a metric-name slug:
/// `"IPC loss (severe)"` → `"ipc_loss_severe"`.
pub fn metric_slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else if ch == '.' || ch == '%' {
            // Keep dots (metric hierarchy) and a marker for percentages.
            out.push(if ch == '.' { '.' } else { 'p' });
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// Renders a unit-scaled ASCII bar.
pub fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < n { '#' } else { ' ' });
    }
    s
}

/// Minimum of a sample (`+∞` when empty) — the "worst chip" aggregations
/// the figure stages report.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a sample (`-∞` when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Fraction of the sample strictly above `threshold` (0 when empty).
pub fn frac_above(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v > threshold).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 4), "##  ");
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(-1.0, 4), "    ");
    }

    #[test]
    fn min_max_handle_samples_and_empties() {
        let v = [0.97, 1.02, 0.88, 1.0];
        assert_eq!(min(&v), 0.88);
        assert_eq!(max(&v), 1.02);
        assert_eq!(min(&[]), f64::INFINITY);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn frac_above_is_strict_and_total() {
        let v = [0.98, 0.99, 0.995, 1.0];
        assert_eq!(frac_above(&v, 0.99), 0.5); // strict: 0.99 not counted
        assert_eq!(frac_above(&v, 0.0), 1.0);
        assert_eq!(frac_above(&v, 2.0), 0.0);
        assert_eq!(frac_above(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_slug_normalizes_labels() {
        assert_eq!(metric_slug("IPC loss (severe)"), "ipc_loss_severe");
        assert_eq!(metric_slug("refresh energy %"), "refresh_energy_p");
        assert_eq!(metric_slug("scheme.RSP-FIFO perf"), "scheme.rsp_fifo_perf");
    }

    #[test]
    fn scale_has_sane_defaults() {
        for s in [RunScale::QUICK, RunScale::FULL] {
            assert!(s.mc_chips >= 40);
            assert!(s.instructions >= 40_000);
            let cfg = s.eval_config(TechNode::N32);
            assert_eq!(cfg.benchmarks.len(), 8);
        }
    }
}

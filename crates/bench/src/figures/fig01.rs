//! Figure 1 stage: percentage of cache references vs cycles since the
//! line was loaded, per benchmark plus the average.
//!
//! Paper shape: most references land within the first 6 K cycles of a
//! line's lifetime (≈90 % on average), with the CDF flattening past ≈10 K.

use super::StageOutput;
use crate::RunScale;
use cachesim::DataCache;
use std::fmt::Write as _;
use uarch::sim::simulate_warmed;
use workloads::{SpecBenchmark, SyntheticTrace};

/// Runs the Figure 1 reference-age CDF at the given scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig01");
    out.manifest.seed = Some(1);
    out.banner(
        "Figure 1",
        "cache reference age CDF (cycles since line load)",
    );

    let marks = [2_048u64, 4_096, 6_144, 10_240, 15_360, 20_480];
    let _ = writeln!(
        out.text,
        "{:<8} {}",
        "bench",
        marks
            .iter()
            .map(|m| format!("{:>8}", format!("<{}k", m / 1024)))
            .collect::<String>()
    );

    let mut avg = vec![0.0f64; marks.len()];
    for bench in SpecBenchmark::ALL {
        let mut trace = SyntheticTrace::new(bench.profile(), 1);
        let mut cache = DataCache::ideal();
        let icache = trace.icache_miss_rate();
        let (_, stats) = simulate_warmed(
            &mut trace,
            &mut cache,
            scale.warmup,
            scale.instructions * 2,
            icache,
        );
        let cdf = stats.hit_age_cdf();
        let at = |cycles: u64| -> f64 {
            cdf.iter()
                .find(|(bound, _)| *bound >= cycles)
                .map(|(_, f)| *f)
                .unwrap_or(1.0)
        };
        let row: Vec<f64> = marks.iter().map(|&m| at(m)).collect();
        stats.export(out.metrics(), &format!("cache.{bench}"));
        for (&m, &f) in marks.iter().zip(&row) {
            out.metrics()
                .set_gauge(&format!("cdf.{bench}.under_{}k", m / 1024), f);
        }
        let _ = writeln!(
            out.text,
            "{:<8} {}",
            bench.to_string(),
            row.iter()
                .map(|f| format!("{:>7.1}%", f * 100.0))
                .collect::<String>()
        );
        for (a, r) in avg.iter_mut().zip(&row) {
            *a += r / 8.0;
        }
    }
    let _ = writeln!(
        out.text,
        "{:<8} {}\n",
        "average",
        avg.iter()
            .map(|f| format!("{:>7.1}%", f * 100.0))
            .collect::<String>()
    );
    out.compare(
        "average fraction of references within 6K cycles",
        avg[2],
        "~0.90 (Fig. 1)",
    );
    out.compare(
        "average fraction within 20K cycles",
        avg[5],
        "~0.97+ (Fig. 1 tail)",
    );
    out
}

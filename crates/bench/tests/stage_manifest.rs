//! Stage-level manifest tests: run real figure stages, write their
//! manifests, and feed the files back through the `obs` parser. The
//! orchestrator caches exactly these manifests' metrics, so they must
//! survive the write/read round trip bit for bit.

use bench_harness::figures::{fig09, sec21};
use bench_harness::RunScale;
use obs::RunManifest;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pv3t1d_stage_manifest_{}_{name}",
        std::process::id()
    ))
}

/// Writes `m`, reads it back, and checks nothing fingerprinted changed.
fn round_trip(m: &RunManifest, name: &str) -> RunManifest {
    let path = temp_path(name);
    m.write_to(&path).unwrap();
    let back = RunManifest::read_from(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        m.deterministic_fingerprint(),
        back.deterministic_fingerprint()
    );
    assert_eq!(
        m.metrics.to_json().render(),
        back.metrics.to_json().render()
    );
    back
}

#[test]
fn sec21_stability_manifest_round_trips() {
    let out = sec21::stability(&RunScale::QUICK);
    let m = &out.manifest;
    assert_eq!(m.name, "sec21_stability");
    // The analytic bit-flip table is a result metric, present and finite.
    let p32 = m
        .metrics
        .gauge("bit_flip.32nm.typical")
        .expect("bit-flip gauge present");
    assert!(p32 > 0.0 && p32 < 1.0);
    assert!(!m.deterministic_fingerprint().is_empty());
    let back = round_trip(m, "sec21.json");
    assert_eq!(back.name, "sec21_stability");
}

#[test]
fn fig09_manifest_round_trips() {
    let out = fig09::run(&RunScale::QUICK);
    let m = &out.manifest;
    assert_eq!(m.name, "fig09");
    assert_eq!(m.seed, Some(20_244));
    assert_eq!(m.tech_node.as_deref(), Some("32nm"));

    // Every Figure 9 scheme exports a per-grade performance gauge and a
    // merged cache-counter block.
    for scheme in cachesim::Scheme::figure9_schemes() {
        for grade in ["good", "median", "bad"] {
            let g = m
                .metrics
                .gauge(&format!("scheme.{scheme}.perf.{grade}"))
                .unwrap_or_else(|| panic!("missing perf gauge for {scheme}/{grade}"));
            assert!(
                g > 0.5 && g <= 1.5,
                "{scheme}/{grade} perf {g} out of range"
            );
        }
        assert!(
            m.metrics
                .counter(&format!("scheme.{scheme}.chips"))
                .is_some(),
            "missing merged counters for {scheme}"
        );
    }
    // Campaign fan-out timing is kept apart from the result metrics.
    assert!(out.timing.units > 0);
    let fp = m.deterministic_fingerprint();
    assert!(
        !fp.contains("campaign."),
        "timing metrics must not be fingerprinted"
    );
    let back = round_trip(m, "fig09.json");
    assert_eq!(back.seed, Some(20_244));
}

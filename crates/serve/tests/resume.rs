//! Kill-and-resume acceptance test (the ISSUE-pinned tentpole proof):
//! SIGKILL a `pv3t1d run` mid-campaign, rerun the identical command,
//! and require that the resumed run (a) completes, (b) replays at least
//! one unit from the per-unit checkpoints (or, if the kill raced the
//! campaign's completion, hits the stage cache), and (c) reproduces the
//! results section and fingerprint of a never-interrupted reference run
//! bit-for-bit. The reference and killed runs use one campaign worker,
//! the resumed run two: unit checkpoints are keyed by unit index, so a
//! resume must not depend on the worker count.

use obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv3t1d_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A campaign paced slowly enough (30 units × 150 ms at one worker)
/// that the kill below reliably lands while units are still in flight.
const SCENARIO: &str = r#"{
  "schema": 2, "name": "resume_smoke", "scale": "quick",
  "stages": [
    {"id": "chips", "kind": "chip_campaign",
     "params": {"chips": 30, "seed": 11, "corner": "severe", "unit_sleep_ms": 150}},
    {"id": "map", "kind": "retention_map", "deps": ["chips"]}
  ]
}"#;

fn pv3t1d(scenario: &Path, results: &Path, workers: u32) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pv3t1d"));
    cmd.args([
        "run",
        scenario.to_str().unwrap(),
        "--results",
        results.to_str().unwrap(),
    ])
    .env("PV3T1D_WORKERS", workers.to_string());
    cmd
}

fn unit_checkpoints(results: &Path) -> usize {
    std::fs::read_dir(results.join("cas"))
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains(".u"))
                .count()
        })
        .unwrap_or(0)
}

fn manifest(results: &Path) -> Json {
    let text = std::fs::read_to_string(results.join("resume_smoke.run.json")).unwrap();
    Json::parse(&text).unwrap()
}

#[test]
fn sigkill_mid_campaign_then_rerun_resumes_bit_identically() {
    let dir = temp_dir("work");
    let scenario = dir.join("resume_smoke.json");
    std::fs::write(&scenario, SCENARIO).unwrap();

    // Reference: an uninterrupted run in its own results directory.
    let ref_results = dir.join("ref");
    // One campaign worker makes the unit cadence predictable.
    let out = pv3t1d(&scenario, &ref_results, 1).output().unwrap();
    assert!(out.status.success(), "reference run failed: {out:?}");
    let reference = manifest(&ref_results);

    // Victim: start the same run elsewhere and SIGKILL it once at least
    // two unit checkpoints have landed in the store.
    let results = dir.join("resume");
    let mut child = pv3t1d(&scenario, &results, 1).spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed = false;
    loop {
        if unit_checkpoints(&results) >= 2 {
            child.kill().unwrap();
            killed = true;
            break;
        }
        if child.try_wait().unwrap().is_some() {
            // The whole campaign outran the poll — rare, but then the
            // rerun below must be a pure cache hit instead of a resume.
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no unit checkpoints appeared within 60s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let status = child.wait().unwrap();
    if killed {
        assert!(!status.success(), "the killed run must not exit cleanly");
        assert!(
            unit_checkpoints(&results) >= 2,
            "completed units must survive the SIGKILL on disk"
        );
    }

    // Resume: the same scenario and results directory, at a different
    // worker count (and so a different shard geometry).
    let out = pv3t1d(&scenario, &results, 2).output().unwrap();
    assert!(
        out.status.success(),
        "resumed run failed: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed = manifest(&results);

    assert_eq!(
        resumed.get("fingerprint").unwrap().as_str(),
        reference.get("fingerprint").unwrap().as_str(),
        "resumed fingerprint must match the uninterrupted reference"
    );
    assert_eq!(
        resumed.get("results").unwrap().render(),
        reference.get("results").unwrap().render(),
        "results section must be byte-identical"
    );

    let counters = resumed
        .get("execution")
        .and_then(|e| e.get("metrics"))
        .and_then(|m| m.get("counters"))
        .cloned()
        .unwrap_or_else(Json::object);
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    let replayed = counter("orchestrator.checkpoint.resumed_units");
    let hits = counter("orchestrator.cas.hits");
    assert!(
        replayed >= 1 || hits >= 1,
        "the rerun must reuse prior work (resumed {replayed} units, {hits} cache hits)"
    );
    if killed {
        assert!(
            replayed >= 1,
            "after a mid-campaign kill, at least one unit must come from a checkpoint"
        );
    }

    // The completed stage artifact supersedes its unit checkpoints,
    // which the scheduler clears once the full payload lands.
    assert_eq!(
        unit_checkpoints(&results),
        0,
        "unit checkpoints must be cleared after the stage artifact lands"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! The continuous CAS janitor: a daemon thread that periodically runs
//! the size/LRU-bounded collector ([`ArtifactStore::gc_bounded`]) so a
//! long-lived daemon's cache stays within its byte budget without
//! operator intervention.
//!
//! Safety against concurrent runs reuses the scan-race guard from
//! `pv3t1d gc`: every pass sets its freshness cutoff one full interval
//! in the past, so entries written while (or just before) the pass
//! scans — e.g. by an in-flight job whose keys the janitor cannot see —
//! are spared and counted as `skipped_fresh`. Only entries that have
//! survived untouched for at least one interval are eviction
//! candidates, oldest first, and only while the store is over budget.

use crate::server::Shared;
use obs::Json;
use orchestrator::ArtifactStore;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Janitor thread parameters.
#[derive(Debug, Clone)]
pub struct JanitorConfig {
    /// The CAS root (`<results>/cas`).
    pub store_root: PathBuf,
    /// Pause between passes; also the freshness window.
    pub interval: Duration,
    /// Byte budget the store is trimmed down to.
    pub max_bytes: u64,
}

/// The janitor's externally visible telemetry (surfaced in `/healthz`
/// and the `/metrics` exposition).
#[derive(Debug, Default)]
pub struct JanitorState {
    last: Mutex<Option<(u64, Json)>>,
    bytes_freed_total: std::sync::atomic::AtomicU64,
    removed_total: std::sync::atomic::AtomicU64,
}

impl JanitorState {
    /// Empty state (no pass has run).
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, report: Json) {
        use std::sync::atomic::Ordering;
        let freed = report.get("bytes_freed").and_then(Json::as_u64).unwrap_or(0);
        let removed = report.get("removed").and_then(Json::as_u64).unwrap_or(0);
        self.bytes_freed_total.fetch_add(freed, Ordering::Relaxed);
        self.removed_total.fetch_add(removed, Ordering::Relaxed);
        let mut last = self.last.lock().expect("janitor state poisoned");
        let passes = last.as_ref().map_or(0, |(n, _)| *n) + 1;
        *last = Some((passes, report));
    }

    /// Lifetime totals across every pass: `(passes, bytes_freed,
    /// entries_removed)` — the cumulative counters the `/metrics`
    /// exposition publishes (the per-pass report only shows the latest).
    pub fn totals(&self) -> (u64, u64, u64) {
        use std::sync::atomic::Ordering;
        let passes = self
            .last
            .lock()
            .expect("janitor state poisoned")
            .as_ref()
            .map_or(0, |(n, _)| *n);
        (
            passes,
            self.bytes_freed_total.load(Ordering::Relaxed),
            self.removed_total.load(Ordering::Relaxed),
        )
    }

    /// `null` before the first pass; afterwards the latest
    /// [`GcReport`](orchestrator::GcReport) JSON plus a `passes`
    /// counter.
    pub fn to_json(&self) -> Json {
        match &*self.last.lock().expect("janitor state poisoned") {
            None => Json::Null,
            Some((passes, report)) => {
                let mut doc = report.clone();
                doc.insert("passes", Json::Num(*passes as f64));
                doc
            }
        }
    }
}

/// The janitor thread body: sleep (shutdown-aware), collect, publish
/// telemetry, repeat until the daemon drains.
pub(crate) fn run(config: JanitorConfig, shared: Arc<Shared>) {
    let store = ArtifactStore::new(&config.store_root);
    let keep = BTreeSet::new();
    loop {
        if shared.shutdown.sleep(config.interval) {
            return;
        }
        let cutoff = SystemTime::now()
            .checked_sub(config.interval)
            .unwrap_or(SystemTime::UNIX_EPOCH);
        match store.gc_bounded(&keep, config.max_bytes, false, Some(cutoff)) {
            Ok(report) => {
                if report.removed > 0 {
                    obs::trace::instant_with("serve", || {
                        format!(
                            "janitor.gc:removed={},freed={}",
                            report.removed, report.bytes_freed
                        )
                    });
                }
                shared.janitor.record(report.to_json());
            }
            Err(e) => {
                let mut doc = Json::object();
                doc.insert("error", Json::Str(e.to_string()));
                shared.janitor.record(doc);
            }
        }
    }
}

//! Parallel Monte-Carlo campaign engine.
//!
//! The paper's headline experiments (Figs. 6b, 9, 10, 11, 12; Table 3)
//! all share one shape: a **campaign** of many mutually independent work
//! units — typically one per `(chip, scheme)` pair — whose results are
//! reported in a fixed order. This module fans those units across a scoped
//! worker pool while keeping the output **bit-identical to a serial run**:
//!
//! * every unit's randomness derives from its own index (chip RNG streams
//!   are seeded from `(base_seed, chip_k)` inside
//!   [`vlsi::montecarlo::ChipFactory`], benchmark streams from
//!   `(seed, bench_i)` and pre-recorded by the shared
//!   [`crate::evaluate::Evaluator`]), so no unit observes another's
//!   scheduling;
//! * there is one engine, [`map_shards_with_hooks`]: each worker takes one
//!   **contiguous index shard** ([`shard_ranges`]) — no shared claim
//!   counter on the hot path, no per-unit synchronization; a worker
//!   touches only its own cache-warm run of indices and the merge is a
//!   straight concatenation. Crash-safe callers (the orchestrator's
//!   checkpointed stages) pass per-unit resume/persist hooks
//!   ([`UnitHooks`]) keyed by unit index, so a checkpoint never depends
//!   on the worker count; the plain fan-out ([`map_indexed_with_workers`])
//!   passes none;
//! * results are merged into pre-indexed slots — position
//!   `i` of the output always holds unit `i`'s result, whatever thread
//!   or order computed it.
//!
//! The pool is `std::thread::scope`-based: no dependencies, no `unsafe`,
//! borrows of the campaign's shared inputs (chip populations, recorded
//! traces, baselines) work directly. Worker count comes from
//! `PV3T1D_WORKERS` (useful both for `=1` serial baselines and CI caps)
//! or [`std::thread::available_parallelism`].
//!
//! Each unit is also individually timed, so a campaign reports its wall
//! clock next to the *estimated serial time* (the sum of unit times): the
//! speedup a campaign reports is measured, not assumed.

use std::time::{Duration, Instant};

use crate::chip::ChipModel;
use crate::evaluate::{Evaluator, SuiteResult, UnitEval};
use cachesim::Scheme;

/// Environment variable overriding the worker count (`0` or unset ⇒
/// auto-detect; `1` ⇒ a true serial run on the calling thread).
pub const WORKERS_ENV: &str = "PV3T1D_WORKERS";

/// The campaign worker count: `PV3T1D_WORKERS` if set and non-zero, else
/// the host's available parallelism.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Timing summary of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Work units executed.
    pub units: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole fan-out (including the merge).
    pub wall: Duration,
    /// Sum of the individual unit times — what a serial loop over the
    /// same units would have cost (modulo cache warmth).
    pub serial_estimate: Duration,
    /// Units each worker's shard held (length = worker count).
    pub per_worker_units: Vec<usize>,
    /// Per-unit execution times in seconds, indexed by unit (0 for
    /// resumed units — they were not recomputed).
    pub unit_seconds: Vec<f64>,
    /// Units served from a [`UnitHooks::resume`] checkpoint instead of
    /// being recomputed.
    pub resumed_units: usize,
}

impl CampaignReport {
    /// Measured speedup: estimated serial time over wall-clock time.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.serial_estimate.as_secs_f64() / wall
    }

    /// Folds another fan-out's timing into this one (for stages that run
    /// several campaigns and report one aggregate banner): units, wall and
    /// serial estimate add; the worker count takes the maximum; per-worker
    /// unit counts add slot-wise; unit timings concatenate.
    pub fn absorb(&mut self, other: &CampaignReport) {
        self.units += other.units;
        self.workers = self.workers.max(other.workers);
        self.wall += other.wall;
        self.serial_estimate += other.serial_estimate;
        if self.per_worker_units.len() < other.per_worker_units.len() {
            self.per_worker_units.resize(other.per_worker_units.len(), 0);
        }
        for (slot, &n) in self.per_worker_units.iter_mut().zip(&other.per_worker_units) {
            *slot += n;
        }
        self.unit_seconds.extend_from_slice(&other.unit_seconds);
        self.resumed_units += other.resumed_units;
    }

    /// An empty report to [`CampaignReport::absorb`] into.
    pub fn empty() -> Self {
        Self {
            units: 0,
            workers: 1,
            wall: Duration::ZERO,
            serial_estimate: Duration::ZERO,
            per_worker_units: Vec::new(),
            unit_seconds: Vec::new(),
            resumed_units: 0,
        }
    }

    /// Exports the campaign timing under the `campaign.` prefix: unit and
    /// worker counts, wall/serial seconds, measured speedup, per-worker
    /// unit counts, and a 16-bucket histogram of unit times. All of these
    /// names fall under [`obs::MetricsRegistry::is_timing_metric`], so they
    /// are recorded in manifests but excluded from determinism
    /// fingerprints (scheduling is allowed to differ between runs).
    pub fn export(&self, m: &mut obs::MetricsRegistry) {
        m.set_counter("campaign.units", self.units as u64);
        m.set_counter("campaign.workers", self.workers as u64);
        m.set_counter("campaign.resumed_units", self.resumed_units as u64);
        m.set_gauge("campaign.wall_seconds", self.wall.as_secs_f64());
        m.set_gauge(
            "campaign.serial_estimate_seconds",
            self.serial_estimate.as_secs_f64(),
        );
        m.set_gauge("campaign.speedup", self.speedup());
        for (w, &n) in self.per_worker_units.iter().enumerate() {
            m.set_counter(&format!("campaign.worker.{w:02}.units"), n as u64);
        }
        if !self.unit_seconds.is_empty() {
            let hi = self
                .unit_seconds
                .iter()
                .cloned()
                .fold(0.0f64, f64::max)
                .max(1e-9);
            // Upper edge nudged so the maximum lands in the last bucket
            // rather than the overflow slot.
            let h = m.histogram("campaign.unit_seconds", 0.0, hi * (1.0 + 1e-12), 16);
            for &s in &self.unit_seconds {
                h.record(s);
            }
        }
    }

    /// One-line banner summary (`units`, `workers`, wall, speedup).
    pub fn banner_line(&self) -> String {
        format!(
            "campaign: {} units on {} workers, wall {:.2}s, est. serial {:.2}s, speedup {:.2}x",
            self.units,
            self.workers,
            self.wall.as_secs_f64(),
            self.serial_estimate.as_secs_f64(),
            self.speedup()
        )
    }
}

/// Fans `f(0..n)` across the campaign worker pool and returns the results
/// in index order, plus the timing report.
///
/// Scheduling cannot reorder or tear results: unit `i`'s result lands in
/// slot `i`, and `f` must derive any randomness from `i` alone (the
/// workspace's chip factories and recorded benchmark streams do — see the
/// module docs). With `PV3T1D_WORKERS=1` the units run on the calling
/// thread in index order, which is the literal serial loop.
pub fn map_indexed<R, F>(n: usize, f: F) -> (Vec<R>, CampaignReport)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with_workers(n, worker_count(), f)
}

/// [`map_indexed`] with an explicit worker count (the determinism tests
/// compare 1 vs N directly, without touching the environment).
///
/// Each worker computes one contiguous index shard — see [`shard_ranges`]
/// and the module docs. Because unit `i` depends only on `i`, the shard
/// partition (and therefore the worker count) cannot change any result.
pub fn map_indexed_with_workers<R, F>(n: usize, workers: usize, f: F) -> (Vec<R>, CampaignReport)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (slots, report) = map_shards_with_hooks(n, workers, UnitHooks::none(), f);
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("an uncancelled campaign fills every slot"))
        .collect();
    (results, report)
}

/// Balanced contiguous partition of `0..n` into at most `shards` runs:
/// lengths differ by at most one, earlier shards take the remainder, and
/// concatenating the ranges in order reproduces `0..n` exactly. With
/// `n == 0` there is a single empty shard.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1).min(n.max(1));
    let base = n / shards;
    let rem = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let len = base + usize::from(s < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Signature of the [`UnitHooks::resume`] hook.
pub type ResumeHook<'a, R> = &'a (dyn Fn(usize) -> Option<R> + Sync);

/// Signature of the [`UnitHooks::persist`] hook.
pub type PersistHook<'a, R> = &'a (dyn Fn(usize, &R) + Sync);

/// Per-unit checkpoint and cancellation hooks for [`map_shards_with_hooks`].
///
/// All three are optional; [`UnitHooks::none`] is the plain fan-out. The
/// hooks keep the campaign engine free of any storage dependency — the
/// orchestrator provides closures backed by its content-addressed store,
/// tests provide closures over a `HashMap`.
///
/// Hooks are keyed by **unit index**, never by shard, so a checkpoint
/// written at one worker count resumes at any other. The determinism
/// contract carries over: `resume` must return exactly what `f` would
/// compute for the same index (the orchestrator guarantees this by keying
/// checkpoints on the full stage fingerprint), and `persist`/`resume` may
/// be called concurrently from several workers.
pub struct UnitHooks<'a, R> {
    /// Returns a previously persisted result for a unit, if one exists.
    /// Tried before computing; a hit skips `f` and `persist` entirely.
    pub resume: Option<ResumeHook<'a, R>>,
    /// Called with each freshly computed unit result, before the merge.
    /// Persistence is best-effort: a hook that drops the result on the
    /// floor only costs recomputation on the next resume.
    pub persist: Option<PersistHook<'a, R>>,
    /// Cooperative cancellation, checked before each unit starts. Once
    /// set, every shard stops at its next unit; units already in flight
    /// finish (and are persisted), so a checkpoint is never torn mid-unit.
    pub cancel: Option<&'a obs::CancelToken>,
}

impl<R> UnitHooks<'_, R> {
    /// No hooks: behaves exactly like the plain fan-out.
    pub fn none() -> Self {
        Self {
            resume: None,
            persist: None,
            cancel: None,
        }
    }
}

impl<R> Default for UnitHooks<'_, R> {
    fn default() -> Self {
        Self::none()
    }
}

/// The campaign engine: partitions `0..n` into contiguous shards
/// ([`shard_ranges`]), runs one worker thread per shard, and applies the
/// per-unit `hooks` — resume before computing, persist after — as each
/// shard walks its range in index order.
///
/// Returns one slot per unit, in index order. A slot is `None` only when
/// cancellation stopped its shard before reaching it: every unit a shard
/// finished before the cancel keeps its slot (and its checkpoint), and an
/// uncancelled run fills every slot. Resumed units count toward
/// [`CampaignReport::resumed_units`] and contribute zero unit time. Each
/// shard emits a `campaign.shard` trace span and counter carrying its unit
/// count.
pub fn map_shards_with_hooks<R, F>(
    n: usize,
    workers: usize,
    hooks: UnitHooks<'_, R>,
    f: F,
) -> (Vec<Option<R>>, CampaignReport)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let ranges = shard_ranges(n, workers);
    let shards = ranges.len();
    let start = Instant::now();
    let _campaign_span =
        obs::trace::span_with("t3cache", || format!("campaign.map:{n}x{shards}shards"));

    /// One shard's work: the results of the prefix of its range it
    /// completed (all of it unless cancelled), the computed units' times,
    /// and how many units came from `resume`.
    struct ShardOutcome<T> {
        done: Vec<T>,
        times: Vec<(usize, Duration)>,
        resumed: usize,
    }
    let run_shard = |s: usize, range: std::ops::Range<usize>| -> ShardOutcome<R> {
        let len = range.len();
        let _shard_span =
            obs::trace::span_with("t3cache", || format!("campaign.shard:{s}:{len}units"));
        let mut out = ShardOutcome {
            done: Vec::with_capacity(len),
            times: Vec::with_capacity(len),
            resumed: 0,
        };
        for i in range {
            if hooks.cancel.is_some_and(obs::CancelToken::is_cancelled) {
                return out;
            }
            if let Some(r) = hooks.resume.and_then(|resume| resume(i)) {
                out.resumed += 1;
                obs::trace::instant_with("t3cache", || format!("unit.resumed:{i}"));
                out.done.push(r);
                continue;
            }
            let _unit_span = obs::trace::span_with("t3cache", || format!("unit:{i}"));
            let t0 = Instant::now();
            let r = f(i);
            if let Some(persist) = hooks.persist {
                persist(i, &r);
            }
            out.times.push((i, t0.elapsed()));
            out.done.push(r);
        }
        obs::trace::counter("campaign.shard", len as f64);
        // Emitted at shard *completion* so the per-shard unit count stays
        // visible in `pv3t1d report --trace` even when an event-heavy
        // stage has evicted the shard's begin-span from the trace ring.
        obs::trace::instant_with("t3cache", || format!("campaign.shard.done:{s}:{len}units"));
        out
    };

    let outcomes: Vec<ShardOutcome<R>> = if shards == 1 {
        vec![run_shard(0, ranges[0].clone())]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .cloned()
                .enumerate()
                .map(|(s, range)| {
                    let run_shard = &run_shard;
                    scope.spawn(move || {
                        let _worker_span =
                            obs::trace::span_with("t3cache", || format!("worker:{s}"));
                        run_shard(s, range)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign shard worker panicked"))
                .collect()
        })
    };

    // Shards are contiguous and in order, so concatenating each shard's
    // completed prefix (padded with `None` for units a cancel cut off)
    // puts unit `i`'s result in slot `i`.
    let per_worker_units: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
    let mut serial_estimate = Duration::ZERO;
    let mut unit_seconds = vec![0.0f64; n];
    let mut resumed_units = 0;
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    for (range, outcome) in ranges.iter().zip(outcomes) {
        for (i, dt) in outcome.times {
            serial_estimate += dt;
            unit_seconds[i] = dt.as_secs_f64();
        }
        resumed_units += outcome.resumed;
        let missing = range.len() - outcome.done.len();
        slots.extend(outcome.done.into_iter().map(Some));
        slots.extend(std::iter::repeat_with(|| None).take(missing));
    }

    let report = CampaignReport {
        units: n,
        workers: shards,
        wall: start.elapsed(),
        serial_estimate,
        per_worker_units,
        unit_seconds,
        resumed_units,
    };
    (slots, report)
}

/// One `(chip, scheme)` evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitResult {
    /// Index of the chip within the campaign's chip slice.
    pub chip: usize,
    /// Index of the scheme within the campaign's scheme slice.
    pub scheme: usize,
    /// Performance normalized against the ideal-6T baseline.
    pub perf: f64,
    /// Dynamic power normalized against the ideal-6T baseline.
    pub power: f64,
}

/// Results of a chips × schemes campaign, pre-indexed by scheme then chip.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// `grid[s][c]` is chip `c` under scheme `s`, in input order.
    pub grid: Vec<Vec<UnitEval>>,
    /// Timing of the fan-out.
    pub report: CampaignReport,
}

impl CampaignResult {
    /// The per-chip evaluations for one scheme, in chip order.
    pub fn per_chip(&self, scheme: usize) -> &[UnitEval] {
        &self.grid[scheme]
    }

    /// Per-chip normalized performances for one scheme.
    pub fn perfs(&self, scheme: usize) -> Vec<f64> {
        self.grid[scheme].iter().map(|u| u.perf).collect()
    }

    /// Per-chip normalized dynamic powers for one scheme.
    pub fn powers(&self, scheme: usize) -> Vec<f64> {
        self.grid[scheme].iter().map(|u| u.power).collect()
    }

    /// Exports one scheme's row into a metrics registry under
    /// `scheme.<label>`: mean normalized perf/power across chips plus the
    /// cache and pipeline counters summed over every chip's suite. These
    /// are *result* metrics — deterministic for a fixed seed and part of
    /// the manifest determinism fingerprint.
    pub fn export_scheme(&self, m: &mut obs::MetricsRegistry, scheme: usize, label: &str) {
        let row = &self.grid[scheme];
        let prefix = format!("scheme.{label}");
        if !row.is_empty() {
            let n = row.len() as f64;
            let perf_mean = row.iter().map(|u| u.perf).sum::<f64>() / n;
            let power_mean = row.iter().map(|u| u.power).sum::<f64>() / n;
            m.set_gauge(&format!("{prefix}.perf.mean"), perf_mean);
            m.set_gauge(&format!("{prefix}.power.mean"), power_mean);
            m.set_counter(&format!("{prefix}.chips"), row.len() as u64);
            let mut total = row[0];
            for u in &row[1..] {
                total.merge_counters(u);
            }
            total.cache.export(m, &format!("{prefix}.cache"));
            total.sim.export(m, &format!("{prefix}.pipe"));
        }
    }

    /// [`CampaignResult::export_scheme`] over every scheme, followed by the
    /// campaign timing (`campaign.*`, fingerprint-excluded).
    pub fn export(&self, m: &mut obs::MetricsRegistry, labels: &[String]) {
        assert_eq!(labels.len(), self.grid.len(), "one label per scheme");
        for (s, label) in labels.iter().enumerate() {
            self.export_scheme(m, s, label);
        }
        self.report.export(m);
    }
}

/// Evaluates every chip under every scheme (4-way, normalized against
/// `ideal`), fanning the `chips.len() × schemes.len()` independent units
/// across the worker pool.
///
/// Equivalent to — and bit-identical with — the serial nested loop
/// `for scheme in schemes { for chip in chips { evaluate_chip(..) } }`.
pub fn evaluate_grid(
    eval: &Evaluator,
    chips: &[&ChipModel],
    schemes: &[Scheme],
    ideal: &SuiteResult,
) -> CampaignResult {
    evaluate_grid_with_workers(eval, chips, schemes, ideal, worker_count())
}

/// [`evaluate_grid`] with an explicit worker count.
pub fn evaluate_grid_with_workers(
    eval: &Evaluator,
    chips: &[&ChipModel],
    schemes: &[Scheme],
    ideal: &SuiteResult,
    workers: usize,
) -> CampaignResult {
    let n_chips = chips.len();
    let units = n_chips * schemes.len();
    // Pre-record the shared benchmark streams before fanning out, so unit
    // timings measure evaluation, not a one-off recording race.
    eval.warm_traces();
    let (flat, report) = map_indexed_with_workers(units, workers, |i| {
        let (s, c) = (i / n_chips, i % n_chips);
        eval.evaluate_chip_full(chips[c], schemes[s], ideal)
    });
    let mut grid = Vec::with_capacity(schemes.len());
    let mut it = flat.into_iter();
    for _ in 0..schemes.len() {
        grid.push(it.by_ref().take(n_chips).collect());
    }
    CampaignResult { grid, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipPopulation;
    use crate::evaluate::EvalConfig;
    use vlsi::tech::TechNode;
    use vlsi::variation::VariationCorner;
    use workloads::SpecBenchmark;

    #[test]
    fn map_indexed_preserves_order() {
        for workers in [1, 2, 5] {
            let (out, report) =
                map_indexed_with_workers(100, workers, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(report.units, 100);
            assert!(report.workers <= workers.max(1));
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        let (out, report) = map_indexed_with_workers(0, 4, |i| i);
        assert!(out.is_empty());
        assert_eq!(report.units, 0);
        let (out, _) = map_indexed_with_workers(1, 4, |i| i + 7);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn hooks_persist_then_resume_bit_identically() {
        use std::collections::HashMap;
        use std::sync::Mutex;

        let compute = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9);
        // First pass at 4 workers: compute everything, persisting each
        // unit into a map keyed by unit index.
        let store: Mutex<HashMap<usize, u64>> = Mutex::new(HashMap::new());
        let persist = |i: usize, r: &u64| {
            store.lock().unwrap().insert(i, *r);
        };
        let hooks = UnitHooks {
            persist: Some(&persist),
            ..UnitHooks::none()
        };
        let (first, report) = map_shards_with_hooks(50, 4, hooks, compute);
        assert_eq!(report.workers, 4);
        assert_eq!(report.resumed_units, 0);
        assert_eq!(store.lock().unwrap().len(), 50, "one checkpoint per unit");
        assert_eq!(first, (0..50).map(|i| Some(compute(i))).collect::<Vec<_>>());

        // Second pass at 3 workers — a different shard geometry: every
        // unit resumes; computing is a test failure.
        let resume = |i: usize| store.lock().unwrap().get(&i).copied();
        let hooks = UnitHooks {
            resume: Some(&resume),
            ..UnitHooks::none()
        };
        let (second, report) = map_shards_with_hooks(50, 3, hooks, |i| -> u64 {
            panic!("unit {i} recomputed despite a full checkpoint")
        });
        assert_eq!(report.workers, 3);
        assert_eq!(report.resumed_units, 50);
        assert_eq!(first, second, "resumed results must be bit-identical");

        // Partial checkpoint at 3 workers: only even units resume, odd
        // ones compute.
        store.lock().unwrap().retain(|&i, _| i % 2 == 0);
        let resume = |i: usize| store.lock().unwrap().get(&i).copied();
        let hooks = UnitHooks {
            resume: Some(&resume),
            ..UnitHooks::none()
        };
        let (third, report) = map_shards_with_hooks(50, 3, hooks, compute);
        assert_eq!(report.resumed_units, 25);
        assert_eq!(first, third);
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 37, 100] {
            for shards in [1usize, 2, 3, 8, 16, 200] {
                let ranges = shard_ranges(n, shards);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= shards.max(1));
                // Concatenating the ranges reproduces 0..n exactly.
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "n={n} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, n);
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "n={n} shards={shards} lens={lens:?}");
            }
        }
    }

    #[test]
    fn cancelled_campaign_stops_claiming_units() {
        use std::collections::HashMap;
        use std::sync::Mutex;

        // A pre-cancelled token: no unit ever starts.
        let token = obs::CancelToken::new();
        token.cancel();
        let hooks: UnitHooks<'_, usize> = UnitHooks {
            cancel: Some(&token),
            ..UnitHooks::none()
        };
        let (slots, report) = map_shards_with_hooks(20, 2, hooks, |i| i);
        assert_eq!(slots.len(), 20);
        assert!(slots.iter().all(Option::is_none));
        assert_eq!(report.resumed_units, 0);

        // Cancelling mid-run: the shard stops at its next unit, so a
        // prefix of units completes and the rest stay None. Every unit
        // finished before the cancel keeps its slot and its checkpoint.
        let token = obs::CancelToken::new();
        let store: Mutex<HashMap<usize, usize>> = Mutex::new(HashMap::new());
        let persist = |i: usize, r: &usize| {
            store.lock().unwrap().insert(i, *r);
        };
        let hooks = UnitHooks {
            persist: Some(&persist),
            cancel: Some(&token),
            ..UnitHooks::none()
        };
        let (slots, _) = map_shards_with_hooks(20, 1, hooks, |i| {
            if i == 4 {
                token.cancel();
            }
            i
        });
        assert_eq!(slots.len(), 20);
        let done = slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(done, 5, "units up to and including the cancelling one complete");
        // Completed units are intact, in order, and checkpointed.
        let store = store.lock().unwrap();
        for (i, s) in slots.iter().enumerate() {
            if i < done {
                assert_eq!(*s, Some(i));
                assert_eq!(store.get(&i), Some(&i), "unit {i} lost its checkpoint");
            } else {
                assert_eq!(*s, None);
                assert!(!store.contains_key(&i), "unit {i} ran after the cancel");
            }
        }
    }

    #[test]
    fn speedup_is_serial_over_wall() {
        let r = CampaignReport {
            units: 4,
            workers: 2,
            wall: Duration::from_millis(500),
            serial_estimate: Duration::from_millis(1500),
            ..CampaignReport::empty()
        };
        assert!((r.speedup() - 3.0).abs() < 1e-9);
        assert!(r.banner_line().contains("3.00x"));
    }

    #[test]
    fn report_tracks_worker_balance_and_unit_times() {
        let (_, report) = map_indexed_with_workers(40, 4, |i| i);
        assert_eq!(report.per_worker_units.iter().sum::<usize>(), 40);
        assert_eq!(report.unit_seconds.len(), 40);
        assert!(report.unit_seconds.iter().all(|&s| s >= 0.0));

        let mut total = CampaignReport::empty();
        total.absorb(&report);
        total.absorb(&report);
        assert_eq!(total.units, 80);
        assert_eq!(total.unit_seconds.len(), 80);
        assert_eq!(
            total.per_worker_units.iter().sum::<usize>(),
            80,
            "unit counts add slot-wise"
        );

        let mut m = obs::MetricsRegistry::new();
        total.export(&mut m);
        assert_eq!(m.counter("campaign.units"), Some(80));
        assert_eq!(m.get_histogram("campaign.unit_seconds").unwrap().count(), 80);
        // Everything the report exports is scheduling/timing — excluded
        // from determinism fingerprints by the naming convention.
        assert_eq!(m.deterministic_fingerprint(), "");
    }

    /// The headline determinism regression: a campaign on one worker and
    /// on many workers produces byte-identical per-chip `(perf, power)`
    /// vectors from the same seed.
    #[test]
    fn parallel_grid_is_bit_identical_to_serial() {
        let pop = ChipPopulation::generate(
            TechNode::N32,
            VariationCorner::Severe.params(),
            3,
            424,
        );
        let chips: Vec<&ChipModel> = pop.chips().iter().collect();
        let schemes = [Scheme::no_refresh_lru(), Scheme::rsp_fifo()];
        let eval = Evaluator::new(EvalConfig {
            benchmarks: vec![SpecBenchmark::Gzip, SpecBenchmark::Mcf],
            ..EvalConfig::quick()
        });
        let ideal = eval.run_ideal(4);

        let serial = evaluate_grid_with_workers(&eval, &chips, &schemes, &ideal, 1);
        let parallel = evaluate_grid_with_workers(&eval, &chips, &schemes, &ideal, 4);
        // Bit-identical, not approximately equal: compare the raw f64s.
        assert_eq!(serial.grid, parallel.grid);

        // And identical to the plain serial nested loop over evaluate_chip.
        for (s, &scheme) in schemes.iter().enumerate() {
            for (c, chip) in chips.iter().enumerate() {
                let u = parallel.grid[s][c];
                assert_eq!(
                    (u.perf, u.power),
                    eval.evaluate_chip(chip, scheme, &ideal),
                    "scheme {s} chip {c}"
                );
            }
        }

        // The exported result metrics are bit-identical too — the
        // manifest-level determinism contract.
        let mut ms = obs::MetricsRegistry::new();
        let mut mp = obs::MetricsRegistry::new();
        let labels: Vec<String> = schemes.iter().map(|s| s.to_string()).collect();
        serial.export(&mut ms, &labels);
        parallel.export(&mut mp, &labels);
        assert_eq!(ms.deterministic_fingerprint(), mp.deterministic_fingerprint());
    }

    #[test]
    fn population_generation_is_worker_count_invariant() {
        let serial = ChipPopulation::generate_with_workers(
            TechNode::N32,
            VariationCorner::Typical.params(),
            6,
            77,
            1,
        );
        let parallel = ChipPopulation::generate_with_workers(
            TechNode::N32,
            VariationCorner::Typical.params(),
            6,
            77,
            4,
        );
        for (a, b) in serial.chips().iter().zip(parallel.chips()) {
            assert_eq!(a.retention_times(), b.retention_times());
            assert_eq!(a.index(), b.index());
        }
    }
}

//! # orchestrator — the experiment DAG runner behind the `pv3t1d` CLI
//!
//! Reproducing the paper end-to-end means running a dozen interdependent
//! experiments (Monte-Carlo chip campaigns, retention maps, the Fig. 6b
//! and 9–12 / Table 3 evaluations, summary reports). Before this crate,
//! each one was a standalone binary and "reproduce the paper" was a
//! shell script of serial invocations that recomputed everything on
//! every run. This crate turns that into:
//!
//! * [`spec`] — declarative **scenario specs** (`scenarios/*.json`,
//!   parsed with the workspace's zero-dependency [`obs::Json`]): stages,
//!   kind-specific params, and data edges between them;
//! * [`sched`] — a **DAG scheduler** that runs independent stages
//!   concurrently, isolates per-stage failures (siblings finish, the run
//!   manifest records the error) and enforces per-stage wall-clock
//!   budgets;
//! * [`cas`] — a **content-addressed artifact store** under
//!   `results/cas/`, keyed by a fingerprint of (stage kind, params,
//!   scale, input artifact digests), with corruption detected on read
//!   and treated as a cache miss;
//! * [`stage`] — the stage kinds themselves, thin JSON adapters over
//!   the library stage functions in [`bench_harness::figures`] and
//!   [`t3cache`];
//! * [`bench`](mod@bench) — the pinned micro-benchmark suite behind `pv3t1d bench`
//!   and the `BENCH_<label>.json` baseline / `--compare` regression
//!   machinery;
//! * [`report`] — the `pv3t1d report` markdown renderer for run
//!   manifests and `--trace` captures.
//!
//! The determinism contract extends the workspace-wide one: a second
//! `pv3t1d run` of an unchanged scenario executes **zero** stages (every
//! lookup hits) and reproduces the run manifest's `results` section and
//! fingerprint bit-for-bit. CI pins exactly that.

pub mod bench;
pub mod cas;
pub mod flight;
pub mod hash;
pub mod report;
pub mod sched;
pub mod spec;
pub mod stage;

pub use bench::{compare, BenchReport, CompareLine, Direction};
pub use cas::{
    checkpoint_base, unit_key, ArtifactStore, CasEntry, CasListing, GcReport, StageCheckpoint,
};
pub use flight::FlightTable;
pub use hash::content_hash;
pub use sched::{
    plan_scenario, run_scenario, stage_key, PlanEntry, RunOptions, RunSummary, StageError,
    StageErrorKind, StageResult, StageStatus,
};
pub use spec::{Scenario, SpecError, StageSpec};
pub use stage::effective_params;

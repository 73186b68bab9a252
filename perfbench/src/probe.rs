//! Host-speed probe, for normalizing CPU-bound times on a shared host.
//!
//! The reference host is a 2-vCPU share of a machine other tenants use.
//! How fast one of its cores runs the program changes over seconds and
//! over hours with what they run, mostly through the memory system: the
//! same cold campaign run took from 1.2 to 2.6 s within minutes. [`kernel`] is a fixed piece of the benchmark's own work, never
//! the program's, so no change to the program moves it; it runs in a child
//! process (`perfbench --speed-probe`) so its buffers never count towards
//! the benchmark's own peak RSS. Dividing a CPU-bound time by the host's
//! slowness, probed right next to it, cancels much of the host's change.

use crate::util::{median, secs};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Median seconds of [`kernel`] on the 2-vCPU reference host. Any constant
/// would do; this one keeps normalized times close to the raw times seen
/// there.
pub const REF_S: f64 = 0.050;

/// The flag that makes `perfbench` run [`kernel`] and print its seconds.
pub const FLAG: &str = "--speed-probe";

/// Seconds one fixed unit of reference work takes on this host right now.
///
/// Five parts of roughly equal time, because a shared core slows code of
/// different kinds by different amounts: a cache simulator's tag lookups
/// (xorshift addresses, a 4096-entry tag table, unpredictable hits),
/// predictable FNV-1a hashing over a 64 KiB buffer, a Monte-Carlo style
/// `exp`/`ln`/`sqrt` chain, 16 MiB block copies (memory bandwidth) and a
/// dependent walk through a 64 MiB table (memory latency). The buffers are
/// filled before the clock starts, so page faults are not timed.
pub fn kernel() -> f64 {
    const WALK: usize = 1 << 24;
    // A full-period LCG modulo 2^24: following `walk[p]` visits every
    // entry once, in an order the prefetchers cannot guess.
    let walk: Vec<u32> = (0..WALK as u32)
        .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & (WALK as u32 - 1))
        .collect();
    let src = vec![1u8; 16 << 20];
    let mut dst = src.clone();
    let buf: Vec<u8> = (0..65_536u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();

    let t = Instant::now();
    let mut tags = vec![0u64; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let (mut hits, mut acc) = (0u64, 0.0f64);
    for i in 0..black_box(1_500_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = if x & 3 == 0 { x >> 20 } else { (i >> 2) & 0xFFFF };
        let set = (addr & 4095) as usize;
        if tags[set] == addr >> 12 {
            hits += 1;
            acc += 1.0 / (1 + (hits & 7)) as f64;
        } else {
            tags[set] = addr >> 12;
        }
    }
    let mut h = crate::util::FNV_OFFSET;
    for _ in 0..black_box(90) {
        h = crate::util::fnv1a(black_box(&buf), h);
    }
    let mut v = 0.5f64;
    for i in 0..black_box(600_000u32) {
        v = (v.exp() * 0.25 + f64::from(i & 15)).ln().sqrt() + 0.125;
    }
    for _ in 0..black_box(4) {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }
    let mut p = 0u32;
    for _ in 0..black_box(60_000) {
        p = walk[p as usize];
    }
    black_box((hits, acc, h, v, p));
    secs(t)
}

/// Runs [`kernel`] in a child `perfbench --speed-probe` and returns its
/// seconds.
pub fn probe() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("speed probe: {e}"))?;
    let out = Command::new(exe)
        .arg(FLAG)
        .output()
        .map_err(|e| format!("speed probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() && s > 0.0 => Ok(s),
        _ => Err(format!("speed probe failed: {:?}", out.status)),
    }
}

/// Host slowness, probed between timed intervals.
pub struct Speed {
    last: f64,
    factors: Vec<f64>,
}

impl Speed {
    pub fn new() -> Result<Self, String> {
        Ok(Speed { last: probe()?, factors: Vec::new() })
    }

    /// Slowness over the interval since the previous call (or since
    /// `new`): the mean of the probes at its two ends over [`REF_S`].
    /// Dividing the interval's times by it gives host-normalized times.
    pub fn interval(&mut self) -> Result<f64, String> {
        let now = probe()?;
        let f = (self.last + now) / 2.0 / REF_S;
        self.last = now;
        self.factors.push(f);
        Ok(f)
    }

    /// Median slowness over every interval so far.
    pub fn median(&self) -> f64 {
        median(&self.factors)
    }
}

//! Small shared helpers: a seeded generator, order statistics, and child
//! processes with resource usage.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so a seed fully
/// determines every generated scenario, schedule and trace.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under the workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` over groups of like samples, each group represented by its
/// median. Pooling unlike operations (stages or schemes whose times differ
/// by several times) puts a quantile in the gap between two groups, where
/// it swings with the extremes of both; a median per group does not.
pub fn quantile_of_medians<K>(groups: &std::collections::BTreeMap<K, Vec<f64>>, q: f64) -> f64 {
    let medians: Vec<f64> = groups.values().map(|v| median(v)).collect();
    quantile(&medians, q)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Removes and recreates an empty directory.
pub fn fresh_dir(path: &Path) -> io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}

/// 64-bit FNV-1a over bytes, for file determinism checks.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` (x86-64 / aarch64 layout).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// How a child process ended.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Wall time from spawn to reap.
    pub wall_s: f64,
    /// The child's peak resident set, in MiB.
    pub peak_rss_mb: f64,
    /// Exit status was 0.
    pub success: bool,
}

/// Runs `cmd` to completion with stdout/stderr sent to `log`, reaping it
/// with `wait4` so its own peak RSS is known.
pub fn run_child(cmd: &mut Command, log: &Path) -> io::Result<ChildRun> {
    let out = std::fs::File::create(log)?;
    let err = out.try_clone()?;
    let start = Instant::now();
    let child = cmd.stdout(out).stderr(err).spawn()?;
    let (status, rss) = reap(child.id() as i32)?;
    Ok(ChildRun {
        wall_s: secs(start),
        peak_rss_mb: rss,
        success: status == 0,
    })
}

/// Blocks until `pid` ends; returns `(raw wait status, peak RSS MiB)`.
fn reap(pid: i32) -> io::Result<(i32, f64)> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: plain syscall on valid out-pointers to owned locals.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage.maxrss_kb as f64 / 1024.0));
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// A long-running child (the daemon), stopped with SIGTERM.
#[derive(Debug)]
pub struct Daemon {
    pub pid: i32,
    pub log: PathBuf,
    reaped: bool,
}

impl Daemon {
    pub fn spawn(cmd: &mut Command, log: &Path) -> io::Result<Self> {
        let out = std::fs::File::create(log)?;
        let err = out.try_clone()?;
        let child = cmd.stdout(out).stderr(err).spawn()?;
        Ok(Daemon {
            pid: child.id() as i32,
            log: log.to_path_buf(),
            reaped: false,
        })
    }

    /// Peak resident set so far, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid))
    }

    /// Waits for the "listening on ADDR" line in the daemon's log.
    pub fn wait_listening(&self, timeout: Duration) -> io::Result<String> {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    return Ok(addr.to_string());
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("daemon did not start listening"))
    }

    /// SIGTERM, then SIGKILL after a grace period; always reaps.
    pub fn stop(mut self) -> io::Result<()> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> io::Result<()> {
        if self.reaped {
            return Ok(());
        }
        // SAFETY: signalling our own child by pid.
        unsafe { kill(self.pid, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut status = 0i32;
            let mut usage = Rusage::default();
            // WNOHANG = 1.
            // SAFETY: as in `reap`.
            let r = unsafe { wait4(self.pid, &mut status, 1, &mut usage) };
            if r == self.pid || r < 0 {
                self.reaped = true;
                return Ok(());
            }
            if Instant::now() > deadline {
                // SAFETY: as above.
                unsafe { kill(self.pid, SIGKILL) };
                reap(self.pid)?;
                self.reaped = true;
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

/// `VmHWM` (peak RSS) in MiB from a `/proc/*/status` file.
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of a command's stdout, or `"unknown"`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

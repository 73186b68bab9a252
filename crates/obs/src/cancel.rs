//! Cooperative cancellation: a cheap, cloneable token threaded from the
//! CLI's signal handler down through the scheduler into campaign
//! workers.
//!
//! Cancellation is *cooperative*: nothing is interrupted preemptively.
//! Long-running loops poll [`CancelToken::is_cancelled`] at natural
//! yield points (between stage launches, between campaign units) and
//! wind down on their own, which is what lets the callers flush partial
//! manifests, per-unit checkpoints, and the trace ring before exiting.
//!
//! The token is a shared flag, not a channel: once set it stays set, and
//! every clone observes it. Checking is one relaxed-ordering atomic load,
//! so polling it per campaign unit is free next to the unit itself.
//! Threads that have nothing to do until a deadline or the cancel —
//! a sampler, a janitor, a daemon's main thread — park in
//! [`CancelToken::sleep`] instead, which [`CancelToken::cancel`] wakes
//! at once through a condition variable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A shared one-way cancellation flag. Clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    /// Guards nothing but the sleep/cancel handshake: a sleeper checks
    /// the flag and parks under it, so a cancel cannot slip between the
    /// check and the wait.
    lock: Mutex<()>,
    wake: Condvar,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation and wakes every [`sleep`](Self::sleep).
    /// Idempotent; never un-sets.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
        let _guard = self.inner.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.inner.wake.notify_all();
    }

    /// Whether cancellation has been requested on this token (or any
    /// clone of it).
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    /// Sleeps for `d` or until the token is cancelled, whichever comes
    /// first. Returns `true` if the token is cancelled (at once, if it
    /// already was) and `false` after the full `d`. A `d` too long to
    /// add to [`Instant::now`] (e.g. [`Duration::MAX`]) waits for the
    /// cancel alone.
    pub fn sleep(&self, d: Duration) -> bool {
        let deadline = Instant::now().checked_add(d);
        let mut guard = self.inner.lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.is_cancelled() {
                return true;
            }
            guard = match deadline {
                None => self.inner.wake.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    let woken = self.inner.wake.wait_timeout(guard, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn visible_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }

    #[test]
    fn sleep_returns_early_when_another_thread_cancels() {
        let t = CancelToken::new();
        let c = t.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            c.cancel();
        });
        let t0 = Instant::now();
        assert!(t.sleep(Duration::from_secs(30)));
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        canceller.join().unwrap();
        // Already cancelled: returns at once, even for an unbounded sleep.
        assert!(t.sleep(Duration::MAX));
    }

    #[test]
    fn sleep_runs_its_full_duration_without_a_cancel() {
        let t = CancelToken::new();
        let d = Duration::from_millis(60);
        let t0 = Instant::now();
        assert!(!t.sleep(d));
        assert!(t0.elapsed() >= d, "{:?}", t0.elapsed());
        assert!(!t.is_cancelled());
    }
}

//! Stage supervision and graceful degradation.
//!
//! The paper's pitch is that one server keeps *many* streams real-time; a
//! single misbehaving stream must therefore never take the whole run down.
//! Restart, backoff and give-up live in the stage executor itself
//! ([`pool`](crate::pool): a failed slot restarts under a bounded budget,
//! paced by [`backoff_delay`], and reports a [`StageOutcome`]). This module
//! holds what the executor and the RT engine share around it:
//!
//! * [`backoff_delay`] / [`MAX_BACKOFF`] — the one capped exponential curve.
//! * [`StageOutcome`] — how a supervised stage ended.
//! * [`Watchdog`] — polls progress heartbeats ([`StageHandle::progress_cell`])
//!   and fires a per-entry stall action whenever a stage makes no progress
//!   for a full deadline while its input is non-empty. The action re-arms,
//!   so a persistently stalled stage is degraded continuously (e.g.
//!   [`DegradePolicy::ShedOldest`] keeps evicting over-age frames).
//!
//! [`StageHandle::progress_cell`]: crate::rt::StageHandle::progress_cell

use crate::rt::StageFailure;
use ffsva_telemetry::Counter;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What the RT engine does when the watchdog reports a stalled stage
/// (§4.3.1's real-time constraint, degraded instead of violated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradePolicy {
    /// Do nothing: bounded queues block upstream (today's behaviour); e2e
    /// latency grows with the stall.
    Block,
    /// Drop-oldest on the stalled T-YOLO queue: frames older than
    /// `max_lag_ms` are shed (with full drop accounting) so the frames that
    /// do flow stay fresh and e2e latency stays bounded.
    ShedOldest { max_lag_ms: u64 },
    /// Route SNM-positive frames directly to the reference stage, bypassing
    /// the stalled T-YOLO (trades reference-model load for latency).
    Bypass,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy::Block
    }
}

/// Ceiling on any single supervision backoff sleep: exponential growth past
/// this point only delays the inevitable give-up verdict.
pub const MAX_BACKOFF: Duration = Duration::from_secs(30);

/// Capped exponential backoff: `base * 2^attempt`, saturating, clamped to
/// `cap`. Attempt 0 is the first retry. Shared by stage supervision
/// (restart pacing) and the cluster control plane (re-forward retry
/// pacing), so both layers degrade on the same curve.
pub fn backoff_delay(base: Duration, attempt: u32, cap: Duration) -> Duration {
    base.saturating_mul(2u32.saturating_pow(attempt)).min(cap)
}

/// Terminal state of a supervised stage.
#[derive(Debug)]
pub enum StageOutcome {
    /// The stage drained its input and exited cleanly (possibly after
    /// restarts). `processed` accumulates across incarnations.
    Completed { processed: u64, restarts: u32 },
    /// Every attempt died and the restart budget is exhausted; the stage's
    /// downstream is closed and its remaining input quarantined. `processed`
    /// accumulates across incarnations.
    GaveUp {
        failure: StageFailure,
        processed: u64,
        restarts: u32,
    },
}

impl StageOutcome {
    pub fn processed(&self) -> u64 {
        match self {
            StageOutcome::Completed { processed, .. } | StageOutcome::GaveUp { processed, .. } => {
                *processed
            }
        }
    }

    pub fn restarts(&self) -> u32 {
        match self {
            StageOutcome::Completed { restarts, .. } | StageOutcome::GaveUp { restarts, .. } => {
                *restarts
            }
        }
    }

    pub fn gave_up(&self) -> bool {
        matches!(self, StageOutcome::GaveUp { .. })
    }

    /// The failure that exhausted the budget, if any.
    pub fn failure(&self) -> Option<&StageFailure> {
        match self {
            StageOutcome::Completed { .. } => None,
            StageOutcome::GaveUp { failure, .. } => Some(failure),
        }
    }
}

/// One stage the watchdog monitors: a progress heartbeat, a backlog probe
/// (a stall only matters while input is queued), and the degradation action
/// to fire on a stall.
pub struct WatchEntry {
    pub name: String,
    pub progress: Arc<AtomicU64>,
    pub backlog: Box<dyn Fn() -> usize + Send>,
    pub on_stall: Box<dyn FnMut() + Send>,
}

/// Stall detector over progress heartbeats. An entry trips when its
/// progress cell has not moved for a full `deadline` while its backlog
/// probe reports queued input; the timer then re-arms so the action fires
/// again every deadline until progress resumes.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl Watchdog {
    pub fn spawn(deadline: Duration, trips: Counter, mut entries: Vec<WatchEntry>) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let poll = (deadline / 8).max(Duration::from_millis(2));
        let join = thread::Builder::new()
            .name("watchdog".into())
            .spawn(move || {
                let mut last: Vec<(u64, Instant)> = entries
                    .iter()
                    .map(|e| (e.progress.load(Ordering::Relaxed), Instant::now()))
                    .collect();
                while !stop2.load(Ordering::Relaxed) {
                    thread::sleep(poll);
                    for (i, e) in entries.iter_mut().enumerate() {
                        let cur = e.progress.load(Ordering::Relaxed);
                        if cur != last[i].0 {
                            last[i] = (cur, Instant::now());
                        } else if last[i].1.elapsed() >= deadline && (e.backlog)() > 0 {
                            trips.inc();
                            (e.on_stall)();
                            last[i].1 = Instant::now(); // re-arm
                        }
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog { stop, join }
    }

    /// Stop polling and join the watchdog thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates_at_the_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        assert_eq!(backoff_delay(base, 0, cap), Duration::from_millis(10));
        assert_eq!(backoff_delay(base, 1, cap), Duration::from_millis(20));
        assert_eq!(backoff_delay(base, 3, cap), Duration::from_millis(80));
        assert_eq!(backoff_delay(base, 4, cap), cap);
        // overflow-proof at absurd attempt counts
        assert_eq!(backoff_delay(base, u32::MAX, cap), cap);
    }

    #[test]
    fn watchdog_trips_on_stall_and_rearms() {
        use ffsva_telemetry::Telemetry;

        let tel = Telemetry::new();
        let trips = tel.counter("rt.watchdog.trips");
        let progress = Arc::new(AtomicU64::new(0));
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&fired);
        let wd = Watchdog::spawn(
            Duration::from_millis(30),
            trips.clone(),
            vec![WatchEntry {
                name: "stalled".into(),
                progress: Arc::clone(&progress),
                backlog: Box::new(|| 5),
                on_stall: Box::new(move || {
                    f2.fetch_add(1, Ordering::Relaxed);
                }),
            }],
        );
        // no progress + backlog: must trip repeatedly (re-arm each deadline)
        thread::sleep(Duration::from_millis(200));
        let n_stalled = fired.load(Ordering::Relaxed);
        assert!(n_stalled >= 2, "tripped {n_stalled} times");
        // resume progress: trips stop
        for _ in 0..20 {
            progress.fetch_add(1, Ordering::Relaxed);
            thread::sleep(Duration::from_millis(5));
        }
        let quiet = fired.load(Ordering::Relaxed);
        thread::sleep(Duration::from_millis(25));
        assert!(fired.load(Ordering::Relaxed) <= quiet + 1);
        wd.stop();
        assert_eq!(
            tel.snapshot().counter("rt.watchdog.trips"),
            fired.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn watchdog_ignores_idle_stages_without_backlog() {
        let trips = Counter::detached();
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&fired);
        let wd = Watchdog::spawn(
            Duration::from_millis(20),
            trips.clone(),
            vec![WatchEntry {
                name: "idle".into(),
                progress: Arc::new(AtomicU64::new(0)),
                backlog: Box::new(|| 0),
                on_stall: Box::new(move || {
                    f2.fetch_add(1, Ordering::Relaxed);
                }),
            }],
        );
        thread::sleep(Duration::from_millis(100));
        wd.stop();
        assert_eq!(fired.load(Ordering::Relaxed), 0, "idle is not stalled");
        assert_eq!(trips.get(), 0);
    }
}

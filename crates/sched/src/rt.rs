//! Real-time threaded execution helpers (§3.1.2: "each prefetching stage and
//! filter are associated with an independent thread").
//!
//! Stages communicate through [`FeedbackQueue`]s; a bounded queue blocking
//! its producer *is* the paper's feedback mechanism. This module holds the
//! unsupervised 1-in/≤1-out stage thread ([`spawn_filter_stage_faulted`]:
//! the engine's reference stage) and what every stage executor shares with
//! it: the per-item [`filter_step`], the fault context and the failure
//! value. Supervised per-stream stages, batching ones included, run in
//! [`pool`](crate::pool).
//!
//! The worker body runs inside `catch_unwind`: a panicking filter function
//! (or an injected [`FaultInjector`] panic) is contained to its own stage.
//! [`StageHandle::join`] reports the failure as a [`StageFailure`] value
//! instead of re-panicking, and a panicked stage does **not** close its
//! output queue.

use crate::fault::{FaultAction, FaultInjector, INJECTED_PANIC};
use crate::queue::FeedbackQueue;
use ffsva_telemetry::StageTelemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A stage died by panic. Carries what the stage had done so far.
#[derive(Debug, Clone)]
pub struct StageFailure {
    /// Stage name as given at spawn time.
    pub stage: String,
    /// Rendered panic payload.
    pub message: String,
    /// Frames the failed incarnation processed before dying.
    pub processed: u64,
    /// Compute seconds the failed incarnation spent in its filter function.
    pub busy_s: f64,
}

impl std::fmt::Display for StageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage `{}` panicked after {} frames: {}",
            self.stage, self.processed, self.message
        )
    }
}

impl std::error::Error for StageFailure {}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stage panicked with a non-string payload".to_string()
    }
}

/// The cells a stage keeps current while it runs: a [`StageHandle`]'s, or a
/// pool slot's.
#[derive(Clone, Default)]
pub(crate) struct Meters {
    pub(crate) processed: Arc<AtomicU64>,
    pub(crate) busy_ns: Arc<AtomicU64>,
    progress: Arc<AtomicU64>,
}

/// Handle to a spawned stage thread.
pub struct StageHandle {
    pub name: String,
    meters: Meters,
    failure: Arc<Mutex<Option<String>>>,
    join: JoinHandle<()>,
}

/// Run `body` as the stage thread `name`, inside `catch_unwind`. A clean
/// return closes `primary` so downstream drains and stops; a panic is kept
/// for [`StageHandle::join`] and leaves `primary` open.
fn spawn_worker<O, B>(name: String, primary: FeedbackQueue<O>, body: B) -> StageHandle
where
    O: Send + 'static,
    B: FnOnce(&str, &Meters) + Send + 'static,
{
    let meters = Meters::default();
    let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let (m2, f2, sname) = (meters.clone(), Arc::clone(&failure), name.clone());
    let join = thread::Builder::new()
        .name(name.clone())
        .spawn(
            move || match catch_unwind(AssertUnwindSafe(|| body(&sname, &m2))) {
                Ok(()) => primary.close(),
                Err(payload) => {
                    *f2.lock().unwrap_or_else(|e| e.into_inner()) = Some(panic_message(payload));
                }
            },
        )
        .expect("spawn stage thread");
    StageHandle {
        name,
        meters,
        failure,
        join,
    }
}

impl StageHandle {
    /// Frames processed so far.
    pub fn processed(&self) -> u64 {
        self.meters.processed.load(Ordering::Relaxed)
    }

    /// Wall time the stage has spent *inside its filter function* (compute,
    /// as opposed to waiting on queues), in seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.meters.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The stage's progress heartbeat: bumped once per frame the worker
    /// finishes. A watchdog polls this cell to detect stalls (no progress
    /// within a deadline while input is queued).
    pub fn progress_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.meters.progress)
    }

    /// Wait for the stage to finish. `Ok(frames processed)` on a clean exit
    /// (input closed and drained); `Err(StageFailure)` if the worker body
    /// panicked — the panic is contained, never re-thrown here.
    pub fn join(self) -> Result<u64, StageFailure> {
        self.join_with_stats().map(|(n, _)| n)
    }

    /// Join, returning `(frames processed, busy seconds)` or the failure.
    pub fn join_with_stats(self) -> Result<(u64, f64), StageFailure> {
        // The worker catches its own unwinds, so this join only fails if the
        // catch itself was bypassed (e.g. panic=abort would never get here).
        let joined = self.join.join();
        let n = self.meters.processed.load(Ordering::Relaxed);
        let busy = self.meters.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let stored = self
            .failure
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let message = match (stored, joined) {
            (Some(msg), _) => msg,
            (None, Err(payload)) => panic_message(payload),
            (None, Ok(())) => return Ok((n, busy)),
        };
        Err(StageFailure {
            stage: self.name,
            message,
            processed: n,
            busy_s: busy,
        })
    }
}

/// Disposal hooks and fault state for a fault-aware stage.
///
/// The worker consults `inj` per frame (keyed by the frame's sequence
/// number) and must dispose every frame it cannot forward: quarantined
/// frames (accounted `frames_quarantined`, handed to `on_quarantine` for
/// latency recording *before* the worker panics) and lost pushes (accounted
/// `frames_dropped`, handed to `on_lost`).
pub struct StageFaultCtx<I, O> {
    pub inj: FaultInjector,
    pub seq_in: Box<dyn Fn(&I) -> u64 + Send>,
    pub seq_out: Box<dyn Fn(&O) -> u64 + Send>,
    pub on_quarantine: Box<dyn FnMut(I) + Send>,
    pub on_lost: Box<dyn FnMut(O) + Send>,
}

impl<I, O> StageFaultCtx<I, O> {
    /// A context that never fires — used by the plain spawn and plain slots.
    pub fn noop() -> Self {
        StageFaultCtx {
            inj: FaultInjector::noop(),
            seq_in: Box::new(|_| 0),
            seq_out: Box::new(|_| 0),
            on_quarantine: Box::new(|_| {}),
            on_lost: Box::new(|_| {}),
        }
    }

    /// Consult the injector for `item`, about to be processed. A stall fires
    /// inline (sleep, then proceed — the heartbeat freezes, which the
    /// watchdog sees); `Some(seq)` means the stage must die at this frame.
    pub(crate) fn panic_seq(&self, item: &I) -> Option<u64> {
        let seq = (self.seq_in)(item);
        match self.inj.check(seq) {
            FaultAction::Panic => Some(seq),
            FaultAction::Stall(us) => {
                thread::sleep(Duration::from_micros(us));
                None
            }
            FaultAction::Proceed => None,
        }
    }

    /// Dispose a frame its stage will not process.
    pub(crate) fn quarantine(&mut self, tel: &StageTelemetry, item: I) {
        tel.frames_quarantined.inc();
        (self.on_quarantine)(item);
    }

    /// `out` passed its stage: hand it back for forwarding, unless the
    /// injector loses this push — then it is disposed through `on_lost`.
    pub(crate) fn survives_push(&mut self, out: O) -> Option<O> {
        if self.inj.fail_push((self.seq_out)(&out)) {
            (self.on_lost)(out);
            None
        } else {
            Some(out)
        }
    }
}

/// Die as stage `stage` at frame `seq`: the one payload an injected panic
/// carries, whichever executor contains it.
pub(crate) fn injected_panic(stage: &str, seq: u64) -> ! {
    std::panic::panic_any(format!(
        "{INJECTED_PANIC}: stage `{stage}` at frame seq {seq}"
    ))
}

/// One item through a filter stage, in the order every executor keeps:
/// fault check → accounting → work → forward. Returns `false` once
/// `forward` reports the downstream closed.
///
/// Per item the injector decides: `Proceed` (normal), `Stall(us)` (sleep,
/// then process normally), or `Panic` (the frame is accounted
/// `frames_quarantined`, disposed through `on_quarantine`, and the step
/// unwinds — as a panic inside `f` does — into the caller's `catch_unwind`).
/// A passing frame the injector marks `fail_push` is accounted
/// `frames_dropped` and disposed through `on_lost` instead of being
/// forwarded.
pub(crate) fn filter_step<I, O>(
    stage: &str,
    item: I,
    tel: &StageTelemetry,
    ctx: &mut StageFaultCtx<I, O>,
    m: &Meters,
    f: impl FnOnce(I) -> Option<O>,
    forward: impl FnOnce(O) -> Result<(), O>,
) -> bool {
    if let Some(seq) = ctx.panic_seq(&item) {
        ctx.quarantine(tel, item);
        injected_panic(stage, seq);
    }
    m.processed.fetch_add(1, Ordering::Relaxed);
    tel.frames_in.inc();
    let t0 = Instant::now();
    let result = f(item);
    m.busy_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let mut open = true;
    match result.and_then(|out| ctx.survives_push(out)) {
        Some(out) => {
            tel.frames_out.inc();
            open = forward(out).is_ok();
        }
        None => tel.frames_dropped.inc(),
    }
    m.progress.fetch_add(1, Ordering::Relaxed);
    open
}

/// Spawn a 1-in/1-out filter stage: pops items until the input closes, maps
/// them through `f`, and forwards `Some` results. When the stage exits
/// cleanly it closes its output so downstream stages drain and stop.
pub fn spawn_filter_stage<I, O, F>(
    name: impl Into<String>,
    input: FeedbackQueue<I>,
    output: FeedbackQueue<O>,
    f: F,
) -> StageHandle
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(I) -> Option<O> + Send + 'static,
{
    spawn_filter_stage_faulted(
        name,
        input,
        output,
        StageTelemetry::noop(),
        StageFaultCtx::noop(),
        f,
    )
}

/// [`spawn_filter_stage`] with per-stage frame accounting — every popped
/// item counts as `frames_in`, a `Some` result as `frames_out`, a `None` as
/// `frames_dropped` — plus deterministic fault injection ([`filter_step`]).
/// A panic, injected or real, ends the thread *without* closing its output.
pub fn spawn_filter_stage_faulted<I, O, F>(
    name: impl Into<String>,
    input: FeedbackQueue<I>,
    output: FeedbackQueue<O>,
    tel: StageTelemetry,
    mut ctx: StageFaultCtx<I, O>,
    mut f: F,
) -> StageHandle
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(I) -> Option<O> + Send + 'static,
{
    spawn_worker(name.into(), output.clone(), move |stage, m| {
        while let Some(item) = input.pop() {
            if !filter_step(stage, item, &tel, &mut ctx, m, &mut f, |out| {
                output.push(out)
            }) {
                break; // downstream closed
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultStage, StageFault};

    #[test]
    fn filter_stage_maps_and_filters() {
        let input = FeedbackQueue::new(8);
        let output = FeedbackQueue::new(8);
        let h = spawn_filter_stage("double-evens", input.clone(), output.clone(), |x: i32| {
            if x % 2 == 0 {
                Some(x * 2)
            } else {
                None
            }
        });
        for i in 0..10 {
            input.push(i).unwrap();
        }
        input.close();
        let mut got = Vec::new();
        while let Some(v) = output.pop() {
            got.push(v);
        }
        assert_eq!(h.join().unwrap(), 10);
        assert_eq!(got, vec![0, 4, 8, 12, 16]);
    }

    #[test]
    fn stages_account_in_out_dropped() {
        use ffsva_telemetry::Telemetry;

        let tel = Telemetry::new();
        let input = FeedbackQueue::new(16);
        let mid = FeedbackQueue::new(16);
        let output = FeedbackQueue::new(64);
        let h1 = spawn_filter_stage_faulted(
            "evens",
            input.clone(),
            mid.clone(),
            StageTelemetry::register(&tel, "stream0.sdd"),
            StageFaultCtx::noop(),
            |x: i32| if x % 2 == 0 { Some(x) } else { None },
        );
        let h2 = spawn_filter_stage_faulted(
            "gt4",
            mid,
            output.clone(),
            StageTelemetry::register(&tel, "stream0.snm"),
            StageFaultCtx::noop(),
            |x: i32| if x > 4 { Some(x) } else { None },
        );
        for i in 0..10 {
            input.push(i).unwrap();
        }
        input.close();
        let mut survivors = Vec::new();
        while let Some(v) = output.pop() {
            survivors.push(v);
        }
        h1.join().unwrap();
        h2.join().unwrap();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![6, 8]);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("stream0.sdd.frames_in"), 10);
        assert_eq!(snap.counter("stream0.sdd.frames_out"), 5);
        assert_eq!(snap.counter("stream0.sdd.frames_dropped"), 5);
        assert_eq!(snap.counter("stream0.snm.frames_in"), 5);
        assert_eq!(snap.counter("stream0.snm.frames_out"), 2);
        assert_eq!(snap.counter("stream0.snm.frames_dropped"), 3);
        assert_eq!(snap.counter("stream0.sdd.frames_quarantined"), 0);
    }

    #[test]
    fn stage_busy_time_tracks_compute_not_waiting() {
        let input = FeedbackQueue::new(8);
        let output = FeedbackQueue::new(8);
        let h = spawn_filter_stage("sleepy", input.clone(), output.clone(), |x: i32| {
            std::thread::sleep(Duration::from_millis(5));
            Some(x)
        });
        for i in 0..4 {
            input.push(i).unwrap();
        }
        // stall the producer for a while so waiting time accrues
        std::thread::sleep(Duration::from_millis(80));
        input.close();
        while output.pop().is_some() {}
        let (n, busy) = h.join_with_stats().unwrap();
        assert_eq!(n, 4);
        // ~20ms of compute, definitely less than the 80ms+ of wall time
        assert!(busy >= 0.015, "busy {}", busy);
        assert!(busy < 0.06, "busy {} should exclude waiting", busy);
    }

    #[test]
    fn chained_stages_propagate_close() {
        let a = FeedbackQueue::new(4);
        let b = FeedbackQueue::new(4);
        let c = FeedbackQueue::new(4);
        let h1 = spawn_filter_stage("inc", a.clone(), b.clone(), |x: i32| Some(x + 1));
        let h2 = spawn_filter_stage("neg", b, c.clone(), |x: i32| Some(-x));
        // Produce from a separate thread: with bounded queues, a single
        // thread that produces then consumes would deadlock on backpressure.
        let producer = std::thread::spawn(move || {
            for i in 0..50 {
                a.push(i).unwrap();
            }
            a.close();
        });
        let mut got = Vec::new();
        while let Some(v) = c.pop() {
            got.push(v);
        }
        producer.join().unwrap();
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(got.len(), 50);
        assert_eq!(got[0], -1);
        assert_eq!(got[49], -50);
    }

    #[test]
    fn panicking_filter_is_contained_and_reported() {
        let input: FeedbackQueue<i32> = FeedbackQueue::new(8);
        let output: FeedbackQueue<i32> = FeedbackQueue::new(8);
        let h = spawn_filter_stage("bomb", input.clone(), output.clone(), |x: i32| {
            if x == 3 {
                panic!("boom on {x}");
            }
            Some(x)
        });
        for i in 0..6 {
            input.push(i).unwrap();
        }
        input.close();
        // give the worker time to reach the bomb
        std::thread::sleep(Duration::from_millis(50));
        let failure = h.join().expect_err("stage must report its panic");
        assert_eq!(failure.stage, "bomb");
        assert!(failure.message.contains("boom on 3"), "{}", failure.message);
        assert_eq!(failure.processed, 4, "frames 0..=3 were picked up");
        // the output was NOT closed: in-flight frames survive for a restart
        assert!(!output.is_closed());
        assert_eq!(output.try_pop_up_to(usize::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn injected_panic_quarantines_the_faulting_frame() {
        use ffsva_telemetry::Telemetry;

        let tel = Telemetry::new();
        let plan = FaultPlan::new().with(0, FaultStage::Sdd, StageFault::PanicAtFrame(4));
        let input: FeedbackQueue<u64> = FeedbackQueue::new(16);
        let output: FeedbackQueue<u64> = FeedbackQueue::new(16);
        let quarantined = Arc::new(Mutex::new(Vec::new()));
        let q2 = Arc::clone(&quarantined);
        let ctx = StageFaultCtx {
            inj: plan.injector(0, FaultStage::Sdd),
            seq_in: Box::new(|x: &u64| *x),
            seq_out: Box::new(|x: &u64| *x),
            on_quarantine: Box::new(move |x| q2.lock().unwrap().push(x)),
            on_lost: Box::new(|_| {}),
        };
        let h = spawn_filter_stage_faulted(
            "sdd",
            input.clone(),
            output.clone(),
            StageTelemetry::register(&tel, "stream0.sdd"),
            ctx,
            Some,
        );
        for i in 0..8u64 {
            input.push(i).unwrap();
        }
        input.close();
        std::thread::sleep(Duration::from_millis(50));
        let failure = h.join().expect_err("injected panic");
        assert!(failure.message.contains(INJECTED_PANIC));
        let snap = tel.snapshot();
        assert_eq!(snap.counter("stream0.sdd.frames_in"), 4, "frames 0..4");
        assert_eq!(snap.counter("stream0.sdd.frames_quarantined"), 1);
        assert_eq!(*quarantined.lock().unwrap(), vec![4]);
        // frames 5..8 still sit in the input for a restarted incarnation
        assert_eq!(input.len(), 3);
    }

    #[test]
    fn fail_push_fault_drops_exactly_one_passing_frame() {
        use ffsva_telemetry::Telemetry;

        let tel = Telemetry::new();
        let plan =
            FaultPlan::new().with(0, FaultStage::Snm, StageFault::FailNextPush { at_frame: 2 });
        let input: FeedbackQueue<u64> = FeedbackQueue::new(16);
        let output: FeedbackQueue<u64> = FeedbackQueue::new(16);
        let lost = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&lost);
        let ctx = StageFaultCtx {
            inj: plan.injector(0, FaultStage::Snm),
            seq_in: Box::new(|x: &u64| *x),
            seq_out: Box::new(|x: &u64| *x),
            on_quarantine: Box::new(|_| {}),
            on_lost: Box::new(move |x| l2.lock().unwrap().push(x)),
        };
        let h = spawn_filter_stage_faulted(
            "snm",
            input.clone(),
            output.clone(),
            StageTelemetry::register(&tel, "stream0.snm"),
            ctx,
            Some,
        );
        for i in 0..6u64 {
            input.push(i).unwrap();
        }
        input.close();
        let mut got = Vec::new();
        while let Some(v) = output.pop() {
            got.push(v);
        }
        h.join().unwrap();
        assert_eq!(got, vec![0, 1, 3, 4, 5], "seq 2 was lost in the push");
        assert_eq!(*lost.lock().unwrap(), vec![2]);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("stream0.snm.frames_in"), 6);
        assert_eq!(snap.counter("stream0.snm.frames_out"), 5);
        assert_eq!(snap.counter("stream0.snm.frames_dropped"), 1);
    }
}

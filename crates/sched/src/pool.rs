//! Sharded stage-worker pools: N workers per stage serving hundreds of
//! per-stream slots, instead of one OS thread per stream per stage.
//!
//! The RT engine's original layout (one SDD thread + one SNM thread + two
//! supervisor monitors per stream) caps an instance at tens of streams
//! before thread count, stack memory, and scheduler churn dominate. A
//! [`StagePool`] hosts one *stage* (SDD or SNM) for every stream on a fixed
//! worker count: each stream contributes a [`PoolSlot`] — its input queue,
//! output queues, telemetry, fault injector, and work closure — and workers
//! cooperatively execute slot quanta.
//!
//! # FIFO-by-shard invariant
//!
//! Every slot is guarded by a mutex and a worker claims it with `try_lock`,
//! so **at most one worker executes a given stream's stage at any instant**
//! and items leave a slot's input queue in arrival order — per-stream FIFO
//! is preserved by construction, which is what keeps pooled survivor sets
//! bit-identical to the per-stream-thread engine. A slot's *home* worker is
//! `stream % workers`; workers visit their home shard first and only visit
//! foreign slots (work stealing, counted in `steal_count`) when their own
//! shard had nothing runnable.
//!
//! # Supervision semantics
//!
//! The pool replicates [`supervise`](crate::supervisor::supervise) exactly,
//! per stream, without dedicating threads to it:
//!
//! * an injected panic quarantines the faulting frame (and, for batch slots,
//!   everything already popped behind it) through the slot's
//!   [`StageFaultCtx`] hooks, then *fails the slot* — never the worker;
//! * a failed slot backs off exponentially (`backoff * 2^restarts`) by
//!   carrying a deadline instead of sleeping, so shard siblings keep
//!   flowing while one stream restarts;
//! * once the restart budget is exhausted the slot gives up: its primary
//!   output closes and the slot switches to a *draining* mode that
//!   quarantine-disposes everything still arriving on its input — the
//!   non-blocking equivalent of the engine's give-up drain hook.
//!
//! Restart/give-up/backoff accounting lands on the same
//! [`SupervisorTelemetry`] series the threaded supervisor feeds, so a
//! pooled run's `rt.supervisor.*` counters match the per-stream-thread
//! run's.

use crate::batch::BatchPolicy;
use crate::fault::FaultAction;
use crate::queue::FeedbackQueue;
use crate::rt::{StageFailure, StageFaultCtx};
use crate::supervisor::StageOutcome;
use ffsva_telemetry::{PoolTelemetry, StageTelemetry, SupervisorTelemetry};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Items a filter (non-batch) slot processes per visit before yielding the
/// slot back to the shard, bounding how long one stream can monopolize a
/// worker.
const FILTER_BURST: usize = 32;

/// Batches a batch slot forms per visit before yielding.
const BATCH_BURST: usize = 4;

/// Queue items a draining (gave-up) slot disposes per visit.
const DRAIN_BURST: usize = 64;

/// Idle sleep when a worker's full sweep found no runnable slot.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Restart policy for every slot in a pool, mirroring
/// [`SupervisorPolicy`](crate::supervisor::SupervisorPolicy).
#[derive(Debug, Clone, Copy)]
pub struct PoolPolicy {
    /// Worker threads serving the pool (clamped to at least 1).
    pub workers: usize,
    /// Restarts before a failing slot's stream is quarantined.
    pub restart_budget: u32,
    /// Backoff before the first restart; doubles per subsequent restart.
    pub backoff: Duration,
}

/// One stream's share of a stage pool: its queues, accounting, fault
/// context, and the work closure workers execute on its behalf.
///
/// `batch: None` gives filter semantics (`work` is called with exactly one
/// item per quantum); `batch: Some(policy)` gives batch semantics (`work`
/// receives whole batches formed per the policy, flushed when the input
/// closes). On clean exit or give-up only `outputs[0]` (the primary
/// downstream) is closed; alternate routes are owned elsewhere — the same
/// contract as the threaded stage spawns.
pub struct PoolSlot<I, O, C> {
    /// Stream id; determines the slot's home shard (`stream % workers`).
    pub stream: usize,
    pub input: FeedbackQueue<I>,
    pub outputs: Vec<FeedbackQueue<O>>,
    /// Picks, per forwarded item, which queue in `outputs` receives it.
    pub route: Box<dyn FnMut(&O) -> usize + Send>,
    /// `Some` for batch-forming slots, `None` for 1-in/≤1-out filters.
    pub batch: Option<BatchPolicy>,
    pub tel: StageTelemetry,
    pub sup_tel: SupervisorTelemetry,
    pub ctx: StageFaultCtx<I, O>,
    /// The stage computation. Receives the quantum's items plus the
    /// *worker-owned* scratch context `C`, so the zero-alloc steady state
    /// survives pooling (one scratch per worker, not per stream).
    #[allow(clippy::type_complexity)]
    pub work: Box<dyn FnMut(Vec<I>, &mut C) -> Vec<O> + Send>,
}

/// Execution mode of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Healthy (possibly between restarts): workers run its quanta.
    Running,
    /// Gave up: workers quarantine-drain its input until closed and empty.
    Draining,
    /// Input closed and fully disposed; nothing left to do.
    Done,
}

struct SlotState<I, O, C> {
    slot: PoolSlot<I, O, C>,
    /// Popped-but-unbatched items (batch slots only). Quarantined wholesale
    /// when an injected panic fires, exactly like the threaded batch stage's
    /// local buffer.
    buf: Vec<I>,
    /// The input was observed closed and empty; no more items can arrive.
    closed: bool,
    mode: Mode,
    processed: u64,
    restarts: u32,
    /// The failure that exhausted the restart budget: set exactly when the
    /// slot gave up.
    failure: Option<StageFailure>,
    /// A failed slot may not run again before this instant (the pool's
    /// non-blocking equivalent of the supervisor's backoff sleep).
    backoff_until: Option<Instant>,
}

struct PoolShared<I, O, C> {
    name: String,
    policy: PoolPolicy,
    slots: Vec<Mutex<SlotState<I, O, C>>>,
    /// Home shard per slot index (`stream % workers`), precomputed.
    homes: Vec<usize>,
    /// Input-queue handles for depth sampling without taking slot locks.
    depth_probes: Vec<FeedbackQueue<I>>,
    done: AtomicUsize,
    busy_ns: AtomicU64,
    tel: PoolTelemetry,
}

/// Handle to a running stage pool. [`StagePool::join`] blocks until every
/// slot is done and returns the per-stream outcomes in slot order — the same
/// [`StageOutcome`] a threaded supervisor reports.
pub struct StagePool<I, O, C> {
    shared: Arc<PoolShared<I, O, C>>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

/// Spawn a sharded worker pool over `slots`. `contexts` supplies one
/// worker-owned scratch context per worker and must have length
/// `policy.workers.max(1)`.
pub fn spawn_stage_pool<I, O, C>(
    name: impl Into<String>,
    policy: PoolPolicy,
    slots: Vec<PoolSlot<I, O, C>>,
    contexts: Vec<C>,
    tel: PoolTelemetry,
) -> StagePool<I, O, C>
where
    I: Send + 'static,
    O: Send + 'static,
    C: Send + 'static,
{
    let workers = policy.workers.max(1);
    assert_eq!(
        contexts.len(),
        workers,
        "need exactly one scratch context per worker"
    );
    let name = name.into();
    let homes: Vec<usize> = slots.iter().map(|s| s.stream % workers).collect();
    let depth_probes: Vec<FeedbackQueue<I>> = slots.iter().map(|s| s.input.clone()).collect();
    let slots: Vec<Mutex<SlotState<I, O, C>>> = slots
        .into_iter()
        .map(|slot| {
            Mutex::new(SlotState {
                slot,
                buf: Vec::new(),
                closed: false,
                mode: Mode::Running,
                processed: 0,
                restarts: 0,
                failure: None,
                backoff_until: None,
            })
        })
        .collect();
    let shared = Arc::new(PoolShared {
        name: name.clone(),
        policy,
        slots,
        homes,
        depth_probes,
        done: AtomicUsize::new(0),
        busy_ns: AtomicU64::new(0),
        tel,
    });
    let handles = contexts
        .into_iter()
        .enumerate()
        .map(|(w, cx)| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("{}-w{}", name, w))
                .spawn(move || worker_loop(w, shared, cx))
                .expect("spawn pool worker")
        })
        .collect();
    StagePool {
        shared,
        workers: handles,
        started: Instant::now(),
    }
}

impl<I, O, C> StagePool<I, O, C> {
    /// Wait for every slot to finish (clean or drained-after-give-up) and
    /// return the per-stream outcomes in slot order. Also publishes the
    /// pool's final `worker_busy_pct` gauge.
    pub fn join(self) -> Vec<StageOutcome> {
        for h in self.workers {
            h.join().expect("pool worker thread");
        }
        let wall_ns = self.started.elapsed().as_nanos().max(1) as u64;
        let busy = self.shared.busy_ns.load(Ordering::Relaxed);
        let workers = self.shared.policy.workers.max(1) as u64;
        let pct = (busy.saturating_mul(100) / wall_ns.saturating_mul(workers)).min(100);
        self.shared.tel.worker_busy_pct.set(pct);
        self.shared.tel.queue_depth.set(0);
        self.shared
            .slots
            .iter()
            .map(|m| {
                let st = m.lock();
                let (processed, restarts) = (st.processed, st.restarts);
                match st.failure.clone() {
                    Some(failure) => StageOutcome::GaveUp {
                        failure,
                        processed,
                        restarts,
                    },
                    None => StageOutcome::Completed {
                        processed,
                        restarts,
                    },
                }
            })
            .collect()
    }
}

fn worker_loop<I, O, C>(w: usize, shared: Arc<PoolShared<I, O, C>>, mut cx: C)
where
    I: Send,
    O: Send,
{
    let n = shared.slots.len();
    let mut rounds = 0u64;
    while shared.done.load(Ordering::Acquire) < n {
        let mut worked = false;
        // Home shard first: slots this worker owns by stream id.
        for idx in 0..n {
            if shared.homes[idx] == w {
                worked |= visit(&shared, idx, w, &mut cx);
            }
        }
        // Steal only when the home shard had nothing runnable, so foreign
        // visits stay the exception and cache locality the rule.
        if !worked {
            for idx in 0..n {
                if shared.homes[idx] != w {
                    worked |= visit(&shared, idx, w, &mut cx);
                }
            }
        }
        if w == 0 && rounds % 16 == 0 {
            let depth: usize = shared.depth_probes.iter().map(|q| q.len()).sum();
            shared.tel.queue_depth.set(depth as u64);
        }
        rounds += 1;
        if !worked {
            thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Try to run one quantum of slot `idx` on worker `w`. Returns whether any
/// work (processing or drain disposal) happened.
fn visit<I, O, C>(shared: &PoolShared<I, O, C>, idx: usize, w: usize, cx: &mut C) -> bool
where
    I: Send,
    O: Send,
{
    // Exclusive slot ownership for the duration of the quantum is the FIFO
    // guarantee: contended slots are simply skipped this round.
    let Some(mut st) = shared.slots[idx].try_lock() else {
        return false;
    };
    if st.mode == Mode::Done {
        return false;
    }
    if let Some(t) = st.backoff_until {
        if Instant::now() < t {
            return false;
        }
        st.backoff_until = None;
    }
    let worked = match st.mode {
        Mode::Running => {
            if st.slot.batch.is_some() {
                run_batch_quantum(shared, &mut st, cx)
            } else {
                run_filter_quantum(shared, &mut st, cx)
            }
        }
        Mode::Draining => run_drain_quantum(shared, &mut st),
        Mode::Done => false,
    };
    if worked && shared.homes[idx] != w {
        shared.tel.steal_count.inc();
    }
    worked
}

/// Mark the slot finished and close its primary output (idempotent), the
/// same contract as a threaded stage's clean exit.
fn finish_clean<I, O, C>(shared: &PoolShared<I, O, C>, st: &mut SlotState<I, O, C>) {
    st.slot.outputs[0].close();
    st.mode = Mode::Done;
    shared.done.fetch_add(1, Ordering::Release);
}

/// Handle an incarnation death: restart with backoff while budget remains,
/// otherwise give up — close the primary downstream and switch to draining.
/// Mirrors `supervise`'s accounting exactly.
fn fail<I, O, C>(shared: &PoolShared<I, O, C>, st: &mut SlotState<I, O, C>, message: String) {
    let policy = shared.policy;
    if st.restarts >= policy.restart_budget {
        st.slot.sup_tel.give_ups.inc();
        st.failure = Some(StageFailure {
            stage: format!("{}-{}", shared.name, st.slot.stream),
            message,
            processed: st.processed,
            busy_s: 0.0,
        });
        st.slot.outputs[0].close();
        st.mode = Mode::Draining;
    } else {
        let backoff = policy
            .backoff
            .saturating_mul(2u32.saturating_pow(st.restarts));
        st.restarts += 1;
        st.slot.sup_tel.restarts.inc();
        st.slot.sup_tel.backoff_ms.add(backoff.as_millis() as u64);
        st.backoff_until = Some(Instant::now() + backoff);
    }
}

/// Quarantine-drain a gave-up slot's input: the non-blocking equivalent of
/// the engine's give-up hook, spread over visits until the producer closes
/// the queue.
fn run_drain_quantum<I, O, C>(shared: &PoolShared<I, O, C>, st: &mut SlotState<I, O, C>) -> bool {
    let mut worked = false;
    for item in st.buf.drain(..) {
        st.slot.tel.frames_quarantined.inc();
        (st.slot.ctx.on_quarantine)(item);
        worked = true;
    }
    let drained = st.slot.input.try_pop_up_to(DRAIN_BURST);
    for item in drained {
        st.slot.tel.frames_quarantined.inc();
        (st.slot.ctx.on_quarantine)(item);
        worked = true;
    }
    if st.slot.input.is_closed() && st.slot.input.is_empty() {
        st.mode = Mode::Done;
        shared.done.fetch_add(1, Ordering::Release);
    }
    worked
}

/// One filter quantum: up to [`FILTER_BURST`] items popped and processed
/// one at a time, replicating `spawn_filter_stage_faulted`'s per-item
/// order of operations (fault check → accounting → work → forward).
fn run_filter_quantum<I, O, C>(
    shared: &PoolShared<I, O, C>,
    st: &mut SlotState<I, O, C>,
    cx: &mut C,
) -> bool {
    let mut worked = false;
    for _ in 0..FILTER_BURST {
        let Some(item) = st.slot.input.try_pop_up_to(1).pop() else {
            if st.slot.input.is_closed() && st.slot.input.is_empty() {
                finish_clean(shared, st);
            }
            return worked;
        };
        worked = true;
        let seq = (st.slot.ctx.seq_in)(&item);
        match st.slot.ctx.inj.check(seq) {
            FaultAction::Panic => {
                st.slot.tel.frames_quarantined.inc();
                (st.slot.ctx.on_quarantine)(item);
                fail(
                    shared,
                    st,
                    injected_message(&shared.name, st.slot.stream, seq),
                );
                return worked;
            }
            FaultAction::Stall(us) => thread::sleep(Duration::from_micros(us)),
            FaultAction::Proceed => {}
        }
        st.processed += 1;
        st.slot.tel.frames_in.inc();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| (st.slot.work)(vec![item], cx)));
        shared
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut outs = match result {
            Ok(outs) => outs,
            Err(payload) => {
                // A genuine work panic loses the in-flight item with the
                // incarnation, exactly like the threaded stage.
                fail(shared, st, crate::rt::panic_message(payload));
                return worked;
            }
        };
        match outs.pop() {
            Some(out) => {
                if st.slot.ctx.inj.fail_push((st.slot.ctx.seq_out)(&out)) {
                    st.slot.tel.frames_dropped.inc();
                    (st.slot.ctx.on_lost)(out);
                } else {
                    st.slot.tel.frames_out.inc();
                    let dst = (st.slot.route)(&out).min(st.slot.outputs.len() - 1);
                    if st.slot.outputs[dst].push(out).is_err() {
                        // downstream closed: clean exit, like the thread's break
                        finish_clean(shared, st);
                        return worked;
                    }
                }
            }
            None => st.slot.tel.frames_dropped.inc(),
        }
    }
    worked
}

/// One batch quantum: form and process up to [`BATCH_BURST`] batches,
/// replicating `spawn_batch_stage_faulted`'s fault-boundary semantics —
/// the pre-fault prefix is processed as a smaller batch, then the faulting
/// frame and everything popped behind it is quarantined before the slot
/// fails. Because slots are per-stream FIFO, the frame sets on each side of
/// the boundary are independent of batch shape.
fn run_batch_quantum<I, O, C>(
    shared: &PoolShared<I, O, C>,
    st: &mut SlotState<I, O, C>,
    cx: &mut C,
) -> bool {
    let policy = st.slot.batch.expect("batch quantum requires a policy");
    let capacity = st.slot.input.capacity();
    let chunk = policy.size().max(1);
    let mut worked = false;
    for _ in 0..BATCH_BURST {
        // Decide how many items this batch needs (non-blocking top-up).
        let want = loop {
            if st.closed {
                break st.buf.len(); // flush whatever remains
            }
            if let Some(take) = policy.take(st.buf.len(), capacity) {
                break take;
            }
            let got = st.slot.input.try_pop_up_to(chunk);
            if got.is_empty() {
                if st.slot.input.is_closed() && st.slot.input.is_empty() {
                    st.closed = true;
                    continue;
                }
                // Nothing available now; revisit later.
                return worked;
            }
            st.buf.extend(got);
        };
        if want == 0 {
            if st.closed && st.buf.is_empty() {
                finish_clean(shared, st);
            }
            return worked;
        }
        let take = want.min(st.buf.len());
        let mut batch: Vec<I> = st.buf.drain(..take).collect();
        if batch.is_empty() {
            if st.closed {
                finish_clean(shared, st);
            }
            return worked;
        }
        worked = true;
        // Scan for the first panic fault; stalls fire inline.
        let mut panic_idx: Option<(usize, u64)> = None;
        for (i, item) in batch.iter().enumerate() {
            let seq = (st.slot.ctx.seq_in)(item);
            match st.slot.ctx.inj.check(seq) {
                FaultAction::Panic => {
                    panic_idx = Some((i, seq));
                    break;
                }
                FaultAction::Stall(us) => thread::sleep(Duration::from_micros(us)),
                FaultAction::Proceed => {}
            }
        }
        let doomed: Vec<I> = match panic_idx {
            Some((i, _)) => batch.split_off(i),
            None => Vec::new(),
        };
        if !batch.is_empty() {
            let n_in = batch.len() as u64;
            st.processed += n_in;
            st.slot.tel.frames_in.add(n_in);
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                (st.slot.work)(std::mem::take(&mut batch), cx)
            }));
            shared
                .busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let outs = match result {
                Ok(outs) => outs,
                Err(payload) => {
                    // The in-flight batch dies with the incarnation (as in
                    // the threaded stage); buffered items stay for the next
                    // incarnation.
                    fail(shared, st, crate::rt::panic_message(payload));
                    return worked;
                }
            };
            let mut forwarded = 0u64;
            for out in outs {
                if st.slot.ctx.inj.fail_push((st.slot.ctx.seq_out)(&out)) {
                    (st.slot.ctx.on_lost)(out);
                } else {
                    let dst = (st.slot.route)(&out).min(st.slot.outputs.len() - 1);
                    if st.slot.outputs[dst].push(out).is_err() {
                        finish_clean(shared, st);
                        return worked;
                    }
                    forwarded += 1;
                }
            }
            st.slot.tel.frames_out.add(forwarded);
            st.slot.tel.frames_dropped.add(n_in - forwarded);
        }
        if let Some((_, seq)) = panic_idx {
            // Quarantine everything already popped past the fault boundary,
            // then fail the slot; the input queue itself stays intact for
            // the drain mode if the budget is exhausted.
            let nq = (doomed.len() + st.buf.len()) as u64;
            st.slot.tel.frames_quarantined.add(nq);
            for it in doomed {
                (st.slot.ctx.on_quarantine)(it);
            }
            let buffered: Vec<I> = st.buf.drain(..).collect();
            for it in buffered {
                (st.slot.ctx.on_quarantine)(it);
            }
            fail(
                shared,
                st,
                injected_message(&shared.name, st.slot.stream, seq),
            );
            return worked;
        }
        if st.closed && st.buf.is_empty() && st.slot.input.is_empty() {
            finish_clean(shared, st);
            return worked;
        }
    }
    worked
}

/// Same payload `injected_panic` produces in the threaded stages, so panic
/// message assertions hold identically under pooling.
fn injected_message(pool: &str, stream: usize, seq: u64) -> String {
    format!(
        "{}: stage `{}-{}` at frame seq {}",
        crate::fault::INJECTED_PANIC,
        pool,
        stream,
        seq
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan, FaultStage, StageFault};
    use ffsva_telemetry::Telemetry;
    use std::sync::Mutex as StdMutex;

    fn noop_ctx<I, O>() -> StageFaultCtx<I, O> {
        StageFaultCtx::noop()
    }

    fn filter_slot(
        stream: usize,
        input: FeedbackQueue<u64>,
        output: FeedbackQueue<u64>,
        tel: StageTelemetry,
        f: impl FnMut(u64) -> Option<u64> + Send + 'static,
    ) -> PoolSlot<u64, u64, ()> {
        let mut f = f;
        PoolSlot {
            stream,
            input,
            outputs: vec![output],
            route: Box::new(|_| 0),
            batch: None,
            tel,
            sup_tel: SupervisorTelemetry::noop(),
            ctx: noop_ctx(),
            work: Box::new(move |mut items, _cx| {
                let item = items.pop().expect("one item per filter quantum");
                f(item).into_iter().collect()
            }),
        }
    }

    fn policy(workers: usize) -> PoolPolicy {
        PoolPolicy {
            workers,
            restart_budget: 2,
            backoff: Duration::from_millis(1),
        }
    }

    #[test]
    fn pool_runs_many_streams_on_few_workers_preserving_fifo() {
        for workers in [1usize, 2, 8] {
            let n_streams = 12;
            let inputs: Vec<FeedbackQueue<u64>> =
                (0..n_streams).map(|_| FeedbackQueue::new(4)).collect();
            let outputs: Vec<FeedbackQueue<u64>> =
                (0..n_streams).map(|_| FeedbackQueue::new(1024)).collect();
            let slots: Vec<PoolSlot<u64, u64, ()>> = (0..n_streams)
                .map(|s| {
                    filter_slot(
                        s,
                        inputs[s].clone(),
                        outputs[s].clone(),
                        StageTelemetry::noop(),
                        |x| if x % 2 == 0 { Some(x) } else { None },
                    )
                })
                .collect();
            let contexts = vec![(); workers];
            let pool = spawn_stage_pool(
                "evens",
                policy(workers),
                slots,
                contexts,
                PoolTelemetry::noop(),
            );
            let producers: Vec<_> = inputs
                .iter()
                .cloned()
                .map(|q| {
                    std::thread::spawn(move || {
                        for i in 0..200u64 {
                            q.push(i).unwrap();
                        }
                        q.close();
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            let outcomes = pool.join();
            assert_eq!(outcomes.len(), n_streams);
            for o in &outcomes {
                assert_eq!(o.processed(), 200);
                assert!(!o.gave_up());
            }
            for out in &outputs {
                let got = out.try_pop_up_to(usize::MAX);
                let want: Vec<u64> = (0..200).filter(|x| x % 2 == 0).collect();
                assert_eq!(got, want, "per-stream FIFO at {} workers", workers);
                assert!(out.is_closed());
            }
        }
    }

    #[test]
    fn batch_slot_forms_batches_and_flushes_on_close() {
        let input: FeedbackQueue<u64> = FeedbackQueue::new(16);
        let output: FeedbackQueue<u64> = FeedbackQueue::new(1024);
        let tel = Telemetry::new();
        let stage_tel = StageTelemetry::register(&tel, "stream0.snm");
        let sizes = Arc::new(StdMutex::new(Vec::new()));
        let s2 = Arc::clone(&sizes);
        let slot: PoolSlot<u64, u64, ()> = PoolSlot {
            stream: 0,
            input: input.clone(),
            outputs: vec![output.clone()],
            route: Box::new(|_| 0),
            batch: Some(BatchPolicy::Dynamic { size: 8 }),
            tel: stage_tel,
            sup_tel: SupervisorTelemetry::noop(),
            ctx: noop_ctx(),
            work: Box::new(move |batch, _cx| {
                s2.lock().unwrap().push(batch.len());
                batch
            }),
        };
        let pool = spawn_stage_pool(
            "snm",
            policy(2),
            vec![slot],
            vec![(), ()],
            PoolTelemetry::noop(),
        );
        for i in 0..50u64 {
            input.push(i).unwrap();
        }
        input.close();
        let outcomes = pool.join();
        assert_eq!(outcomes[0].processed(), 50);
        assert_eq!(
            output.try_pop_up_to(usize::MAX),
            (0..50).collect::<Vec<_>>()
        );
        let sizes = sizes.lock().unwrap();
        assert_eq!(sizes.iter().sum::<usize>(), 50);
        assert!(sizes.iter().all(|&s| (1..=8).contains(&s)));
        let snap = tel.snapshot();
        assert_eq!(snap.counter("stream0.snm.frames_in"), 50);
        assert_eq!(snap.counter("stream0.snm.frames_out"), 50);
    }

    #[test]
    fn injected_panic_quarantines_only_its_stream_and_drains_after_give_up() {
        let tel = Telemetry::new();
        let plan = FaultPlan::new().with(1, FaultStage::Sdd, StageFault::PanicAtFrame(10));
        let n_streams = 3;
        let inputs: Vec<FeedbackQueue<u64>> =
            (0..n_streams).map(|_| FeedbackQueue::new(8)).collect();
        let outputs: Vec<FeedbackQueue<u64>> =
            (0..n_streams).map(|_| FeedbackQueue::new(1024)).collect();
        let quarantined = Arc::new(StdMutex::new(Vec::new()));
        let slots: Vec<PoolSlot<u64, u64, ()>> = (0..n_streams)
            .map(|s| {
                let q2 = Arc::clone(&quarantined);
                let inj = if s == 1 {
                    plan.injector(1, FaultStage::Sdd)
                } else {
                    FaultInjector::noop()
                };
                PoolSlot {
                    stream: s,
                    input: inputs[s].clone(),
                    outputs: vec![outputs[s].clone()],
                    route: Box::new(|_| 0),
                    batch: None,
                    tel: StageTelemetry::register(&tel, &format!("stream{}.sdd", s)),
                    sup_tel: SupervisorTelemetry::register(
                        &tel,
                        &format!("rt.supervisor.stream{}.sdd", s),
                    ),
                    ctx: StageFaultCtx {
                        inj,
                        seq_in: Box::new(|x: &u64| *x),
                        seq_out: Box::new(|x: &u64| *x),
                        on_quarantine: Box::new(move |x| q2.lock().unwrap().push(x)),
                        on_lost: Box::new(|_| {}),
                    },
                    work: Box::new(|mut items, _cx| vec![items.pop().unwrap()]),
                }
            })
            .collect();
        let pool = spawn_stage_pool("sdd", policy(2), slots, vec![(), ()], PoolTelemetry::noop());
        let producers: Vec<_> = inputs
            .iter()
            .cloned()
            .map(|q| {
                std::thread::spawn(move || {
                    for i in 0..30u64 {
                        if q.push(i).is_err() {
                            break;
                        }
                    }
                    q.close();
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let outcomes = pool.join();
        // healthy siblings untouched
        for s in [0usize, 2] {
            assert!(!outcomes[s].gave_up(), "stream {} must stay healthy", s);
            assert_eq!(outcomes[s].processed(), 30);
            assert_eq!(
                outputs[s].try_pop_up_to(usize::MAX),
                (0..30).collect::<Vec<_>>()
            );
        }
        // the faulted stream exhausted its budget and quarantined its tail
        assert!(outcomes[1].gave_up());
        assert_eq!(outcomes[1].restarts(), 2);
        let failure = outcomes[1].failure().expect("carries the failure");
        assert!(failure.message.contains(crate::fault::INJECTED_PANIC));
        assert_eq!(
            outputs[1].try_pop_up_to(usize::MAX),
            (0..10).collect::<Vec<_>>(),
            "pre-fault frames flowed"
        );
        let snap = tel.snapshot();
        assert_eq!(snap.counter("stream1.sdd.frames_in"), 10);
        assert_eq!(
            snap.counter("stream1.sdd.frames_quarantined"),
            20,
            "every frame at or past the fault point is quarantined"
        );
        assert_eq!(snap.counter("rt.supervisor.stream1.sdd.restarts"), 2);
        assert_eq!(snap.counter("rt.supervisor.stream1.sdd.give_ups"), 1);
        assert!(snap.counter("rt.supervisor.stream1.sdd.backoff_ms") >= 1 + 2);
        assert_eq!(snap.counter("stream0.sdd.frames_quarantined"), 0);
        assert_eq!(snap.counter("stream2.sdd.frames_quarantined"), 0);
        let mut q = quarantined.lock().unwrap().clone();
        q.sort_unstable();
        assert_eq!(q, (10..30).collect::<Vec<_>>());
    }

    #[test]
    fn transient_work_panic_is_restarted_within_budget() {
        let tel = Telemetry::new();
        let input: FeedbackQueue<u64> = FeedbackQueue::new(32);
        let output: FeedbackQueue<u64> = FeedbackQueue::new(1024);
        let attempts = Arc::new(AtomicU64::new(0));
        let a2 = Arc::clone(&attempts);
        let slot: PoolSlot<u64, u64, ()> = PoolSlot {
            stream: 0,
            input: input.clone(),
            outputs: vec![output.clone()],
            route: Box::new(|_| 0),
            batch: None,
            tel: StageTelemetry::noop(),
            sup_tel: SupervisorTelemetry::register(&tel, "rt.supervisor.stream0.sdd"),
            ctx: noop_ctx(),
            work: Box::new(move |mut items, _cx| {
                let x = items.pop().unwrap();
                if x == 3 && a2.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient fault");
                }
                vec![x]
            }),
        };
        let pool = spawn_stage_pool(
            "sdd",
            policy(1),
            vec![slot],
            vec![()],
            PoolTelemetry::noop(),
        );
        for i in 0..8u64 {
            input.push(i).unwrap();
        }
        input.close();
        let outcomes = pool.join();
        assert!(!outcomes[0].gave_up());
        assert_eq!(outcomes[0].restarts(), 1);
        // frame 3 died with the panic; everything else flowed through
        assert_eq!(output.try_pop_up_to(usize::MAX), vec![0, 1, 2, 4, 5, 6, 7]);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("rt.supervisor.stream0.sdd.restarts"), 1);
        assert_eq!(snap.counter("rt.supervisor.stream0.sdd.give_ups"), 0);
    }

    #[test]
    fn pool_telemetry_reports_steals_and_busy() {
        let tel = Telemetry::new();
        let ptel = PoolTelemetry::register(&tel, "rt.pool.sdd");
        let n_streams = 4;
        let inputs: Vec<FeedbackQueue<u64>> =
            (0..n_streams).map(|_| FeedbackQueue::new(64)).collect();
        let outputs: Vec<FeedbackQueue<u64>> =
            (0..n_streams).map(|_| FeedbackQueue::new(4096)).collect();
        let slots: Vec<PoolSlot<u64, u64, ()>> = (0..n_streams)
            .map(|s| {
                filter_slot(
                    s,
                    inputs[s].clone(),
                    outputs[s].clone(),
                    StageTelemetry::noop(),
                    |x| {
                        // a little compute so busy time registers
                        std::thread::sleep(Duration::from_micros(20));
                        Some(x)
                    },
                )
            })
            .collect();
        let pool = spawn_stage_pool("sdd", policy(3), slots, vec![(), (), ()], ptel);
        for q in &inputs {
            for i in 0..64u64 {
                q.push(i).unwrap();
            }
            q.close();
        }
        let outcomes = pool.join();
        assert!(outcomes.iter().all(|o| o.processed() == 64));
        let snap = tel.snapshot();
        // 4 streams on 3 workers: stealing is possible but not guaranteed;
        // busy percentage must land in range either way.
        assert!(snap.gauges["rt.pool.sdd.worker_busy_pct"].last <= 100);
        let _ = snap.counter("rt.pool.sdd.steal_count");
    }
}

//! The stage executor: every supervised per-stream stage of the RT engine
//! (SDD, SNM) runs as a [`PoolSlot`] of a [`StagePool`].
//!
//! A pool hosts one *stage* for every stream. Each stream contributes a
//! slot — its input queue, output queues, telemetry, fault injector, and
//! work closure — and the pool's workers execute slot quanta. There is one
//! executor and **two ways of waiting**, picked from the worker count:
//!
//! * **dedicated** (`workers == slots`): worker `i` is the sole owner of
//!   slot `i` for the whole run and *blocks inside* the slot's waits — the
//!   input pop, the restart backoff, the give-up drain. This is §3.1.2's
//!   "each filter is associated with an independent thread".
//! * **shared** (any other count): workers sweep the slots without ever
//!   blocking on one, so an empty, stalled or backing-off stream never
//!   holds a worker its shard siblings need; a sweep that found nothing
//!   runnable sleeps 100 µs. This hosts stream counts whose
//!   dedicated threads would not fit a process.
//!
//! Everything else — fault check, accounting, batch top-up, routing,
//! quarantine, restart, give-up, drain — is the same code either way, which
//! is why survivor sets, counters and checkpoints are bit-identical across
//! worker counts (`tests/pool_conformance.rs`).
//!
//! # FIFO-by-shard invariant
//!
//! Every slot is guarded by a mutex and a sweeping worker claims it with
//! `try_lock`, so **at most one worker executes a given stream's stage at
//! any instant** and items leave a slot's input queue in arrival order. A
//! slot's *home* worker is `stream % workers`; sweeping workers visit their
//! home shard first and only visit foreign slots (work stealing, counted in
//! `steal_count`) when their own shard had nothing runnable.
//!
//! # Supervision semantics
//!
//! Per stream, without dedicating threads to it:
//!
//! * an injected panic quarantines the faulting frame (and, for batch slots,
//!   everything already popped behind it) through the slot's
//!   [`StageFaultCtx`] hooks, then *fails the slot* — never the worker; a
//!   panic inside the work closure fails the slot the same way and loses
//!   only the items in flight;
//! * a failed slot backs off on the capped exponential curve
//!   ([`backoff_delay`]) — a deadline the dedicated worker sleeps to and
//!   sweeping workers skip past, so shard siblings keep flowing while one
//!   stream restarts;
//! * once the restart budget is exhausted the slot gives up: its primary
//!   output closes and the slot switches to a *draining* mode that
//!   quarantine-disposes everything still arriving on its input.
//!
//! Restart/give-up/backoff accounting lands on the slot's
//! [`SupervisorTelemetry`] series (`rt.supervisor.*`).

use crate::batch::BatchPolicy;
use crate::queue::FeedbackQueue;
use crate::rt::{filter_step, injected_panic, panic_message, Meters, StageFailure, StageFaultCtx};
use crate::supervisor::{backoff_delay, StageOutcome, MAX_BACKOFF};
use ffsva_telemetry::{PoolTelemetry, StageTelemetry, SupervisorTelemetry};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Items a filter (non-batch) slot processes per visit before yielding the
/// slot back to the shard, bounding how long one stream can monopolize a
/// sweeping worker.
const FILTER_BURST: usize = 32;

/// Batches a batch slot forms per visit before yielding.
const BATCH_BURST: usize = 4;

/// Queue items a draining (gave-up) slot disposes per visit.
const DRAIN_BURST: usize = 64;

/// Idle sleep when a sweeping worker's full sweep found no runnable slot.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Worker count and restart policy for every slot in a pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolPolicy {
    /// Worker threads serving the pool (clamped to at least 1). Equal to the
    /// slot count, each worker is dedicated to one slot and blocks on it;
    /// any other count sweeps.
    pub workers: usize,
    /// Restarts before a failing slot's stream is quarantined. The budget
    /// bounds total attempts at `restart_budget + 1`.
    pub restart_budget: u32,
    /// Backoff before the first restart; doubles per subsequent restart up
    /// to [`MAX_BACKOFF`].
    pub backoff: Duration,
}

/// One stream's share of a stage pool: its queues, accounting, fault
/// context, and the work closure workers execute on its behalf.
///
/// `batch: None` gives filter semantics (`work` is called with exactly one
/// item per quantum); `batch: Some(policy)` gives batch semantics (`work`
/// receives whole batches formed per the policy, flushed when the input
/// closes). On clean exit or give-up only `outputs[0]` (the primary
/// downstream) is closed; alternate routes are owned elsewhere.
pub struct PoolSlot<I, O, C> {
    /// Stream id; determines the slot's home shard (`stream % workers`) and,
    /// with the pool's name, the stage name failures carry (`sdd-3`).
    pub stream: usize,
    pub input: FeedbackQueue<I>,
    pub outputs: Vec<FeedbackQueue<O>>,
    /// Picks, per forwarded item, which queue in `outputs` receives it —
    /// how the `Bypass` degradation policy diverts SNM-positive frames
    /// straight to the reference queue.
    pub route: Box<dyn FnMut(&O) -> usize + Send>,
    /// `Some` for batch-forming slots, `None` for 1-in/≤1-out filters.
    pub batch: Option<BatchPolicy>,
    pub tel: StageTelemetry,
    pub sup_tel: SupervisorTelemetry,
    pub ctx: StageFaultCtx<I, O>,
    /// The stage computation. Receives the quantum's items plus the
    /// *worker-owned* scratch context `C`, so the zero-alloc steady state
    /// holds with one scratch per worker, not per stream.
    #[allow(clippy::type_complexity)]
    pub work: Box<dyn FnMut(Vec<I>, &mut C) -> Vec<O> + Send>,
}

impl<I, O, C> PoolSlot<I, O, C> {
    /// A slot with nothing attached: one output, no telemetry, no faults.
    pub fn plain(
        input: FeedbackQueue<I>,
        output: FeedbackQueue<O>,
        batch: Option<BatchPolicy>,
        work: impl FnMut(Vec<I>, &mut C) -> Vec<O> + Send + 'static,
    ) -> Self {
        PoolSlot {
            stream: 0,
            input,
            outputs: vec![output],
            route: Box::new(|_| 0),
            batch,
            tel: StageTelemetry::noop(),
            sup_tel: SupervisorTelemetry::noop(),
            ctx: StageFaultCtx::noop(),
            work: Box::new(work),
        }
    }
}

/// How a worker waits for a slot's input — the only thing that differs
/// between a dedicated and a sweeping worker.
#[derive(Clone, Copy)]
enum Wait {
    /// The worker owns this slot alone: block inside the pop.
    Block,
    /// The worker shares slots: take what is there and move on.
    Sweep,
}

enum Next<I> {
    Item(I),
    /// Closed and drained: nothing more can arrive.
    Closed,
    /// Nothing queued right now (`Sweep` only).
    Empty,
}

impl Wait {
    fn next<I>(self, input: &FeedbackQueue<I>) -> Next<I> {
        match self {
            Wait::Block => input.pop().map_or(Next::Closed, Next::Item),
            Wait::Sweep => match input.try_pop_up_to(1).pop() {
                Some(item) => Next::Item(item),
                None if input.is_closed() && input.is_empty() => Next::Closed,
                None => Next::Empty,
            },
        }
    }
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
    /// `<pool>-<stream>`: what failures and injected-panic payloads call
    /// this stage.
    name: String,
    /// Popped-but-unbatched items (batch slots only).
    buf: Vec<I>,
    /// The input was observed closed and empty; no more items can arrive.
    closed: bool,
    mode: Mode,
    /// Frames processed and compute time, cumulative across restarts.
    meters: Meters,
    restarts: u32,
    /// The failure that exhausted the restart budget: set exactly when the
    /// slot gave up.
    failure: Option<StageFailure>,
    /// A failed slot may not run again before this instant.
    backoff_until: Option<Instant>,
}

impl<I, O, C> SlotState<I, O, C> {
    fn new(pool: &str, slot: PoolSlot<I, O, C>) -> Self {
        assert!(!slot.outputs.is_empty(), "slot needs at least one output");
        SlotState {
            name: format!("{}-{}", pool, slot.stream),
            slot,
            buf: Vec::new(),
            closed: false,
            mode: Mode::Running,
            meters: Meters::default(),
            restarts: 0,
            failure: None,
            backoff_until: None,
        }
    }

    /// Clean exit — input drained or downstream closed: close the primary
    /// output (idempotent) so downstream drains and stops.
    fn finish(&mut self) {
        self.slot.outputs[0].close();
        self.mode = Mode::Done;
    }

    fn quarantine(&mut self, item: I) {
        self.slot.ctx.quarantine(&self.slot.tel, item);
    }

    /// Handle an incarnation death: restart with backoff while budget
    /// remains, otherwise give up — close the primary downstream and switch
    /// to draining.
    fn fail(&mut self, policy: &PoolPolicy, message: String) {
        if self.restarts >= policy.restart_budget {
            self.slot.sup_tel.give_ups.inc();
            self.failure = Some(StageFailure {
                stage: self.name.clone(),
                message,
                processed: self.meters.processed.load(Ordering::Relaxed),
                busy_s: self.meters.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            });
            self.slot.outputs[0].close();
            self.mode = Mode::Draining;
        } else {
            let backoff = backoff_delay(policy.backoff, self.restarts, MAX_BACKOFF);
            self.restarts += 1;
            self.slot.sup_tel.restarts.inc();
            self.slot.sup_tel.backoff_ms.add(backoff.as_millis() as u64);
            self.backoff_until = Some(Instant::now() + backoff);
        }
    }

    /// Quarantine-drain a gave-up slot's input until the producer closes it.
    fn drain_quantum(&mut self, wait: Wait) -> bool {
        let mut worked = !self.buf.is_empty();
        for item in std::mem::take(&mut self.buf) {
            self.quarantine(item);
        }
        for _ in 0..DRAIN_BURST {
            match wait.next(&self.slot.input) {
                Next::Item(item) => self.quarantine(item),
                Next::Closed => {
                    self.mode = Mode::Done;
                    break;
                }
                Next::Empty => break,
            }
            worked = true;
        }
        worked
    }

    /// One filter quantum: up to [`FILTER_BURST`] items, each through the
    /// same [`filter_step`] the plain stage thread runs.
    fn filter_quantum(&mut self, wait: Wait, cx: &mut C) -> bool {
        let mut worked = false;
        for _ in 0..FILTER_BURST {
            let item = match wait.next(&self.slot.input) {
                Next::Item(item) => item,
                Next::Closed => {
                    self.finish();
                    break;
                }
                Next::Empty => break,
            };
            worked = true;
            let slot = &mut self.slot;
            let (work, route, outputs) = (&mut slot.work, &mut slot.route, &slot.outputs);
            let open = filter_step(
                &self.name,
                item,
                &slot.tel,
                &mut slot.ctx,
                &self.meters,
                |item| work(vec![item], cx).pop(),
                |out| {
                    let dst = route(&out).min(outputs.len() - 1);
                    outputs[dst].push(out)
                },
            );
            if !open {
                self.finish();
                break;
            }
        }
        worked
    }

    /// One batch quantum: form and process up to [`BATCH_BURST`] batches.
    ///
    /// Top-up pops one item, then asks the policy. When the injector fires
    /// `Panic` inside a formed batch, the pre-fault prefix is processed and
    /// forwarded as a normal (smaller) batch first, then the faulting frame
    /// and every other frame already popped behind it is quarantined before
    /// the slot dies. Because slots are per-stream FIFO, the frame sets on
    /// each side of the fault boundary are independent of batch shape —
    /// which is what keeps the DES and RT engines' faulted counters
    /// identical.
    fn batch_quantum(&mut self, policy: BatchPolicy, wait: Wait, cx: &mut C) -> bool {
        let capacity = self.slot.input.capacity();
        let mut worked = false;
        for _ in 0..BATCH_BURST {
            // Decide how many items this batch needs.
            let want = loop {
                if self.closed {
                    break self.buf.len(); // flush whatever remains
                }
                if let Some(take) = policy.take(self.buf.len(), capacity) {
                    break take;
                }
                match wait.next(&self.slot.input) {
                    Next::Item(item) => self.buf.push(item),
                    Next::Closed => self.closed = true,
                    Next::Empty => return worked, // revisit later
                }
            };
            let mut batch: Vec<I> = self.buf.drain(..want.min(self.buf.len())).collect();
            if batch.is_empty() {
                // only a closed input asks for an empty flush
                self.finish();
                break;
            }
            worked = true;
            // Scan for the first panic fault; stalls fire inline.
            let ctx = &self.slot.ctx;
            let panic_idx = batch
                .iter()
                .enumerate()
                .find_map(|(i, item)| Some((i, ctx.panic_seq(item)?)));
            let doomed: Vec<I> = match panic_idx {
                Some((i, _)) => batch.split_off(i),
                None => Vec::new(),
            };
            if !batch.is_empty() {
                let n_in = batch.len() as u64;
                self.meters.processed.fetch_add(n_in, Ordering::Relaxed);
                self.slot.tel.frames_in.add(n_in);
                let t0 = Instant::now();
                // a panic in here loses the in-flight batch with the
                // incarnation; buffered items stay for the next one
                let outs = (self.slot.work)(batch, cx);
                self.meters
                    .busy_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let mut forwarded = 0u64;
                let mut open = true;
                for out in outs {
                    let Some(out) = self.slot.ctx.survives_push(out) else {
                        continue;
                    };
                    let dst = (self.slot.route)(&out).min(self.slot.outputs.len() - 1);
                    if self.slot.outputs[dst].push(out).is_err() {
                        open = false;
                        break;
                    }
                    forwarded += 1;
                }
                if !open {
                    self.finish();
                    break;
                }
                self.slot.tel.frames_out.add(forwarded);
                self.slot.tel.frames_dropped.add(n_in - forwarded);
            }
            if let Some((_, seq)) = panic_idx {
                // Quarantine everything already popped past the fault
                // boundary, then die. The input queue itself stays intact
                // for the next incarnation, or the give-up drain.
                for item in doomed.into_iter().chain(std::mem::take(&mut self.buf)) {
                    self.quarantine(item);
                }
                injected_panic(&self.name, seq);
            }
            if self.closed && self.buf.is_empty() {
                self.finish();
                break;
            }
        }
        worked
    }

    /// Run one quantum in the slot's current mode. A panic out of a running
    /// quantum — injected or real — is contained here and fails the slot.
    /// Returns whether any work (processing or drain disposal) happened.
    fn run_quantum(&mut self, policy: &PoolPolicy, wait: Wait, cx: &mut C) -> bool {
        if let Some(until) = self.backoff_until {
            match wait {
                Wait::Block => thread::sleep(until.saturating_duration_since(Instant::now())),
                Wait::Sweep if Instant::now() < until => return false,
                Wait::Sweep => {}
            }
            self.backoff_until = None;
        }
        match self.mode {
            Mode::Running => {
                let quantum = catch_unwind(AssertUnwindSafe(|| match self.slot.batch {
                    Some(batch) => self.batch_quantum(batch, wait, cx),
                    None => self.filter_quantum(wait, cx),
                }));
                quantum.unwrap_or_else(|payload| {
                    self.fail(policy, panic_message(payload));
                    true
                })
            }
            Mode::Draining => self.drain_quantum(wait),
            Mode::Done => false,
        }
    }
}

struct PoolShared<I, O, C> {
    policy: PoolPolicy,
    slots: Vec<Mutex<SlotState<I, O, C>>>,
    /// Home shard per slot index (`stream % workers`), precomputed.
    homes: Vec<usize>,
    /// Input-queue handles for depth sampling without taking slot locks.
    depth_probes: Vec<FeedbackQueue<I>>,
    done: AtomicUsize,
    tel: PoolTelemetry,
}

impl<I, O, C> PoolShared<I, O, C> {
    /// Worker 0 publishes the summed input depth every 16th round.
    fn sample_depth(&self, w: usize, round: u64) {
        if w == 0 && round % 16 == 0 {
            let depth: usize = self.depth_probes.iter().map(|q| q.len()).sum();
            self.tel.queue_depth.set(depth as u64);
        }
    }
}

/// Handle to a running stage pool. [`StagePool::join`] blocks until every
/// slot is done and returns the per-stream outcomes in slot order.
pub struct StagePool<I, O, C> {
    shared: Arc<PoolShared<I, O, C>>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

/// Spawn a stage pool over `slots`. `contexts` supplies one worker-owned
/// scratch context per worker and must have length `policy.workers.max(1)`.
/// With exactly one worker per slot each worker is dedicated to its slot and
/// blocks on it; otherwise the workers sweep (module docs).
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
        .map(|slot| Mutex::new(SlotState::new(&name, slot)))
        .collect();
    let shared = Arc::new(PoolShared {
        policy: PoolPolicy { workers, ..policy },
        slots,
        homes,
        depth_probes,
        done: AtomicUsize::new(0),
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
        let workers = self.shared.policy.workers as u64;
        let mut busy = 0u64;
        let outcomes = self
            .shared
            .slots
            .iter()
            .map(|m| {
                let st = m.lock();
                busy += st.meters.busy_ns.load(Ordering::Relaxed);
                let processed = st.meters.processed.load(Ordering::Relaxed);
                let restarts = st.restarts;
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
            .collect();
        let pct = (busy.saturating_mul(100) / wall_ns.saturating_mul(workers)).min(100);
        self.shared.tel.worker_busy_pct.set(pct);
        self.shared.tel.queue_depth.set(0);
        outcomes
    }
}

fn worker_loop<I, O, C>(w: usize, shared: Arc<PoolShared<I, O, C>>, mut cx: C)
where
    I: Send,
    O: Send,
{
    let n = shared.slots.len();
    let mut round = 0u64;
    if shared.policy.workers == n {
        // Dedicated: sole owner of slot `w`, blocking inside its waits.
        let mut st = shared.slots[w].lock();
        while st.mode != Mode::Done {
            st.run_quantum(&shared.policy, Wait::Block, &mut cx);
            shared.sample_depth(w, round);
            round += 1;
        }
        return;
    }
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
        shared.sample_depth(w, round);
        round += 1;
        if !worked {
            thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Try to run one quantum of slot `idx` on sweeping worker `w`. Returns
/// whether any work happened.
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
    let worked = st.run_quantum(&shared.policy, Wait::Sweep, cx);
    if st.mode == Mode::Done {
        shared.done.fetch_add(1, Ordering::Release);
    }
    if worked && shared.homes[idx] != w {
        shared.tel.steal_count.inc();
    }
    worked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultStage, StageFault, INJECTED_PANIC};
    use ffsva_telemetry::Telemetry;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;

    fn policy(workers: usize) -> PoolPolicy {
        PoolPolicy {
            workers,
            restart_budget: 2,
            backoff: Duration::from_millis(1),
        }
    }

    #[test]
    fn pool_runs_many_streams_on_few_workers_preserving_fifo() {
        for workers in [1usize, 2, 8, 12] {
            let n_streams = 12;
            let inputs: Vec<FeedbackQueue<u64>> =
                (0..n_streams).map(|_| FeedbackQueue::new(4)).collect();
            let outputs: Vec<FeedbackQueue<u64>> =
                (0..n_streams).map(|_| FeedbackQueue::new(1024)).collect();
            let slots: Vec<PoolSlot<u64, u64, ()>> = (0..n_streams)
                .map(|s| PoolSlot {
                    stream: s,
                    ..PoolSlot::plain(
                        inputs[s].clone(),
                        outputs[s].clone(),
                        None,
                        |mut items: Vec<u64>, _: &mut ()| {
                            items.retain(|x| x % 2 == 0);
                            items
                        },
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

    const SLOTS: usize = 3;
    const FRAMES: u64 = 30;

    /// Everything one pool run leaves behind that must not depend on how
    /// its workers wait.
    #[derive(Debug, PartialEq)]
    struct Trace {
        /// Forwarded items per stream, in arrival order.
        outputs: Vec<Vec<u64>>,
        /// `(gave_up, processed, restarts, failure message)` per stream.
        outcomes: Vec<(bool, u64, u32, Option<String>)>,
        /// Every `stream<s>.stage.*` and `rt.supervisor.stream<s>.*` counter.
        counters: BTreeMap<String, u64>,
        quarantined: Vec<Vec<u64>>,
        lost: Vec<Vec<u64>>,
        batch_sizes: Vec<Vec<usize>>,
    }

    /// `SLOTS` streams of `FRAMES` frames each through one pool; the stage
    /// keeps every frame not divisible by 3.
    fn run_case(workers: usize, plan: &FaultPlan, batch: Option<BatchPolicy>) -> Trace {
        let tel = Telemetry::new();
        let shared_log =
            || -> Vec<Arc<StdMutex<Vec<u64>>>> { (0..SLOTS).map(|_| Arc::default()).collect() };
        let (quarantined, lost) = (shared_log(), shared_log());
        let sizes: Vec<Arc<StdMutex<Vec<usize>>>> = (0..SLOTS).map(|_| Arc::default()).collect();
        let inputs: Vec<FeedbackQueue<u64>> = (0..SLOTS).map(|_| FeedbackQueue::new(8)).collect();
        let outputs: Vec<FeedbackQueue<u64>> =
            (0..SLOTS).map(|_| FeedbackQueue::new(1024)).collect();
        let slots: Vec<PoolSlot<u64, u64, ()>> = (0..SLOTS)
            .map(|s| {
                let (q, l, z) = (
                    Arc::clone(&quarantined[s]),
                    Arc::clone(&lost[s]),
                    Arc::clone(&sizes[s]),
                );
                PoolSlot {
                    stream: s,
                    input: inputs[s].clone(),
                    outputs: vec![outputs[s].clone()],
                    route: Box::new(|_| 0),
                    batch,
                    tel: StageTelemetry::register(&tel, &format!("stream{}.stage", s)),
                    sup_tel: SupervisorTelemetry::register(
                        &tel,
                        &format!("rt.supervisor.stream{}.stage", s),
                    ),
                    ctx: StageFaultCtx {
                        inj: plan.injector(s, FaultStage::Snm),
                        seq_in: Box::new(|x: &u64| *x),
                        seq_out: Box::new(|x: &u64| *x),
                        on_quarantine: Box::new(move |x| q.lock().unwrap().push(x)),
                        on_lost: Box::new(move |x| l.lock().unwrap().push(x)),
                    },
                    work: Box::new(move |mut items, _cx| {
                        z.lock().unwrap().push(items.len());
                        items.retain(|x| x % 3 != 0);
                        items
                    }),
                }
            })
            .collect();
        let pool = spawn_stage_pool(
            "stage",
            policy(workers),
            slots,
            vec![(); workers],
            PoolTelemetry::noop(),
        );
        let producers: Vec<_> = inputs
            .iter()
            .cloned()
            .map(|q| {
                std::thread::spawn(move || {
                    for i in 0..FRAMES {
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
        let unwrap_logs = |logs: &[Arc<StdMutex<Vec<u64>>>]| -> Vec<Vec<u64>> {
            logs.iter().map(|l| l.lock().unwrap().clone()).collect()
        };
        Trace {
            outputs: outputs
                .iter()
                .map(|q| {
                    assert!(q.is_closed(), "every slot closes its primary output");
                    q.try_pop_up_to(usize::MAX)
                })
                .collect(),
            outcomes: outcomes
                .iter()
                .map(|o| {
                    (
                        o.gave_up(),
                        o.processed(),
                        o.restarts(),
                        o.failure().map(|f| format!("{}: {}", f.stage, f.message)),
                    )
                })
                .collect(),
            counters: tel.snapshot().counters,
            quarantined: unwrap_logs(&quarantined),
            lost: unwrap_logs(&lost),
            batch_sizes: sizes.iter().map(|z| z.lock().unwrap().clone()).collect(),
        }
    }

    /// The one executor, both ways of waiting: a dedicated worker per slot
    /// (`workers == SLOTS`) and a shared sweep (fewer, or more, workers than
    /// slots) leave the same outputs in the same order, the same
    /// [`StageOutcome`]s, the same stage and `rt.supervisor.*` counters and
    /// the same disposal hooks' calls — clean, restarted within budget,
    /// given up on, with a lost push, as a filter and under every batch
    /// policy.
    #[test]
    fn dedicated_and_shared_waiting_are_indistinguishable() {
        let kept = |lo: u64, hi: u64| -> Vec<u64> { (lo..hi).filter(|x| x % 3 != 0).collect() };
        let plans = [
            ("clean", FaultPlan::new()),
            (
                "panic within budget",
                FaultPlan::new().with(1, FaultStage::Snm, StageFault::PanicAtFrame(FRAMES - 2)),
            ),
            (
                "panic past budget",
                FaultPlan::new().with(1, FaultStage::Snm, StageFault::PanicAtFrame(10)),
            ),
            (
                "failpush",
                FaultPlan::new().with(2, FaultStage::Snm, StageFault::FailNextPush { at_frame: 7 }),
            ),
        ];
        let shapes = [
            None,
            Some(BatchPolicy::Static { size: 5 }),
            Some(BatchPolicy::Feedback { size: 4 }),
            Some(BatchPolicy::Dynamic { size: 8 }),
        ];
        for (what, plan) in &plans {
            for batch in shapes {
                let dedicated = run_case(SLOTS, plan, batch);
                for workers in [1, 2, 8] {
                    assert_eq!(
                        run_case(workers, plan, batch),
                        dedicated,
                        "{what}, {batch:?}: {workers} sweeping worker(s) vs a dedicated one per slot"
                    );
                }

                // and what both do is what a supervised stage is specified to do
                let t = &dedicated;
                let n = |name: &str| t.counters[name];
                for s in [0, 2] {
                    assert_eq!(t.outcomes[s].0, false, "{what}: sibling {s} stays healthy");
                    assert_eq!(t.outcomes[s].1, FRAMES);
                    assert_eq!(n(&format!("stream{s}.stage.frames_quarantined")), 0);
                }
                match batch {
                    None => assert!(t.batch_sizes[0].iter().all(|&z| z == 1)),
                    // full batches, then the partial one flushed at close
                    Some(BatchPolicy::Static { size: z })
                    | Some(BatchPolicy::Feedback { size: z }) => {
                        let mut want = vec![z; FRAMES as usize / z];
                        want.extend(Some(FRAMES as usize % z).filter(|&r| r > 0));
                        assert_eq!(t.batch_sizes[0], want);
                    }
                    Some(BatchPolicy::Dynamic { size: z }) => {
                        assert!(t.batch_sizes[0].iter().all(|&b| (1..=z).contains(&b)));
                        assert_eq!(t.batch_sizes[0].iter().sum::<usize>(), FRAMES as usize);
                    }
                }
                match *what {
                    "clean" => {
                        assert_eq!(t.outputs, vec![kept(0, FRAMES); SLOTS]);
                        assert_eq!(t.outcomes, vec![(false, FRAMES, 0, None); SLOTS]);
                        assert_eq!(n("stream0.stage.frames_in"), FRAMES);
                        assert_eq!(n("stream0.stage.frames_out"), 20);
                        assert_eq!(n("stream0.stage.frames_dropped"), 10);
                        assert_eq!(n("rt.supervisor.stream1.stage.restarts"), 0);
                    }
                    "panic within budget" => {
                        // frames 28 and 29 are quarantined; the run completes
                        assert_eq!(t.outputs[1], kept(0, FRAMES - 2));
                        assert!(!t.outcomes[1].0, "budget holds: {:?}", t.outcomes[1]);
                        assert_eq!(t.outcomes[1].1, FRAMES - 2);
                        assert_eq!(t.quarantined[1], vec![FRAMES - 2, FRAMES - 1]);
                        assert_eq!(n("stream1.stage.frames_quarantined"), 2);
                        assert_eq!(n("rt.supervisor.stream1.stage.give_ups"), 0);
                        assert_eq!(
                            u64::from(t.outcomes[1].2),
                            n("rt.supervisor.stream1.stage.restarts")
                        );
                    }
                    "panic past budget" => {
                        assert_eq!(t.outputs[1], kept(0, 10), "pre-fault frames flowed");
                        let (gave_up, processed, restarts, failure) = t.outcomes[1].clone();
                        assert!(gave_up);
                        assert_eq!((processed, restarts), (10, 2), "budget 2 = 3 attempts");
                        let failure = failure.expect("carries the failure");
                        assert!(failure.starts_with("stage-1: "), "{failure}");
                        assert!(failure.contains(INJECTED_PANIC), "{failure}");
                        assert!(
                            failure.contains("stage `stage-1` at frame seq "),
                            "{failure}"
                        );
                        // every frame at or past the fault point is quarantined:
                        // by the dying incarnations, then by the give-up drain
                        assert_eq!(t.quarantined[1], (10..FRAMES).collect::<Vec<_>>());
                        assert_eq!(n("stream1.stage.frames_in"), 10);
                        assert_eq!(n("stream1.stage.frames_quarantined"), FRAMES - 10);
                        assert_eq!(n("rt.supervisor.stream1.stage.restarts"), 2);
                        assert_eq!(n("rt.supervisor.stream1.stage.give_ups"), 1);
                        assert_eq!(n("rt.supervisor.stream1.stage.backoff_ms"), 1 + 2);
                    }
                    "failpush" => {
                        // 7 passes the stage and is lost in the push
                        let mut want = kept(0, FRAMES);
                        want.retain(|&x| x != 7);
                        assert_eq!(t.outputs[2], want);
                        assert_eq!(t.lost[2], vec![7]);
                        assert_eq!(n("stream2.stage.frames_in"), FRAMES);
                        assert_eq!(n("stream2.stage.frames_out"), 19);
                        assert_eq!(n("stream2.stage.frames_dropped"), 11);
                    }
                    other => unreachable!("{other}"),
                }
            }
        }
    }

    #[test]
    fn restart_backoff_is_capped() {
        let tel = Telemetry::new();
        let mut st: SlotState<u64, u64, ()> = SlotState::new(
            "sdd",
            PoolSlot {
                sup_tel: SupervisorTelemetry::register(&tel, "rt.supervisor.stream0.sdd"),
                ..PoolSlot::plain(FeedbackQueue::new(1), FeedbackQueue::new(1), None, |v, _| v)
            },
        );
        let policy = PoolPolicy {
            workers: 1,
            restart_budget: u32::MAX,
            backoff: Duration::from_millis(10),
        };
        // 10 ms << 11 = 20.48 s is still under the 30 s ceiling
        st.restarts = 11;
        st.fail(&policy, "boom".into());
        assert_eq!(
            tel.snapshot()
                .counter("rt.supervisor.stream0.sdd.backoff_ms"),
            20_480
        );
        // 10 ms << 12 = 40.96 s is not: the 13th restart waits MAX_BACKOFF,
        // and `backoff_ms` adds what was waited
        let before = Instant::now();
        st.fail(&policy, "boom".into());
        assert_eq!(st.restarts, 13);
        assert_eq!(
            tel.snapshot()
                .counter("rt.supervisor.stream0.sdd.backoff_ms"),
            20_480 + 30_000
        );
        let until = st.backoff_until.expect("restart carries a deadline");
        assert!(until <= Instant::now() + MAX_BACKOFF && until >= before + MAX_BACKOFF);
        // absurd restart counts saturate instead of overflowing
        st.restarts = 500;
        st.fail(&policy, "boom".into());
        assert_eq!(
            tel.snapshot()
                .counter("rt.supervisor.stream0.sdd.backoff_ms"),
            20_480 + 2 * 30_000
        );
        assert_eq!(
            tel.snapshot().counter("rt.supervisor.stream0.sdd.give_ups"),
            0
        );
    }

    #[test]
    fn transient_work_panic_is_restarted_within_budget() {
        // one slot: a dedicated worker, then two sweeping ones
        for workers in [1, 2] {
            let tel = Telemetry::new();
            let input: FeedbackQueue<u64> = FeedbackQueue::new(32);
            let output: FeedbackQueue<u64> = FeedbackQueue::new(1024);
            let attempts = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&attempts);
            let slot: PoolSlot<u64, u64, ()> = PoolSlot {
                sup_tel: SupervisorTelemetry::register(&tel, "rt.supervisor.stream0.sdd"),
                ..PoolSlot::plain(
                    input.clone(),
                    output.clone(),
                    None,
                    move |mut items, _cx| {
                        let x = items.pop().unwrap();
                        if x == 3 && a2.fetch_add(1, Ordering::Relaxed) == 0 {
                            panic!("transient fault");
                        }
                        vec![x]
                    },
                )
            };
            let pool = spawn_stage_pool(
                "sdd",
                policy(workers),
                vec![slot],
                vec![(); workers],
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
            .map(|s| PoolSlot {
                stream: s,
                ..PoolSlot::plain(inputs[s].clone(), outputs[s].clone(), None, |items, _| {
                    // a little compute so busy time registers
                    std::thread::sleep(Duration::from_micros(20));
                    items
                })
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

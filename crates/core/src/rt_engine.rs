//! The threaded real-model pipeline: every filter gets its own thread
//! (§3.1.2) connected by blocking feedback queues, and the actual pixel
//! models — SDD distances, SNM CNN inference, T-YOLO grid detection — run
//! inside the stages. This engine demonstrates the system on real
//! computation; the discrete-event engine (`sim`) reproduces the paper's
//! timing figures on the calibrated device substrate.
//!
//! There is one engine, [`RtEngine`], configured with the same builder the
//! DES [`Engine`](crate::sim::Engine) has; a single stream is a one-element
//! `streams` vector. Each per-stream stage body (SDD verdict, SNM batch
//! verdict) is written once over per-stream state and runs as a slot of the
//! one stage executor, `ffsva_sched::pool`.

use crate::checkpoint::{load_all, CheckpointLog, CheckpointSpec, StreamCheckpoint};
use crate::config::{FfsVaConfig, Precision, StreamThresholds};
use crate::instance::stage_workers;
use crate::tune::{DriftConfig, DriftDetector};
use ffsva_models::bank::FilterBank;
use ffsva_models::tyolo::TinyYolo;
use ffsva_models::{Scratch, SddFilter, SnmModel};
use ffsva_sched::{
    spawn_filter_stage_faulted, spawn_stage_pool, DegradePolicy, FaultAction, FaultInjector,
    FaultPlan, FaultStage, FeedbackQueue, IngestCore, IngestOutput, IngestStats, PoolPolicy,
    PoolSlot, StageFaultCtx, StageOutcome, SupervisorTelemetry, WatchEntry, Watchdog,
};
use ffsva_telemetry::{
    Counter, Histogram, PoolTelemetry, QueueTelemetry, StageTelemetry, Telemetry,
    TelemetrySnapshot, LATENCY_BOUNDS_US,
};
use ffsva_video::{
    frame_checksum, plan_reconnect, ClipSource, Frame, LabeledFrame, ReconnectOutcome,
    SourceFaultPlan, SourceItem, UnreliableSource,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A frame in flight through the threaded pipeline, stamped with its
/// pipeline-entry instant so stages can record end-to-end latency at the
/// point of disposal (drop or reference completion).
type InFlight = (Instant, LabeledFrame);

pub(crate) fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Lock per-stream stage state. A panic inside a model call (contained by
/// the executor's `catch_unwind`) poisons the mutex, but every update below
/// leaves the state valid at each step, so the restarted stage recovers the
/// guard and carries on.
fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run the SNM batch forward at the configured precision. Both paths are
/// batching-invariant (batched output bit-identical to per-frame), so the
/// survivor set depends only on the precision choice, never on how the
/// engine happened to compose batches.
fn snm_predict(
    snm: &mut SnmModel,
    precision: Precision,
    frames: &[&Frame],
    scratch: &mut Scratch,
) -> Vec<f32> {
    match precision {
        Precision::F32 => snm.predict_batch_frames(frames, scratch),
        Precision::Int8 => snm.predict_batch_frames_int8(frames, scratch),
    }
}

/// Run the shared T-YOLO object count at the configured precision. Like
/// [`snm_predict`], only the precision choice can move the survivor set.
fn tyolo_count(
    ty: &TinyYolo,
    precision: Precision,
    frame: &Frame,
    class: ffsva_video::ObjectClass,
    scratch: &mut Scratch,
) -> usize {
    match precision {
        Precision::F32 => ty.count_with(frame, class, scratch),
        Precision::Int8 => ty.count_quantized_with(frame, class, scratch),
    }
}

/// A frame that survived the full cascade.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurvivingFrame {
    pub seq: u64,
    pub pts_ms: u64,
    /// Objects the reference model reports for the frame.
    pub reference_count: usize,
}

/// Supervision outcome for one stream of a multi-stream run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamHealth {
    /// The stream's SDD or SNM exhausted its restart budget; every frame
    /// from the fault point on was disposed as quarantined while sibling
    /// streams kept running.
    pub quarantined: bool,
    /// Which supervised stage gave up (`"sdd"` or `"snm"`), if any.
    pub failed_stage: Option<String>,
    /// Restarts attempted across the stream's supervised stages.
    pub restarts: u64,
    /// Frames disposed as quarantined for this stream.
    pub frames_quarantined: u64,
    /// The stream's source exhausted its reconnect budget mid-run: the link
    /// was declared lost and the unread tail of the clip was dropped, while
    /// sibling streams kept running.
    #[serde(default)]
    pub source_lost: bool,
}

impl StreamHealth {
    pub fn healthy(&self) -> bool {
        !self.quarantined && !self.source_lost
    }
}

/// What one ingest worker observed, returned through its join handle and
/// folded into [`StreamHealth`] and the stream's final checkpoint.
struct SourceReport {
    /// Absolute source cursor after the run: every frame below it has been
    /// fully accounted (delivered, dropped, quarantined, or evicted).
    cursor: u64,
    source_lost: bool,
    reconnects: u64,
    stats: IngestStats,
}

/// Result of a multi-stream threaded run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiRtResult {
    pub total_frames: u64,
    /// Aggregated frames processed by each stage across all streams.
    pub stage_processed: [u64; 4],
    /// Survivors per stream, in stream order.
    pub survivors: Vec<Vec<SurvivingFrame>>,
    pub wall_time_s: f64,
    pub throughput_fps: f64,
    /// Per-stream supervision outcome, in stream order.
    #[serde(default)]
    pub stream_health: Vec<StreamHealth>,
    /// Frames shed by the `ShedOldest` degrade policy (RT-only; the DES has
    /// no wall-clock lag to shed against).
    #[serde(default)]
    pub shed_frames: u64,
    /// Every named series the run emitted (DESIGN.md §Telemetry).
    #[serde(default)]
    pub telemetry: TelemetrySnapshot,
}

impl MultiRtResult {
    /// Frames disposed as quarantined across all streams.
    pub fn quarantined_frames(&self) -> u64 {
        self.stream_health
            .iter()
            .map(|h| h.frames_quarantined)
            .sum()
    }
}

/// Where one stream's SDD stage logs the seq of each frame it declared a
/// regime shift at, and its SNM stage picks them up.
type ShiftLog = Arc<Mutex<VecDeque<u64>>>;

/// SDD-side drift watch (DESIGN.md §15): feeds every distance to a
/// [`DriftDetector`] and keeps the recent `(distance, resized image)` window
/// the reference is rebuilt from when a regime shift is declared (day → night
/// illumination, §3.2.1's "changing light color and intensity" taken to its
/// breaking point).
struct DriftWatch {
    det: DriftDetector,
    window: usize,
    recent: VecDeque<(f32, Vec<f32>)>,
    /// Seq of every frame a shift was declared at, for the stream's SNM stage.
    shifts: ShiftLog,
    detections: Counter,
    rebuilds: Counter,
}

impl DriftWatch {
    fn new(cfg: DriftConfig, tel: &Telemetry, shifts: ShiftLog) -> Self {
        DriftWatch {
            det: DriftDetector::new(cfg),
            window: cfg.window,
            recent: VecDeque::with_capacity(cfg.window),
            shifts,
            detections: tel.counter("drift.detections"),
            rebuilds: tel.counter("drift.sdd_rebuilds"),
        }
    }

    fn observe(&mut self, seq: u64, d: f32, resized: &[f32], sdd: &mut SddFilter) {
        // Recycle the evicted entry's buffer: once the window is full a
        // drift-enabled stream allocates nothing per frame.
        let mut slot = Vec::new();
        if self.recent.len() == self.window {
            if let Some((_, evicted)) = self.recent.pop_front() {
                slot = evicted;
            }
        }
        slot.clear();
        slot.extend_from_slice(resized);
        self.recent.push_back((d, slot));
        if !self.det.observe(f64::from(d)) {
            return;
        }
        self.detections.inc();
        // Re-lock the reference onto the shifted background: the
        // lowest-distance half of the recent window is the best estimate of
        // content-free frames in the new regime.
        let mut by_distance: Vec<usize> = (0..self.recent.len()).collect();
        by_distance.sort_by(|&a, &b| {
            let (da, db) = (self.recent[a].0, self.recent[b].0);
            da.total_cmp(&db).then(a.cmp(&b))
        });
        let take = (by_distance.len() / 2).max(1);
        let smalls: Vec<&[f32]> = by_distance[..take]
            .iter()
            .map(|&i| self.recent[i].1.as_slice())
            .collect();
        sdd.rebuild_reference_from_smalls(&smalls);
        self.rebuilds.inc();
        lock(&self.shifts).push_back(seq);
    }
}

/// One stream's SDD model and, under [`RtEngine::with_drift`], its drift
/// watch. Shared between the stage and the engine, so a rebuilt reference
/// is what the final checkpoint records.
struct SddState {
    sdd: SddFilter,
    watch: Option<DriftWatch>,
}

impl SddState {
    fn passes(&mut self, frame: &Frame, scratch: &mut Scratch) -> bool {
        let d = self.sdd.distance_with(frame, scratch);
        if let Some(watch) = &mut self.watch {
            watch.observe(frame.seq, d, &scratch.resized, &mut self.sdd);
        }
        // δ_diff is kept across a rebuild: the new reference re-centers
        // distances instead
        d > self.sdd.delta_diff
    }
}

/// SNM-side recalibration bookkeeping: the recent probability window and the
/// running pass rate `t_pre` is re-derived from when the SDD stage reports a
/// regime shift.
struct SnmRecal {
    window: usize,
    recent: VecDeque<f32>,
    seen: u64,
    passed: u64,
    shifts: ShiftLog,
    retunes: Counter,
}

impl SnmRecal {
    fn new(cfg: DriftConfig, tel: &Telemetry, shifts: ShiftLog) -> Self {
        SnmRecal {
            window: cfg.window,
            recent: VecDeque::with_capacity(cfg.window),
            seen: 0,
            passed: 0,
            shifts,
            retunes: tel.counter("drift.snm_retunes"),
        }
    }

    /// The threshold frame `seq` is judged against: `t_pre`, re-derived once
    /// for every shift the SDD declared at an earlier frame. Keyed on the
    /// frame, not on when the SNM stage happens to run, so the survivor set
    /// is independent of batch shape and worker count. The re-derived threshold
    /// preserves the pre-shift pass rate — the matching quantile of the
    /// recent probability distribution — lowering-only and floored at
    /// `c_low`, so recall cannot regress from threshold motion.
    fn threshold_for(&self, seq: u64, mut t_pre: f32, c_low: f32) -> f32 {
        let mut shifts = lock(&self.shifts);
        while shifts.front().is_some_and(|&at| seq > at) {
            shifts.pop_front();
            if self.recent.is_empty() {
                continue;
            }
            let mut sorted: Vec<f32> = self.recent.iter().copied().collect();
            sorted.sort_by(f32::total_cmp);
            let pass_rate = (self.passed as f64 / self.seen as f64).clamp(0.0, 1.0);
            let idx = ((sorted.len() as f64) * (1.0 - pass_rate)) as usize;
            let lowered = sorted[idx.min(sorted.len() - 1)].clamp(c_low, t_pre);
            if lowered < t_pre {
                t_pre = lowered;
                self.retunes.inc();
            }
        }
        t_pre
    }

    fn record(&mut self, p: f32, pass: bool) {
        self.seen += 1;
        self.passed += u64::from(pass);
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(p);
    }
}

/// One stream's SNM model, its running threshold and, under
/// [`RtEngine::with_drift`], the recalibration window — shared with the
/// engine like [`SddState`].
struct SnmState {
    snm: SnmModel,
    t_pre: f32,
    recal: Option<SnmRecal>,
}

impl SnmState {
    /// One verdict per frame of the batch, in batch order.
    fn passes(
        &mut self,
        frames: &[&Frame],
        precision: Precision,
        scratch: &mut Scratch,
    ) -> Vec<bool> {
        let probs = snm_predict(&mut self.snm, precision, frames, scratch);
        probs
            .into_iter()
            .zip(frames)
            .map(|(p, frame)| {
                if let Some(recal) = &self.recal {
                    self.t_pre = recal.threshold_for(frame.seq, self.t_pre, self.snm.c_low);
                }
                let pass = p >= self.t_pre;
                if let Some(recal) = &mut self.recal {
                    recal.record(p, pass);
                }
                pass
            })
            .collect()
    }
}

/// Fault state plus the disposal hooks of a per-stream stage: a frame the
/// stage cannot forward still gets its end-to-end latency sample.
fn fault_ctx(inj: FaultInjector, lat: &Histogram) -> StageFaultCtx<InFlight, InFlight> {
    let (lat_q, lat_l) = (lat.clone(), lat.clone());
    StageFaultCtx {
        inj,
        seq_in: Box::new(|(_, lf)| lf.frame.seq),
        seq_out: Box::new(|(_, lf)| lf.frame.seq),
        on_quarantine: Box::new(move |(t0, _)| lat_q.record(elapsed_us(t0))),
        on_lost: Box::new(move |(t0, _)| lat_l.record(elapsed_us(t0))),
    }
}

/// The threaded real-model engine: several streams (one is `n = 1`) run
/// through real pipelines that share **one** T-YOLO thread, exactly as
/// §3.2.3 prescribes — per-stream SDD and SNM stages feed per-stream T-YOLO
/// queues; a single detector thread visits the queues round-robin, takes at
/// most `num_tyolo` frames from each (skipping empty queues), and forwards
/// survivors to per-stream reference stages. Each bank is consumed: its
/// models move into the stream's stages, exactly one owner per filter.
///
/// Every stream's SDD stage is a slot of one `ffsva_sched::pool` stage
/// pool and every SNM stage a slot of another, each with
/// [`stage_workers`]`(n_streams)` workers: a dedicated worker per stream
/// that blocks on its queue while the per-stream threads fit the process,
/// a fixed few sweeping every slot above that. The worker count moves
/// scheduling only — survivor sets, frame counters, and checkpoints are
/// bit-identical across it (`tests/pool_conformance.rs`).
///
/// Every per-stream stage runs under supervision (restart budget
/// `cfg.restart_budget`, exponential backoff from `cfg.restart_backoff_ms`),
/// and the shared T-YOLO is watched for stalls (`cfg.watchdog_deadline_ms`,
/// degraded per `cfg.degrade_policy`). The builder methods are the DES
/// [`Engine`](crate::sim::Engine)'s, plus [`RtEngine::with_drift`].
pub struct RtEngine {
    cfg: FfsVaConfig,
    streams: Vec<(Vec<LabeledFrame>, FilterBank)>,
    plan: FaultPlan,
    src_plan: SourceFaultPlan,
    ckpt: Option<CheckpointSpec>,
    drift: Option<DriftConfig>,
    stage_workers: Option<usize>,
}

/// Run `streams` through an [`RtEngine`] with nothing attached: no faults,
/// no checkpoints, no drift recalibration.
pub fn run_multi_pipeline_rt(
    streams: Vec<(Vec<LabeledFrame>, FilterBank)>,
    cfg: &FfsVaConfig,
) -> MultiRtResult {
    RtEngine::new(*cfg, streams).run()
}

impl RtEngine {
    pub fn new(cfg: FfsVaConfig, streams: Vec<(Vec<LabeledFrame>, FilterBank)>) -> Self {
        assert!(!streams.is_empty(), "need at least one stream");
        RtEngine {
            cfg,
            streams,
            plan: FaultPlan::default(),
            src_plan: SourceFaultPlan::default(),
            ckpt: None,
            drift: None,
            stage_workers: None,
        }
    }

    /// Attach a deterministic stage-fault plan. A stream whose SDD or SNM
    /// exhausts the restart budget is quarantined: its remaining frames are
    /// drained and accounted `frames_quarantined`, its downstream queue is
    /// closed, and every other stream — plus the shared T-YOLO and reference
    /// stages — keeps running untouched.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        self.plan = plan.clone();
        self
    }

    /// Attach a deterministic source-fault plan. When it is non-empty, every
    /// stream's feeder becomes an ingest worker: it pulls from an
    /// [`UnreliableSource`] wrapping the clip, validates each arrival's
    /// checksum (corrupt frames are quarantined, never the stream), restores
    /// order through a bounded [`IngestCore`] reorder gate (late frames are
    /// evicted and accounted), and rides out disconnects with capped
    /// exponential backoff ([`plan_reconnect`]). A stream whose retry budget
    /// is exhausted degrades to `source_lost` — its unread tail is dropped
    /// and accounted, and every sibling stream keeps running untouched.
    pub fn with_source_plan(mut self, plan: &SourceFaultPlan) -> Self {
        plan.validate().expect("invalid source fault plan");
        self.src_plan = plan.clone();
        self
    }

    /// Attach crash-safe checkpointing: every stream's [`StreamCheckpoint`]
    /// goes to the directory's log in one commit after the pipeline drains
    /// (the RT engine checkpoints at end-of-run; the DES also checkpoints
    /// periodically at quiescent boundaries), carrying the thresholds and
    /// SDD reference the stages ended the run with. `spec.resume` re-seeds
    /// counters, survivors, and the source cursor so a killed-and-resumed
    /// run reports telemetry identical to an uninterrupted one.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.ckpt = Some(spec);
        self
    }

    /// Attach online drift recalibration (DESIGN.md §15) to every stream.
    /// The SDD stage feeds each frame's distance to a [`DriftDetector`];
    /// when a regime shift is declared it rebuilds its background reference
    /// from the lowest-distance half of the recent frame window and logs the
    /// frame. The stream's SNM stage judges every later frame against a
    /// `t_pre` re-derived from its recent probability distribution, so the
    /// pre-shift pass rate is preserved; the threshold only ever moves
    /// *down*, and never below the model's `c_low`. `drift.*` counters
    /// record detections, SDD rebuilds and SNM retunes across streams.
    ///
    /// A stream on which the detector never fires is **bit-identical** to
    /// the same stream without drift: the bookkeeping observes decisions but
    /// alters none until a detection lands (pinned by test).
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Test seam: run the SDD and the SNM stage pool on `workers` threads
    /// each instead of [`stage_workers`]`(n_streams)`, so a handful of
    /// streams can exercise the shared sweep.
    pub fn with_stage_workers(mut self, workers: usize) -> Self {
        self.stage_workers = Some(workers.max(1));
        self
    }

    pub fn run(self) -> MultiRtResult {
        let RtEngine {
            cfg,
            streams,
            plan,
            src_plan,
            ckpt,
            drift,
            stage_workers: workers,
        } = self;
        let start = Instant::now();
        let n_streams = streams.len();
        let num_tyolo = cfg.num_tyolo.max(1);
        // any-motion semantics for 0, matching `FrameTrace::tyolo_pass`
        let number_of_objects = cfg.number_of_objects;
        let pool_policy = PoolPolicy {
            workers: workers.unwrap_or_else(|| stage_workers(n_streams)),
            restart_budget: cfg.restart_budget,
            backoff: Duration::from_millis(cfg.restart_backoff_ms),
        };

        let tel = Telemetry::new();
        let lat_e2e = tel.histogram("latency.e2e_us", LATENCY_BOUNDS_US);
        let lat_ref = tel.histogram("latency.ref_us", LATENCY_BOUNDS_US);
        let c_in = tel.counter("pipeline.frames_in");
        let c_batches = tel.counter("snm.batches");
        // Every stream's stage-N queue feeds one shared telemetry bundle, so
        // the series aggregate across streams under a single name — the same
        // scopes the DES engine registers.
        let qt_sdd = QueueTelemetry::register(&tel, "queue.sdd");
        let qt_snm = QueueTelemetry::register(&tel, "queue.snm");
        let qt_tyolo = QueueTelemetry::register(&tel, "queue.tyolo");
        let qt_ref = QueueTelemetry::register(&tel, "queue.reference");
        // engine-private (`rt.`-prefixed) series, excluded from DES↔RT name
        // conformance
        let c_trips = tel.counter("rt.watchdog.trips");
        let c_shed = tel.counter("rt.watchdog.shed");

        let faulty = !src_plan.is_empty();
        // Resume: load per-stream checkpoints and re-seed their counters into
        // the live cells, so the final telemetry reads as one uninterrupted run.
        let mut ckpt_log = ckpt.as_ref().map(|spec| {
            CheckpointLog::open(&spec.dir, spec.resume).expect("open the checkpoint log")
        });
        let bases: Vec<StreamCheckpoint> = match &ckpt {
            Some(spec) if spec.resume => load_all(&spec.dir, n_streams).expect("load checkpoints"),
            _ => (0..n_streams).map(StreamCheckpoint::fresh).collect(),
        };
        for base in &bases {
            for (name, v) in &base.counters {
                tel.counter(name).add(*v);
            }
        }
        // Ingest-fault series exist only when a source plan is active, keeping
        // an unfaulted run's telemetry name-identical to pre-ingest builds.
        let src_counters = faulty.then(|| {
            (
                tel.counter("src.reconnects"),
                tel.counter("src.corrupt"),
                tel.counter("src.reorder_evictions"),
                tel.counter("src.duplicates"),
            )
        });
        let ckpt_tel = ckpt.map(|_| {
            (
                tel.counter("checkpoint.writes"),
                tel.histogram("checkpoint.age_ms", LATENCY_BOUNDS_US),
            )
        });

        // Flipped by the watchdog under `DegradePolicy::Bypass`: SNM-positive
        // frames then route straight to the reference queue.
        let bypass = Arc::new(AtomicBool::new(false));

        let mut total = 0u64;
        let mut sdd_slots = Vec::new();
        let mut snm_slots = Vec::new();
        // The per-stream stage state, kept for the final checkpoint.
        let mut models: Vec<(Arc<Mutex<SddState>>, Arc<Mutex<SnmState>>)> = Vec::new();
        let mut feeders: Vec<std::thread::JoinHandle<SourceReport>> = Vec::new();
        let mut tyolo_qs: Vec<FeedbackQueue<InFlight>> = Vec::new();
        let mut ref_qs: Vec<FeedbackQueue<InFlight>> = Vec::new();
        let mut collectors = Vec::new();
        let mut ref_handles = Vec::new();
        let mut targets = Vec::new();
        let mut tyolo_tels = Vec::new();
        let mut tyolo_injs = Vec::new();
        let mut shared_tyolo: Option<Arc<TinyYolo>> = None;

        for (s, (clip, bank)) in streams.into_iter().enumerate() {
            // A resumed stream restarts at its checkpoint cursor; a stream whose
            // source was already lost has nothing left to read.
            let skip = if bases[s].source_lost {
                clip.len()
            } else {
                (bases[s].cursor as usize).min(clip.len())
            };
            total += (clip.len() - skip) as u64;
            let FilterBank {
                target,
                sdd,
                snm,
                tyolo,
                reference,
                ..
            } = bank;
            targets.push(target);
            // the first bank donates the globally shared detector
            if shared_tyolo.is_none() {
                shared_tyolo = Some(Arc::new(tyolo));
            }
            // Shared with this function, which reads the models, window and
            // running threshold back for the final checkpoint. The `drift.*`
            // series exist (at zero) whenever recalibration is attached.
            let shifts = ShiftLog::default();
            let sdd_state = Arc::new(Mutex::new(SddState {
                sdd,
                watch: drift.map(|d| DriftWatch::new(d, &tel, Arc::clone(&shifts))),
            }));
            let snm_state = Arc::new(Mutex::new(SnmState {
                t_pre: snm.t_pre(cfg.filter_degree),
                snm,
                recal: drift.map(|d| SnmRecal::new(d, &tel, shifts)),
            }));
            models.push((Arc::clone(&sdd_state), Arc::clone(&snm_state)));

            let q_sdd: FeedbackQueue<InFlight> =
                FeedbackQueue::with_telemetry(cfg.sdd_queue_depth.max(1), qt_sdd.clone());
            let q_snm: FeedbackQueue<InFlight> =
                FeedbackQueue::with_telemetry(cfg.snm_queue_depth.max(1), qt_snm.clone());
            let q_tyolo: FeedbackQueue<InFlight> =
                FeedbackQueue::with_telemetry(cfg.tyolo_queue_depth.max(1), qt_tyolo.clone());
            let q_ref: FeedbackQueue<InFlight> =
                FeedbackQueue::with_telemetry(cfg.reference_queue_depth.max(1), qt_ref.clone());
            let q_out: FeedbackQueue<SurvivingFrame> = FeedbackQueue::new(4096);

            tyolo_tels.push(StageTelemetry::register(
                &tel,
                &format!("stream{}.tyolo", s),
            ));
            let ref_tel = StageTelemetry::register(&tel, &format!("stream{}.reference", s));
            tyolo_injs.push(plan.injector(s, FaultStage::TYolo));

            // --- supervised SDD stage (CPU in the paper) ---
            sdd_slots.push(PoolSlot {
                stream: s,
                input: q_sdd.clone(),
                outputs: vec![q_snm.clone()],
                route: Box::new(|_| 0),
                batch: None,
                tel: StageTelemetry::register(&tel, &format!("stream{}.sdd", s)),
                sup_tel: SupervisorTelemetry::register(
                    &tel,
                    &format!("rt.supervisor.stream{}.sdd", s),
                ),
                ctx: fault_ctx(plan.injector(s, FaultStage::Sdd), &lat_e2e),
                work: {
                    let lat = lat_e2e.clone();
                    Box::new(move |mut items: Vec<InFlight>, scratch: &mut Scratch| {
                        let (t0, lf) = items.pop().expect("one frame per SDD quantum");
                        if lock(&sdd_state).passes(&lf.frame, scratch) {
                            items.push((t0, lf));
                        } else {
                            lat.record(elapsed_us(t0));
                        }
                        items
                    })
                },
            });

            // --- supervised SNM stage with batch formation (GPU-0) ---
            // The batched SNM forward is bit-identical to per-frame
            // inference, so batch composition cannot move the survivor set;
            // `snm.batches` is name-conformant only, never value-compared.
            snm_slots.push(PoolSlot {
                stream: s,
                input: q_snm,
                outputs: vec![q_tyolo.clone(), q_ref.clone()],
                route: {
                    let bypass = Arc::clone(&bypass);
                    Box::new(move |_| usize::from(bypass.load(Ordering::Relaxed)))
                },
                batch: Some(cfg.batch_policy),
                tel: StageTelemetry::register(&tel, &format!("stream{}.snm", s)),
                sup_tel: SupervisorTelemetry::register(
                    &tel,
                    &format!("rt.supervisor.stream{}.snm", s),
                ),
                ctx: fault_ctx(plan.injector(s, FaultStage::Snm), &lat_e2e),
                work: {
                    let lat = lat_e2e.clone();
                    let batches = c_batches.clone();
                    let precision = cfg.snm_precision;
                    Box::new(move |batch: Vec<InFlight>, scratch: &mut Scratch| {
                        batches.inc();
                        let frames: Vec<&Frame> = batch.iter().map(|(_, lf)| &lf.frame).collect();
                        let verdicts = lock(&snm_state).passes(&frames, precision, scratch);
                        batch
                            .into_iter()
                            .zip(verdicts)
                            .filter_map(|((t0, lf), pass)| {
                                if pass {
                                    Some((t0, lf))
                                } else {
                                    lat.record(elapsed_us(t0));
                                    None
                                }
                            })
                            .collect()
                    })
                },
            });

            // --- reference stage (GPU-1), shared-fate with the whole run ---
            let lat = lat_e2e.clone();
            let lat_r = lat_ref.clone();
            let ctx: StageFaultCtx<InFlight, SurvivingFrame> = StageFaultCtx {
                inj: plan.injector(s, FaultStage::Reference),
                seq_in: Box::new(|(_, lf)| lf.frame.seq),
                seq_out: Box::new(|sf| sf.seq),
                // validate() forbids panic/failpush on the reference stage, so
                // these hooks are unreachable; stalls need no disposal.
                on_quarantine: Box::new(|_| {}),
                on_lost: Box::new(|_| {}),
            };
            ref_handles.push(spawn_filter_stage_faulted(
                format!("reference-{}", s),
                q_ref.clone(),
                q_out.clone(),
                ref_tel,
                ctx,
                move |(t0, lf): InFlight| {
                    let out = SurvivingFrame {
                        seq: lf.frame.seq,
                        pts_ms: lf.frame.pts_ms,
                        reference_count: reference.count(&lf.truth, target),
                    };
                    let us = elapsed_us(t0);
                    lat.record(us);
                    lat_r.record(us);
                    Some(out)
                },
            ));

            // --- ingest worker: feed the pipeline, defending the cascade from
            // source faults (disconnects, corruption, drops, reorder, dups) ---
            let q_in = q_sdd;
            let frames_in = c_in.clone();
            if faulty {
                let src_tel = StageTelemetry::register(&tel, &format!("stream{}.src", s));
                let inj = src_plan.injector(s);
                let policy = cfg.reconnect_policy();
                let reorder_cap = cfg.reorder_buffer;
                let (c_rec, c_cor, c_evi, c_dup) =
                    src_counters.clone().expect("registered when faulty");
                // One-shot faults aimed below the resume point already fired in
                // the segment that wrote the checkpoint.
                let first_seq = clip.get(skip).map(|lf| lf.frame.seq);
                if let Some(fs) = first_seq {
                    inj.fast_forward(fs);
                }
                feeders.push(std::thread::spawn(move || {
                    let mut src =
                        UnreliableSource::new(ClipSource::starting_at(clip, skip as u64), inj);
                    let mut core = IngestCore::<LabeledFrame>::new(reorder_cap);
                    if let Some(fs) = first_seq {
                        core = core.resume_at(fs);
                    }
                    let mut lost = false;
                    let mut reconnects = 0u64;
                    let deliver = |out: IngestOutput<LabeledFrame>| match out {
                        IngestOutput::Deliver(_, lf) => {
                            if q_in.push((Instant::now(), lf)).is_ok() {
                                frames_in.inc();
                                src_tel.frames_out.inc();
                            }
                        }
                        IngestOutput::Corrupt(..) => {
                            src_tel.frames_quarantined.inc();
                            c_cor.inc();
                        }
                        IngestOutput::Evict(..) => {
                            src_tel.frames_dropped.inc();
                            c_evi.inc();
                        }
                        IngestOutput::Duplicate(..) => c_dup.inc(),
                    };
                    loop {
                        match src.next_item() {
                            SourceItem::Frame {
                                lf,
                                claimed_checksum,
                            } => {
                                let corrupt = frame_checksum(&lf.frame) != claimed_checksum;
                                let seq = lf.frame.seq;
                                for out in core.accept(seq, lf, corrupt) {
                                    deliver(out);
                                }
                            }
                            // silently lost at the source; totalled once below
                            // via `src.dropped()`
                            SourceItem::Dropped { .. } => {}
                            SourceItem::Disconnect { dur_ms } => {
                                match plan_reconnect(dur_ms, policy) {
                                    ReconnectOutcome::Reconnected { waited_ms, .. } => {
                                        reconnects += 1;
                                        c_rec.inc();
                                        std::thread::sleep(Duration::from_millis(waited_ms));
                                    }
                                    ReconnectOutcome::Lost { .. } => {
                                        // Retry budget exhausted: everything still in
                                        // flight or unread is lost with the link.
                                        lost = true;
                                        src_tel.frames_dropped.add(src.abandon());
                                        break;
                                    }
                                }
                            }
                            SourceItem::End => break,
                        }
                    }
                    // Flush the reorder gate even after link loss: held frames
                    // were already received on our side of the link. The DES
                    // ingest prep drains its gate identically.
                    for out in core.finish() {
                        deliver(out);
                    }
                    src_tel.frames_dropped.add(src.dropped());
                    src_tel.frames_in.add(src.position() - skip as u64);
                    q_in.close();
                    SourceReport {
                        cursor: src.position(),
                        source_lost: lost,
                        reconnects,
                        stats: core.stats(),
                    }
                }));
            } else {
                feeders.push(std::thread::spawn(move || {
                    let mut fed = 0u64;
                    for lf in clip.into_iter().skip(skip) {
                        if q_in.push((Instant::now(), lf)).is_err() {
                            break;
                        }
                        frames_in.inc();
                        fed += 1;
                    }
                    q_in.close();
                    SourceReport {
                        cursor: skip as u64 + fed,
                        source_lost: false,
                        reconnects: 0,
                        stats: IngestStats {
                            delivered: fed,
                            ..IngestStats::default()
                        },
                    }
                }));
            }

            tyolo_qs.push(q_tyolo);
            ref_qs.push(q_ref);
            // Survivors drain concurrently — draining sequentially could
            // deadlock: a full output queue on stream B would backpressure the
            // shared T-YOLO while the main thread still waits on stream A.
            // Resume: survivors collected before the checkpoint precede this
            // run's.
            let mut kept = bases[s].survivors.clone();
            collectors.push(std::thread::spawn(move || {
                while let Some(sf) = q_out.pop() {
                    kept.push(sf);
                }
                kept
            }));
        }

        // One pool per stage; their names are the stage-name prefixes
        // failures and injected-panic payloads carry (`sdd-3`).
        let [sdd_pool, snm_pool] = [("sdd", sdd_slots), ("snm", snm_slots)].map(|(name, slots)| {
            spawn_stage_pool(
                name,
                pool_policy,
                slots,
                (0..pool_policy.workers).map(|_| Scratch::new()).collect(),
                PoolTelemetry::register(&tel, &format!("rt.pool.{}", name)),
            )
        });

        // The single shared T-YOLO thread.
        let tyolo = shared_tyolo.expect("at least one stream");
        let tyolo_in = tyolo_qs.clone();
        let tyolo_out = ref_qs;
        let ty_precision = cfg.tyolo_precision;
        let c_cycles = tel.counter("tyolo.cycles");
        let lat = lat_e2e.clone();
        let tyolo_progress = Arc::new(AtomicU64::new(0));
        let progress = Arc::clone(&tyolo_progress);
        let injs = tyolo_injs;
        let tyolo_handle = std::thread::Builder::new()
            .name("tyolo-shared".into())
            .spawn(move || {
                let mut processed = 0u64;
                let mut scratch = Scratch::new();
                loop {
                    let mut any = false;
                    let mut all_closed = true;
                    for s in 0..n_streams {
                        if !tyolo_in[s].is_closed() || !tyolo_in[s].is_empty() {
                            all_closed = false;
                        }
                        // §3.2.3: at most num_tyolo frames per stream per cycle
                        for (t0, lf) in tyolo_in[s].try_pop_up_to(num_tyolo) {
                            any = true;
                            let seq = lf.frame.seq;
                            // the only injectable T-YOLO faults are stalls (the
                            // watchdog's trigger) and lost pushes
                            if let FaultAction::Stall(us) = injs[s].check(seq) {
                                std::thread::sleep(Duration::from_micros(us));
                            }
                            processed += 1;
                            tyolo_tels[s].frames_in.inc();
                            if tyolo_count(
                                &tyolo,
                                ty_precision,
                                &lf.frame,
                                targets[s],
                                &mut scratch,
                            ) >= number_of_objects
                            {
                                if injs[s].fail_push(seq) {
                                    tyolo_tels[s].frames_dropped.inc();
                                    lat.record(elapsed_us(t0));
                                } else {
                                    tyolo_tels[s].frames_out.inc();
                                    let _ = tyolo_out[s].push((t0, lf));
                                }
                            } else {
                                tyolo_tels[s].frames_dropped.inc();
                                lat.record(elapsed_us(t0));
                            }
                            progress.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if any {
                        c_cycles.inc();
                    }
                    if all_closed {
                        break;
                    }
                    if !any {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                for q in &tyolo_out {
                    q.close();
                }
                processed
            })
            .expect("spawn shared tyolo");

        // Watchdog over the shared T-YOLO's progress heartbeat. `Block` is the
        // do-nothing policy, so the watchdog only spawns when a degradation
        // action exists to fire.
        let watchdog = if cfg.watchdog_deadline_ms > 0 && cfg.degrade_policy != DegradePolicy::Block
        {
            let backlog_qs = tyolo_qs.clone();
            let on_stall: Box<dyn FnMut() + Send> = match cfg.degrade_policy {
                DegradePolicy::ShedOldest { max_lag_ms } => {
                    let qs = tyolo_qs.clone();
                    let lat = lat_e2e.clone();
                    let shed = c_shed.clone();
                    Box::new(move || {
                        for q in &qs {
                            for (t0, _) in q.drain_while(|(t0, _)| {
                                t0.elapsed().as_millis() as u64 >= max_lag_ms
                            }) {
                                shed.inc();
                                lat.record(elapsed_us(t0));
                            }
                        }
                    })
                }
                DegradePolicy::Bypass => {
                    let bypass = Arc::clone(&bypass);
                    Box::new(move || bypass.store(true, Ordering::Relaxed))
                }
                DegradePolicy::Block => Box::new(|| {}),
            };
            Some(Watchdog::spawn(
                Duration::from_millis(cfg.watchdog_deadline_ms),
                c_trips.clone(),
                vec![WatchEntry {
                    name: "tyolo-shared".into(),
                    progress: tyolo_progress,
                    backlog: Box::new(move || backlog_qs.iter().map(|q| q.len()).sum()),
                    on_stall,
                }],
            ))
        } else {
            None
        };

        let survivors: Vec<Vec<SurvivingFrame>> = collectors
            .into_iter()
            .map(|c| c.join().expect("collector"))
            .collect();
        let reports: Vec<SourceReport> = feeders
            .into_iter()
            .map(|f| f.join().expect("feeder"))
            .collect();
        let (sdd_outcomes, snm_outcomes) = (sdd_pool.join(), snm_pool.join());
        let tyolo_n = tyolo_handle.join().expect("tyolo thread");
        let ref_n: u64 = ref_handles
            .into_iter()
            .map(|h| h.join().expect("reference stage"))
            .sum();
        if let Some(wd) = watchdog {
            wd.stop();
        }

        // Final checkpoints: every stage has joined, so all counters are
        // quiescent. Written before the final snapshot so `checkpoint.writes`
        // lands in the reported telemetry.
        if let Some(log) = &mut ckpt_log {
            let snap = tel.snapshot();
            let (c_writes, h_age) = ckpt_tel.as_ref().expect("registered with spec");
            let mut cks = Vec::with_capacity(n_streams);
            for s in 0..n_streams {
                let mut ck = StreamCheckpoint::fresh(s);
                ck.cursor = reports[s].cursor.max(bases[s].cursor);
                ck.survivors = survivors[s].clone();
                // The live stage state, not a pre-run copy: a drift rebuild or
                // a lowered `t_pre` is what a resumed run must start from.
                let (sdd_st, snm_st) = (lock(&models[s].0), lock(&models[s].1));
                ck.thresholds = Some(StreamThresholds {
                    delta_diff: sdd_st.sdd.delta_diff,
                    t_pre: snm_st.t_pre,
                    number_of_objects: cfg.number_of_objects,
                });
                ck.sdd = Some(sdd_st.sdd.clone());
                ck.snm_thresholds = Some((snm_st.snm.c_low, snm_st.snm.c_high));
                ck.restarts_used = bases[s].restarts_used
                    + u64::from(sdd_outcomes[s].restarts())
                    + u64::from(snm_outcomes[s].restarts());
                ck.source_lost = bases[s].source_lost || reports[s].source_lost;
                let r = &reports[s];
                let src = faulty.then_some([
                    r.reconnects,
                    r.stats.corrupt,
                    r.stats.evicted,
                    r.stats.duplicates,
                ]);
                ck.bank_counters(&bases[s], &snap, r.stats.delivered, src);
                cks.push(ck);
                c_writes.inc();
                h_age.record(start.elapsed().as_secs_f64() * 1e3);
            }
            log.commit(&cks).expect("write checkpoint");
        }

        let wall = start.elapsed().as_secs_f64();
        tel.counter("rt.wall_time_us").add((wall * 1e6) as u64);
        let snapshot = tel.snapshot();

        let sdd_n: u64 = sdd_outcomes.iter().map(StageOutcome::processed).sum();
        let snm_n: u64 = snm_outcomes.iter().map(StageOutcome::processed).sum();
        let stream_health: Vec<StreamHealth> = (0..n_streams)
            .map(|s| {
                let (sdd_o, snm_o) = (&sdd_outcomes[s], &snm_outcomes[s]);
                let failed_stage = if sdd_o.gave_up() {
                    Some("sdd".to_string())
                } else if snm_o.gave_up() {
                    Some("snm".to_string())
                } else {
                    None
                };
                StreamHealth {
                    quarantined: failed_stage.is_some(),
                    failed_stage,
                    restarts: u64::from(sdd_o.restarts()) + u64::from(snm_o.restarts()),
                    frames_quarantined: snapshot
                        .counter(&format!("stream{}.sdd.frames_quarantined", s))
                        + snapshot.counter(&format!("stream{}.snm.frames_quarantined", s)),
                    source_lost: bases[s].source_lost || reports[s].source_lost,
                }
            })
            .collect();

        MultiRtResult {
            total_frames: total,
            stage_processed: [sdd_n, snm_n, tyolo_n, ref_n],
            survivors,
            wall_time_s: wall,
            throughput_fps: total as f64 / wall.max(1e-9),
            stream_health,
            shed_frames: snapshot.counter("rt.watchdog.shed"),
            telemetry: snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsva_models::bank::BankOptions;
    use ffsva_models::snm::SnmTrainOptions;
    use ffsva_video::prelude::*;
    use ffsva_video::workloads;
    use rand::SeedableRng;

    fn quick_bank_opts() -> BankOptions {
        BankOptions {
            snm: SnmTrainOptions {
                epochs: 10,
                batch_size: 16,
                lr: 0.08,
                train_frac: 0.7,
                max_samples: 300,
                restarts: 2,
            },
            ..Default::default()
        }
    }

    #[test]
    fn rt_pipeline_filters_most_frames_at_low_tor() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cfg_v = workloads::test_tiny(ObjectClass::Car, 0.2, 31);
        let mut s = VideoStream::new(0, cfg_v);
        let train = s.clip(1500);
        let bank = FilterBank::build(&train, ObjectClass::Car, &quick_bank_opts(), &mut rng);
        let eval = s.clip(900);
        let targets = eval
            .iter()
            .filter(|lf| lf.truth.count_complete(ObjectClass::Car) > 0)
            .count();

        let cfg = FfsVaConfig::default();
        let r = run_multi_pipeline_rt(vec![(eval, bank)], &cfg);
        let survivors = &r.survivors[0];
        assert_eq!(r.total_frames, 900);
        assert_eq!(r.stage_processed[0], 900, "SDD sees all frames");
        // cascade shrinks the load monotonically
        assert!(r.stage_processed[1] <= r.stage_processed[0]);
        assert!(r.stage_processed[2] <= r.stage_processed[1]);
        assert!(r.stage_processed[3] <= r.stage_processed[2]);
        // most frames never reach the reference model
        assert!(
            (r.stage_processed[3] as f64) < 0.6 * 900.0,
            "reference saw {}",
            r.stage_processed[3]
        );
        // and the survivors cover a sensible share of true target frames
        assert!(
            survivors.len() as f64 > 0.4 * targets as f64,
            "{} survivors vs {} target frames",
            survivors.len(),
            targets
        );
        // telemetry frame counters mirror the stage handles exactly
        let snap = &r.telemetry;
        assert_eq!(snap.counter("pipeline.frames_in"), 900);
        for (i, stage) in ["sdd", "snm", "tyolo", "reference"].iter().enumerate() {
            assert_eq!(
                snap.counter(&format!("stream0.{}.frames_in", stage)),
                r.stage_processed[i],
                "{} frames_in",
                stage
            );
            assert_eq!(
                snap.counter(&format!("stream0.{}.frames_in", stage)),
                snap.counter(&format!("stream0.{}.frames_out", stage))
                    + snap.counter(&format!("stream0.{}.frames_dropped", stage)),
                "{} conservation",
                stage
            );
        }
        assert_eq!(
            snap.counter("stream0.reference.frames_out"),
            survivors.len() as u64
        );
        // every frame was disposed with an end-to-end latency sample
        assert_eq!(snap.histograms["latency.e2e_us"].count, 900);
        assert_eq!(
            snap.histograms["latency.ref_us"].count,
            r.stage_processed[3]
        );
        assert!(snap.histograms["queue.sdd.depth_on_push"].count >= 900);
    }

    #[test]
    fn multi_stream_rt_shares_one_tyolo_and_matches_trace_math() {
        use crate::accuracy::cascade_pass;
        use crate::config::StreamThresholds;

        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cfg = FfsVaConfig::default();
        let mut streams = Vec::new();
        let mut expected = Vec::new();
        for seed in [41u64, 42] {
            let vcfg = workloads::test_tiny(ObjectClass::Car, 0.3, seed);
            let mut cam = VideoStream::new(seed as u32, vcfg);
            let training = cam.clip(1200);
            let mut bank_for_trace =
                FilterBank::build(&training, ObjectClass::Car, &quick_bank_opts(), &mut rng);
            // identical twin bank for the pipeline (same rng stream)
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(9 ^ seed);
            let _ = &mut rng2;
            let clip = cam.clip(400);
            let th = StreamThresholds {
                delta_diff: bank_for_trace.sdd.delta_diff,
                t_pre: bank_for_trace.snm.t_pre(cfg.filter_degree),
                number_of_objects: cfg.number_of_objects,
            };
            let n_expected = bank_for_trace
                .trace_clip(&clip)
                .iter()
                .filter(|t| cascade_pass(t, &th))
                .count();
            expected.push(n_expected);
            streams.push((clip, bank_for_trace));
        }
        // NOTE: the trace banks are moved into the pipeline, so the traced
        // thresholds and pipeline thresholds are byte-identical.
        let r = run_multi_pipeline_rt(streams, &cfg);
        assert_eq!(r.total_frames, 800);
        assert_eq!(r.stage_processed[0], 800);
        assert_eq!(r.survivors.len(), 2);
        // an unfaulted run reports every stream healthy and sheds nothing
        assert_eq!(r.stream_health.len(), 2);
        assert!(r.stream_health.iter().all(|h| h.healthy()));
        assert_eq!(r.quarantined_frames(), 0);
        assert_eq!(r.shed_frames, 0);
        for (s, n_expected) in expected.iter().enumerate() {
            assert_eq!(r.survivors[s].len(), *n_expected, "stream {} survivors", s);
            // FIFO order preserved per stream
            for w in r.survivors[s].windows(2) {
                assert!(w[0].seq < w[1].seq);
            }
        }
    }

    #[test]
    fn recal_pipeline_is_bit_identical_when_no_drift_fires() {
        let cfg_v = workloads::test_tiny(ObjectClass::Car, 0.3, 11);
        let mut s = VideoStream::new(0, cfg_v);
        let train = s.clip(1200);
        // identically trained twin banks (each run consumes its bank)
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let bank_a = FilterBank::build(&train, ObjectClass::Car, &quick_bank_opts(), &mut r1);
        let bank_b = FilterBank::build(&train, ObjectClass::Car, &quick_bank_opts(), &mut r2);
        let eval = s.clip(400);
        let cfg = FfsVaConfig::default();
        // a ratio no real series can cross: the detector never fires, so
        // the engine with drift attached must match the plain one bit for bit
        let drift = DriftConfig {
            window: 100,
            ratio: 1e9,
            cooldown: 0,
            floor: 1e-4,
        };
        let plain = RtEngine::new(cfg, vec![(eval.clone(), bank_a)]).run();
        let recal = RtEngine::new(cfg, vec![(eval, bank_b)])
            .with_drift(drift)
            .run();
        assert_eq!(plain.survivors, recal.survivors);
        assert_eq!(plain.stage_processed, recal.stage_processed);
        assert_eq!(recal.telemetry.counter("drift.detections"), 0);
        assert_eq!(recal.telemetry.counter("drift.sdd_rebuilds"), 0);
        assert_eq!(recal.telemetry.counter("drift.snm_retunes"), 0);
    }

    #[test]
    fn rt_pipeline_preserves_frame_order_per_stage() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cfg_v = workloads::test_tiny(ObjectClass::Car, 0.4, 77);
        let mut s = VideoStream::new(0, cfg_v);
        let train = s.clip(1200);
        let bank = FilterBank::build(&train, ObjectClass::Car, &quick_bank_opts(), &mut rng);
        let eval = s.clip(400);
        let r = run_multi_pipeline_rt(vec![(eval, bank)], &FfsVaConfig::default());
        // FIFO stages + FIFO queues => survivors arrive in seq order
        for w in r.survivors[0].windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}

//! The discrete-event execution engine for an FFS-VA instance.
//!
//! Models the paper's four-stage pipeline (Fig. 2) on the simulated device
//! substrate: per-stream SDDs on CPU lanes, per-stream SNMs and the shared
//! T-YOLO on GPU-0, the full-feature reference model alone on GPU-1. All
//! queues are bounded at their depth thresholds; a full downstream queue
//! stalls the upstream filter — the global feedback mechanism (§4.3.1).
//! Filter decisions are looked up in pre-computed [`FrameTrace`]s (the pixel
//! models run once per clip; see `ffsva-models::bank`), so parameter sweeps
//! re-run only the scheduling, exactly like the paper sweeps one knob at a
//! time on fixed videos.

use crate::checkpoint::{load_all, CheckpointLog, CheckpointSpec, StreamCheckpoint};
use crate::config::{FfsVaConfig, StreamThresholds};
use crate::rt_engine::SurvivingFrame;
use ffsva_models::cost::{sdd_cost, snm_cost, tyolo_cost, yolov2_cost};
use ffsva_models::FrameTrace;
use ffsva_sched::{
    Device, DeviceKind, EventQueue, FaultAction, FaultInjector, FaultPlan, FaultStage, IngestCore,
    IngestOutput, LatencyStats, ModelKey, SimQueue,
};
use ffsva_telemetry::{
    Counter, Histogram, QueueTelemetry, StageTelemetry, Telemetry, TelemetrySnapshot,
    LATENCY_BOUNDS_US,
};
use ffsva_video::{
    plan_reconnect, ReconnectOutcome, ReconnectPolicy, SourceEvent, SourceFaultPlan,
    SourceInjector, Turbulence,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

const GB: u64 = 1024 * 1024 * 1024;

/// Execution mode of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Frames arrive in real time at the stream frame rate; the system must
    /// keep up (§2.3 "online").
    Online,
    /// All frames are available immediately; finish as fast as possible
    /// (§2.3 "offline").
    Offline,
}

/// One stream's input to the engine: its decision trace and thresholds.
#[derive(Debug, Clone)]
pub struct StreamInput {
    pub traces: Vec<FrameTrace>,
    pub thresholds: StreamThresholds,
}

/// A frame travelling through the simulated pipeline.
#[derive(Debug, Clone, Copy)]
struct Token {
    stream: usize,
    idx: usize,
    arrival_us: f64,
}

/// Pipeline stages, used for drop accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Sdd = 0,
    Snm = 1,
    TYolo = 2,
    Reference = 3,
}

#[derive(Debug)]
enum Ev {
    /// Online frame arrival for a stream.
    Arrival { stream: usize },
    /// An SDD invocation finished.
    SddDone { stream: usize, tokens: Vec<Token> },
    /// An SNM invocation finished.
    SnmDone { stream: usize, tokens: Vec<Token> },
    /// A T-YOLO cycle finished on a filter GPU.
    TYoloDone { tokens: Vec<Token> },
    /// The reference model finished one frame on a reference GPU.
    RefDone { token: Token, gpu: usize },
}

struct StreamState {
    input: StreamInput,
    /// Next frame index to arrive (online) or prefetch (offline).
    next_idx: usize,
    /// Arrived frames waiting because the SDD queue was full (online).
    backlog: VecDeque<Token>,
    max_backlog: usize,
    sdd_q: SimQueue<Token>,
    snm_q: SimQueue<Token>,
    tyolo_q: SimQueue<Token>,
    sdd_busy: bool,
    snm_busy: bool,
    /// Frames that passed a stage but could not be pushed downstream
    /// (downstream queue full). The stage stalls while non-empty.
    sdd_out_pending: VecDeque<Token>,
    snm_out_pending: VecDeque<Token>,
    first_disposed_us: f64,
    last_disposed_us: f64,
    disposed: u64,
    /// Set when an injected panic quarantined this stream at a stage: from
    /// then on every frame reaching that stage is disposed as quarantined
    /// while upstream stages keep draining (mirrors the RT give-up drain).
    quarantined_at: Option<Stage>,
    quarantined_frames: u64,
    /// Ingest pre-computation under a source-fault plan (`None` = pristine
    /// source, the identity path: every trace index is admitted in order).
    ingest: Option<IngestPrep>,
    /// Frames that completed the full cascade, in completion order.
    survivors: Vec<SurvivingFrame>,
    /// Resume base loaded from a checkpoint (fresh unless resuming).
    base: StreamCheckpoint,
    /// `disposed` at the last checkpoint write (periodic cadence anchor).
    last_ckpt_disposed: u64,
    /// Virtual time of the last checkpoint write (`checkpoint.age_ms`).
    last_ckpt_us: f64,
}

impl StreamState {
    /// Frames this stream admits into the cascade.
    fn admit_len(&self) -> usize {
        self.ingest
            .as_ref()
            .map_or(self.input.traces.len(), |p| p.admit.len())
    }

    /// Trace index of the `pos`-th admitted frame.
    fn admit_idx(&self, pos: usize) -> usize {
        self.ingest.as_ref().map_or(pos, |p| p.admit[pos])
    }

    /// Extra arrival delay carried by the `pos`-th admitted frame
    /// (reconnect backoff riding on the first delivery after an outage).
    fn arrival_delay_us(&self, pos: usize) -> f64 {
        self.ingest
            .as_ref()
            .map_or(0.0, |p| p.delay_us.get(pos).copied().unwrap_or(0.0))
    }

    /// Whether this stream's source has been given up as lost, now or in a
    /// checkpointed previous segment.
    fn source_lost(&self) -> bool {
        self.base.source_lost || self.ingest.as_ref().map_or(false, |p| p.source_lost)
    }

    fn exhausted_upstream(&self) -> bool {
        self.next_idx >= self.admit_len() && self.backlog.is_empty()
    }

    fn trace(&self, idx: usize) -> &FrameTrace {
        &self.input.traces[idx]
    }
}

/// Pre-computed ingest outcome for one stream under a source-fault plan.
///
/// The DES has no wall clock against which source weather could unfold, so
/// it resolves the whole ingest timeline eagerly — running the same
/// [`Turbulence`] → [`IngestCore`] → [`plan_reconnect`] decision chain the
/// RT ingest workers execute frame by frame. Both engines therefore
/// classify every source frame identically, and the `src` counters agree
/// bit for bit.
struct IngestPrep {
    /// Trace indices admitted into the cascade, in delivery order.
    admit: Vec<usize>,
    /// Extra arrival delay (µs) carried by each admitted frame: reconnect
    /// backoff charged to the first delivery after a survived outage.
    delay_us: Vec<f64>,
    /// Source frames consumed when each admitted frame was emitted — the
    /// checkpoint cursor at that delivery point.
    cursor_after: Vec<u64>,
    /// Unique source frames the stream generated (delivered or not).
    frames_in: u64,
    /// Frames silently lost at the source (drop faults).
    src_dropped: u64,
    /// Frames whose payload failed checksum validation (quarantined).
    corrupt: u64,
    /// Frames that arrived too late for the reorder window.
    evicted: u64,
    /// Extra copies of frames already seen (counted, not conserved).
    duplicates: u64,
    /// Outages survived via retry/backoff.
    reconnects: u64,
    /// Distinct frames lost with the link when the retry budget ran out:
    /// in flight at the loss point plus the unpulled tail.
    lost_with_link: u64,
    source_lost: bool,
}

impl IngestPrep {
    /// Record ingest-core outputs: deliveries join the admit schedule (the
    /// first after an outage carries the accumulated backoff delay).
    fn absorb(&mut self, outs: Vec<IngestOutput<usize>>, pending_delay_us: &mut f64, pulled: u64) {
        for out in outs {
            if let IngestOutput::Deliver(_, idx) = out {
                self.admit.push(idx);
                self.delay_us.push(*pending_delay_us);
                *pending_delay_us = 0.0;
                self.cursor_after.push(pulled);
            }
        }
    }
}

/// Run one stream's traces through the shared ingest decision chain.
fn prep_ingest(
    traces: &[FrameTrace],
    inj: SourceInjector,
    reorder_cap: usize,
    policy: ReconnectPolicy,
) -> IngestPrep {
    let mut prep = IngestPrep {
        admit: Vec::new(),
        delay_us: Vec::new(),
        cursor_after: Vec::new(),
        frames_in: traces.len() as u64,
        src_dropped: 0,
        corrupt: 0,
        evicted: 0,
        duplicates: 0,
        reconnects: 0,
        lost_with_link: 0,
        source_lost: false,
    };
    let mut turb: Turbulence<usize> = Turbulence::new(inj);
    let mut core: IngestCore<usize> = IngestCore::new(reorder_cap);
    let mut pending_delay_us = 0.0f64;
    let mut pulled = 0u64;
    let mut lost = false;
    // distinct frames caught in flight when the link is written off (the RT
    // wrapper's `abandon` dedupes identically)
    let mut lost_seqs: BTreeSet<u64> = BTreeSet::new();
    for (idx, tr) in traces.iter().enumerate() {
        pulled += 1;
        for ev in turb.feed(tr.seq, idx) {
            match ev {
                SourceEvent::Disconnect { dur_ms } => {
                    if lost {
                        continue;
                    }
                    match plan_reconnect(dur_ms, policy) {
                        ReconnectOutcome::Reconnected { waited_ms, .. } => {
                            prep.reconnects += 1;
                            pending_delay_us += waited_ms as f64 * 1e3;
                        }
                        ReconnectOutcome::Lost { .. } => lost = true,
                    }
                }
                // totalled once at the end via `turb.dropped()`
                SourceEvent::Dropped { .. } => {}
                SourceEvent::Frame { seq, item, corrupt } => {
                    if lost {
                        lost_seqs.insert(seq);
                    } else {
                        let outs = core.accept(seq, item, corrupt);
                        prep.absorb(outs, &mut pending_delay_us, pulled);
                    }
                }
            }
        }
        if lost {
            break;
        }
    }
    if lost {
        for ev in turb.finish() {
            if let SourceEvent::Frame { seq, .. } = ev {
                lost_seqs.insert(seq);
            }
        }
        prep.lost_with_link = lost_seqs.len() as u64 + (traces.len() as u64 - pulled);
    } else {
        // end of stream: reorder holds mature before the gate flushes
        for ev in turb.finish() {
            if let SourceEvent::Frame { seq, item, corrupt } = ev {
                let outs = core.accept(seq, item, corrupt);
                prep.absorb(outs, &mut pending_delay_us, pulled);
            }
        }
    }
    // Flush the reorder gate even after a loss: frames it holds were already
    // received on our side of the link, so they still feed the cascade (the
    // RT worker drains its gate identically before reporting `SourceLost`).
    let outs = core.finish();
    prep.absorb(outs, &mut pending_delay_us, pulled);
    prep.src_dropped = turb.dropped();
    let stats = core.stats();
    prep.corrupt = stats.corrupt;
    prep.evicted = stats.evicted;
    prep.duplicates = stats.duplicates;
    prep.source_lost = lost;
    prep
}

/// Per-frame stage timestamps recorded when tracing is enabled
/// ([`Engine::with_tracing`]). `f64::NAN` marks stages the frame never
/// reached; `dropped_at` names the filter that discarded it (`None` = the
/// frame survived to the reference model).
#[derive(Debug, Clone, Copy)]
pub struct FrameTimeline {
    pub arrival_us: f64,
    pub sdd_done_us: f64,
    pub snm_done_us: f64,
    pub tyolo_done_us: f64,
    pub reference_done_us: f64,
    pub dropped_at: Option<Stage>,
}

impl Default for FrameTimeline {
    fn default() -> Self {
        FrameTimeline {
            arrival_us: f64::NAN,
            sdd_done_us: f64::NAN,
            snm_done_us: f64::NAN,
            tyolo_done_us: f64::NAN,
            reference_done_us: f64::NAN,
            dropped_at: None,
        }
    }
}

/// Result of one engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    pub mode_online: bool,
    pub num_streams: usize,
    pub total_frames: u64,
    /// Virtual time from first arrival to last disposition (µs).
    pub makespan_us: f64,
    /// Aggregate throughput over all streams (frames/s).
    pub throughput_fps: f64,
    /// Per-stream achieved frame rate (frames / stream active time).
    pub per_stream_fps: Vec<f64>,
    /// Per-stream total execution span (first to last disposition, µs).
    pub per_stream_span_us: Vec<f64>,
    /// Largest prefetch backlog seen per stream (online pressure signal).
    pub per_stream_max_backlog: Vec<usize>,
    /// Frames *executed* by each stage: SDD, SNM, T-YOLO, reference (Fig. 5).
    pub stage_executed: [u64; 4],
    /// Frames dropped by SDD, SNM, T-YOLO.
    pub stage_dropped: [u64; 3],
    /// End-to-end latency of every frame (arrival → final disposition).
    pub mean_latency_us: f64,
    pub p50_latency_us: f64,
    pub p99_latency_us: f64,
    pub max_latency_us: f64,
    /// Latency of frames that traversed the whole cascade to the reference
    /// model (the user-visible detection delay the paper plots).
    pub mean_ref_latency_us: f64,
    pub p99_ref_latency_us: f64,
    /// Per-stream mean reference-path latency (inter-stream fairness).
    pub per_stream_mean_ref_latency_us: Vec<f64>,
    /// Device utilizations over the makespan.
    pub cpu_utilization: f64,
    pub gpu0_utilization: f64,
    pub gpu1_utilization: f64,
    /// T-YOLO processing rate over the makespan (admission signal, §4.3.1).
    pub tyolo_fps: f64,
    /// SNM invocations and model switches on GPU-0 (batching ablation).
    pub snm_invocations: u64,
    pub snm_switches: u64,
    /// Mean SNM batch size actually formed.
    pub mean_snm_batch: f64,
    /// Frames disposed as quarantined per stream (an injected panic killed
    /// the stream's SDD or SNM; zero everywhere in unfaulted runs).
    #[serde(default)]
    pub per_stream_quarantined: Vec<u64>,
    /// Frames that survived the full cascade, per stream, in completion
    /// order. Resumed runs include the checkpointed prefix, so a killed
    /// run plus its resume reports the same set as an uninterrupted one.
    #[serde(default)]
    pub per_stream_survivors: Vec<Vec<SurvivingFrame>>,
    /// Streams whose source was given up as lost (reconnect retry budget
    /// exhausted), now or in a checkpointed previous segment.
    #[serde(default)]
    pub per_stream_source_lost: Vec<bool>,
    /// Every named series the run emitted (DESIGN.md §Telemetry). Frame
    /// counters carry the same names and values as the RT engine's.
    #[serde(default)]
    pub telemetry: TelemetrySnapshot,
}

impl SimResult {
    /// Whether the instance kept up with the live frame rate. §4.3.1: "as
    /// long as the foremost prefetching process can keep at least 30 FPS,
    /// the video stream is being analyzed in real-time" — transient bursts
    /// may queue for seconds (§5.2 accepts latencies of several seconds),
    /// but the system must *drain* at the arrival rate: the run must finish
    /// within a small slack after the last frame arrives.
    pub fn realtime(&self, fps: u32) -> bool {
        let frames_per_stream = self.total_frames as f64 / self.num_streams.max(1) as f64;
        let arrival_span_us = frames_per_stream * 1e6 / fps.max(1) as f64;
        const SLACK_US: f64 = 3.0e6; // tolerate a few seconds of queued tail
        self.makespan_us <= arrival_span_us + SLACK_US
    }
}

/// What a consumed engine leaves: the report, each stream's end-of-segment
/// checkpoint (when asked for), the frame timelines (when traced).
type Finished = (SimResult, Vec<StreamCheckpoint>, Vec<Vec<FrameTimeline>>);

/// The engine itself.
pub struct Engine {
    cfg: FfsVaConfig,
    mode: Mode,
    streams: Vec<StreamState>,
    cpu: Vec<Device>,
    /// GPUs hosting the SNMs and T-YOLO replicas (GPU-0 in the paper;
    /// §4.3.2 Note: "tasks of SNM or T-YOLO can be reasonably distributed
    /// across multiple GPUs").
    filter_gpus: Vec<Device>,
    /// GPUs dedicated to the reference model (GPU-1 in the paper).
    ref_gpus: Vec<Device>,
    events: EventQueue<Ev>,
    /// In-flight T-YOLO cycles (at most one per filter GPU).
    tyolo_inflight: usize,
    tyolo_out_pending: VecDeque<Token>,
    tyolo_rr: usize,
    ref_q: SimQueue<Token>,
    ref_busy: Vec<bool>,
    latency: LatencyStats,
    ref_latency: LatencyStats,
    per_stream_ref_latency: Vec<LatencyStats>,
    stage_executed: [u64; 4],
    stage_dropped: [u64; 3],
    tyolo_frames: u64,
    snm_batches: u64,
    snm_batched_frames: u64,
    timelines: Option<Vec<Vec<FrameTimeline>>>,
    /// Per-stream, per-[`Stage`] fault injectors (noop unless a
    /// [`FaultPlan`] was attached with [`Engine::with_fault_plan`]).
    injectors: Vec<[FaultInjector; 4]>,
    /// Source-fault plan (ingest weather), attached via
    /// [`Engine::with_source_plan`]; `None` keeps the pristine feed path and
    /// leaves the `src` telemetry scopes unregistered.
    source_plan: Option<SourceFaultPlan>,
    /// Crash-safe checkpointing, attached via [`Engine::with_checkpoint`]:
    /// the write cadence in frames and the directory's log.
    ckpt: Option<(u64, CheckpointLog)>,
    c_ckpt_writes: Option<Counter>,
    h_ckpt_age: Option<Histogram>,
    telemetry: Telemetry,
    /// Per-stream per-stage frame accounting (`stream{s}.{stage}.frames_*`),
    /// indexed by [`Stage`].
    stage_tel: Vec<[StageTelemetry; 4]>,
    c_frames_in: Counter,
    c_snm_batches: Counter,
    c_tyolo_cycles: Counter,
    h_e2e: Histogram,
    h_ref: Histogram,
}

impl Engine {
    pub fn new(cfg: FfsVaConfig, mode: Mode, inputs: Vec<StreamInput>) -> Self {
        assert!(!inputs.is_empty(), "need at least one stream");
        let snm_cap = if cfg.batch_policy.bounds_queue() {
            cfg.snm_queue_depth
        } else {
            usize::MAX / 4 // static batching implies unbounded SNM queues
        };
        // Every stream's stage-N queue feeds one shared telemetry bundle,
        // so the series aggregate across streams under a single name — the
        // same scopes the RT engine registers.
        let telemetry = Telemetry::new();
        let qt_sdd = QueueTelemetry::register(&telemetry, "queue.sdd");
        let qt_snm = QueueTelemetry::register(&telemetry, "queue.snm");
        let qt_tyolo = QueueTelemetry::register(&telemetry, "queue.tyolo");
        let qt_ref = QueueTelemetry::register(&telemetry, "queue.reference");
        let stage_tel: Vec<[StageTelemetry; 4]> = (0..inputs.len())
            .map(|s| {
                [
                    StageTelemetry::register(&telemetry, &format!("stream{}.sdd", s)),
                    StageTelemetry::register(&telemetry, &format!("stream{}.snm", s)),
                    StageTelemetry::register(&telemetry, &format!("stream{}.tyolo", s)),
                    StageTelemetry::register(&telemetry, &format!("stream{}.reference", s)),
                ]
            })
            .collect();
        let streams: Vec<StreamState> = inputs
            .into_iter()
            .enumerate()
            .map(|(s, input)| StreamState {
                input,
                next_idx: 0,
                backlog: VecDeque::new(),
                max_backlog: 0,
                sdd_q: SimQueue::with_telemetry(cfg.sdd_queue_depth, qt_sdd.clone()),
                snm_q: SimQueue::with_telemetry(snm_cap, qt_snm.clone()),
                tyolo_q: SimQueue::with_telemetry(cfg.tyolo_queue_depth, qt_tyolo.clone()),
                sdd_busy: false,
                snm_busy: false,
                sdd_out_pending: VecDeque::new(),
                snm_out_pending: VecDeque::new(),
                first_disposed_us: f64::INFINITY,
                last_disposed_us: 0.0,
                disposed: 0,
                quarantined_at: None,
                quarantined_frames: 0,
                ingest: None,
                survivors: Vec::new(),
                base: StreamCheckpoint::fresh(s),
                last_ckpt_disposed: 0,
                last_ckpt_us: 0.0,
            })
            .collect();
        let cpu = (0..cfg.cpu_lanes.max(1))
            .map(|i| Device::new(format!("cpu{}", i), DeviceKind::Cpu, 4 * GB))
            .collect();
        let filter_gpus = (0..cfg.filter_gpus.max(1))
            .map(|i| Device::new(format!("filter-gpu{}", i), DeviceKind::Gpu, 8 * GB))
            .collect();
        let ref_gpus: Vec<Device> = (0..cfg.reference_gpus.max(1))
            .map(|i| Device::new(format!("ref-gpu{}", i), DeviceKind::Gpu, 8 * GB))
            .collect();
        let n_ref = ref_gpus.len();
        let n_streams = streams.len();
        Engine {
            cfg,
            mode,
            streams,
            cpu,
            filter_gpus,
            ref_gpus,
            events: EventQueue::new(),
            tyolo_inflight: 0,
            tyolo_out_pending: VecDeque::new(),
            tyolo_rr: 0,
            ref_q: SimQueue::with_telemetry(cfg.reference_queue_depth, qt_ref),
            ref_busy: vec![false; n_ref],
            latency: LatencyStats::new(),
            ref_latency: LatencyStats::new(),
            per_stream_ref_latency: vec![LatencyStats::new(); n_streams],
            stage_executed: [0; 4],
            stage_dropped: [0; 3],
            tyolo_frames: 0,
            snm_batches: 0,
            snm_batched_frames: 0,
            timelines: None,
            injectors: (0..n_streams)
                .map(|_| std::array::from_fn(|_| FaultInjector::noop()))
                .collect(),
            source_plan: None,
            ckpt: None,
            c_ckpt_writes: None,
            h_ckpt_age: None,
            c_frames_in: telemetry.counter("pipeline.frames_in"),
            c_snm_batches: telemetry.counter("snm.batches"),
            c_tyolo_cycles: telemetry.counter("tyolo.cycles"),
            h_e2e: telemetry.histogram("latency.e2e_us", LATENCY_BOUNDS_US),
            h_ref: telemetry.histogram("latency.ref_us", LATENCY_BOUNDS_US),
            telemetry,
            stage_tel,
        }
    }

    /// The run's metrics registry (series per DESIGN.md §Telemetry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable per-frame stage-timestamp tracing; retrieve the timelines with
    /// [`Engine::run_traced`].
    pub fn with_tracing(mut self) -> Self {
        self.timelines = Some(
            self.streams
                .iter()
                .map(|st| vec![FrameTimeline::default(); st.input.traces.len()])
                .collect(),
        );
        self
    }

    /// Attach a deterministic fault plan (DESIGN.md §Supervision). Faults
    /// are keyed on frame `seq`, the quantity both engines agree on exactly,
    /// so the same plan reproduces the same per-stage drop/quarantine
    /// counters here and in the RT engine.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        const STAGES: [FaultStage; 4] = [
            FaultStage::Sdd,
            FaultStage::Snm,
            FaultStage::TYolo,
            FaultStage::Reference,
        ];
        self.injectors = (0..self.streams.len())
            .map(|s| std::array::from_fn(|i| plan.injector(s, STAGES[i])))
            .collect();
        self
    }

    /// Attach a deterministic source-fault plan (DESIGN.md §Ingest). Like
    /// stage faults it is keyed on frame `seq`; the DES resolves the whole
    /// ingest timeline eagerly through the same `Turbulence` → `IngestCore`
    /// → `plan_reconnect` chain the RT ingest workers run live, so both
    /// engines classify every source frame identically. The `stream<N>.src`
    /// scopes and `src.*` globals are registered only when the plan is
    /// non-empty, keeping the no-fault conformance name set unchanged.
    pub fn with_source_plan(mut self, plan: &SourceFaultPlan) -> Self {
        plan.validate().expect("invalid source fault plan");
        if !plan.is_empty() {
            self.source_plan = Some(plan.clone());
        }
        self
    }

    /// Attach crash-safe checkpointing — the file front-end of
    /// [`Engine::resume_from`] / [`Engine::run_segment`]: periodic per-stream
    /// commits to `spec.dir`'s log at quiescent boundaries (each carries the
    /// survivors since the stream's last one) plus one commit of every stream
    /// at run end. With `spec.resume`, the checkpoints already there are
    /// loaded, the consumed head of each input is skipped, and the run is
    /// seeded from them so it continues exactly where the previous stopped.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.c_ckpt_writes = Some(self.telemetry.counter("checkpoint.writes"));
        self.h_ckpt_age = Some(
            self.telemetry
                .histogram("checkpoint.age_ms", LATENCY_BOUNDS_US),
        );
        let log = CheckpointLog::open(&spec.dir, spec.resume).expect("open the checkpoint log");
        if spec.resume {
            let bases =
                load_all(&spec.dir, self.streams.len()).expect("load checkpoints for resume");
            for (st, base) in self.streams.iter_mut().zip(&bases) {
                let skip = (base.cursor as usize).min(st.input.traces.len());
                st.input.traces.drain(..skip);
            }
            self = self.resume_from(bases);
        }
        self.ckpt = Some((spec.interval_frames, log));
        self
    }

    /// Seed the run from in-memory checkpoints, one per stream and keyed to
    /// its engine-local slot — the one resume path. Each input must already
    /// start at its checkpoint's cursor. Re-adds every counter share earlier
    /// segments banked (handles intern by name, so the additions land on the
    /// live cells) and preloads the survivor prefix.
    pub fn resume_from(mut self, bases: Vec<StreamCheckpoint>) -> Self {
        assert_eq!(bases.len(), self.streams.len(), "one checkpoint per stream");
        for (st, mut base) in self.streams.iter_mut().zip(bases) {
            for (name, v) in &base.counters {
                self.telemetry.counter(name).add(*v);
            }
            st.survivors = std::mem::take(&mut base.survivors);
            st.base = base;
        }
        self
    }

    fn record<F: FnOnce(&mut FrameTimeline)>(&mut self, stream: usize, idx: usize, f: F) {
        if let Some(tl) = self.timelines.as_mut() {
            f(&mut tl[stream][idx]);
        }
    }

    /// Resolve ingest preps before the first event fires: classify what is
    /// left of each stream's input (a resumed stream's starts at its cursor)
    /// and account all source-level rejections eagerly — the run itself only
    /// ever sees admitted frames.
    fn prepare_sources(&mut self) {
        let Some(plan) = self.source_plan.clone() else {
            return;
        };
        let policy = self.cfg.reconnect_policy();
        let reorder_cap = self.cfg.reorder_buffer;
        let c_reconnects = self.telemetry.counter("src.reconnects");
        let c_corrupt = self.telemetry.counter("src.corrupt");
        let c_evict = self.telemetry.counter("src.reorder_evictions");
        let c_dup = self.telemetry.counter("src.duplicates");
        for s in 0..self.streams.len() {
            let src_tel = StageTelemetry::register(&self.telemetry, &format!("stream{}.src", s));
            let inj = plan.injector(s);
            let st = &mut self.streams[s];
            if st.base.source_lost {
                // the link was written off in a previous segment; its cursor
                // already covers everything, so nothing is left to ingest
                st.input.traces.clear();
            }
            if let Some(first) = st.input.traces.first() {
                // one-shots aimed below the resume point already fired
                inj.fast_forward(first.seq);
            }
            let prep = prep_ingest(&st.input.traces, inj, reorder_cap, policy);
            src_tel.frames_in.add(prep.frames_in);
            src_tel.frames_out.add(prep.admit.len() as u64);
            src_tel
                .frames_dropped
                .add(prep.src_dropped + prep.evicted + prep.lost_with_link);
            src_tel.frames_quarantined.add(prep.corrupt);
            c_reconnects.add(prep.reconnects);
            c_corrupt.add(prep.corrupt);
            c_evict.add(prep.evicted);
            c_dup.add(prep.duplicates);
            st.ingest = Some(prep);
        }
    }

    /// Run with tracing enabled, returning the per-stream frame timelines.
    pub fn run_traced(mut self) -> (SimResult, Vec<Vec<FrameTimeline>>) {
        if self.timelines.is_none() {
            self = self.with_tracing();
        }
        let (result, _, timelines) = self.run_internal(false);
        (result, timelines)
    }

    /// Run the simulation to completion and report.
    pub fn run(self) -> SimResult {
        self.run_internal(false).0
    }

    /// Run to completion and hand back each stream's end-of-segment
    /// checkpoint with the report — what seeds the next segment.
    pub fn run_segment(self) -> (SimResult, Vec<StreamCheckpoint>) {
        let (result, checkpoints, _) = self.run_internal(true);
        (result, checkpoints)
    }

    fn run_internal(mut self, hand_back: bool) -> Finished {
        self.prepare_sources();
        // Pin the big models: a T-YOLO replica per filter GPU, the
        // reference model on every reference GPU.
        for g in self.filter_gpus.iter_mut() {
            g.ensure_resident(ModelKey::TYolo, tyolo_cost().mem_bytes);
        }
        for g in self.ref_gpus.iter_mut() {
            g.ensure_resident(ModelKey::Reference, yolov2_cost().mem_bytes);
        }

        match self.mode {
            Mode::Online => {
                for s in 0..self.streams.len() {
                    // the first frame may already carry reconnect backoff
                    let delay = self.streams[s].arrival_delay_us(0);
                    self.events.schedule(delay, Ev::Arrival { stream: s });
                }
            }
            Mode::Offline => {
                // Prefetch happens inside dispatch().
            }
        }

        self.dispatch();
        while let Some((_, ev)) = self.events.pop() {
            self.handle(ev);
            self.dispatch();
        }
        self.finish(hand_back)
    }

    fn frame_period_us(&self) -> f64 {
        1e6 / self.cfg.online_fps.max(1) as f64
    }

    fn handle(&mut self, ev: Ev) {
        let now = self.events.now();
        match ev {
            Ev::Arrival { stream } => {
                let st = &mut self.streams[stream];
                if st.next_idx < st.admit_len() {
                    let idx = st.admit_idx(st.next_idx);
                    let token = Token {
                        stream,
                        idx,
                        arrival_us: now,
                    };
                    st.next_idx += 1;
                    self.c_frames_in.inc();
                    let st = &mut self.streams[stream];
                    if let Err(t) = st.sdd_q.push(token) {
                        st.backlog.push_back(t);
                        st.max_backlog = st.max_backlog.max(st.backlog.len());
                    }
                    let more = st.next_idx < st.admit_len();
                    // reconnect backoff delays the next admitted frame
                    let next_delay = st.arrival_delay_us(st.next_idx);
                    self.record(stream, idx, |tl| tl.arrival_us = now);
                    if more {
                        let period = self.frame_period_us();
                        self.events
                            .schedule_in(period + next_delay, Ev::Arrival { stream });
                    }
                }
            }
            Ev::SddDone { stream, tokens } => {
                self.streams[stream].sdd_busy = false;
                for t in tokens {
                    self.stage_executed[Stage::Sdd as usize] += 1;
                    self.stage_tel[t.stream][Stage::Sdd as usize]
                        .frames_in
                        .inc();
                    self.record(t.stream, t.idx, |tl| tl.sdd_done_us = now);
                    let st = &self.streams[t.stream];
                    let pass = st.trace(t.idx).sdd_pass(st.input.thresholds.delta_diff);
                    let seq = st.trace(t.idx).seq;
                    // a failpush fault loses the forward of a passing frame
                    let lost = pass && self.injectors[t.stream][Stage::Sdd as usize].fail_push(seq);
                    if pass && !lost {
                        self.streams[t.stream].sdd_out_pending.push_back(t);
                        self.stage_tel[t.stream][Stage::Sdd as usize]
                            .frames_out
                            .inc();
                    } else {
                        self.record(t.stream, t.idx, |tl| tl.dropped_at = Some(Stage::Sdd));
                        self.stage_dropped[Stage::Sdd as usize] += 1;
                        self.stage_tel[t.stream][Stage::Sdd as usize]
                            .frames_dropped
                            .inc();
                        self.dispose(t, now);
                    }
                }
            }
            Ev::SnmDone { stream, tokens } => {
                self.streams[stream].snm_busy = false;
                for t in tokens {
                    self.stage_executed[Stage::Snm as usize] += 1;
                    self.stage_tel[t.stream][Stage::Snm as usize]
                        .frames_in
                        .inc();
                    self.record(t.stream, t.idx, |tl| tl.snm_done_us = now);
                    let st = &self.streams[stream];
                    let pass = st.trace(t.idx).snm_pass(st.input.thresholds.t_pre);
                    let seq = st.trace(t.idx).seq;
                    let lost = pass && self.injectors[t.stream][Stage::Snm as usize].fail_push(seq);
                    if pass && !lost {
                        self.streams[stream].snm_out_pending.push_back(t);
                        self.stage_tel[t.stream][Stage::Snm as usize]
                            .frames_out
                            .inc();
                    } else {
                        self.record(t.stream, t.idx, |tl| tl.dropped_at = Some(Stage::Snm));
                        self.stage_dropped[Stage::Snm as usize] += 1;
                        self.stage_tel[t.stream][Stage::Snm as usize]
                            .frames_dropped
                            .inc();
                        self.dispose(t, now);
                    }
                }
            }
            Ev::TYoloDone { tokens } => {
                self.tyolo_inflight = self.tyolo_inflight.saturating_sub(1);
                for t in tokens {
                    self.stage_executed[Stage::TYolo as usize] += 1;
                    self.tyolo_frames += 1;
                    self.stage_tel[t.stream][Stage::TYolo as usize]
                        .frames_in
                        .inc();
                    self.record(t.stream, t.idx, |tl| tl.tyolo_done_us = now);
                    let st = &self.streams[t.stream];
                    let pass = st
                        .trace(t.idx)
                        .tyolo_pass(st.input.thresholds.number_of_objects);
                    let seq = st.trace(t.idx).seq;
                    let lost =
                        pass && self.injectors[t.stream][Stage::TYolo as usize].fail_push(seq);
                    if pass && !lost {
                        self.tyolo_out_pending.push_back(t);
                        self.stage_tel[t.stream][Stage::TYolo as usize]
                            .frames_out
                            .inc();
                    } else {
                        self.record(t.stream, t.idx, |tl| tl.dropped_at = Some(Stage::TYolo));
                        self.stage_dropped[Stage::TYolo as usize] += 1;
                        self.stage_tel[t.stream][Stage::TYolo as usize]
                            .frames_dropped
                            .inc();
                        self.dispose(t, now);
                    }
                }
            }
            Ev::RefDone { token, gpu } => {
                self.ref_busy[gpu] = false;
                self.stage_executed[Stage::Reference as usize] += 1;
                let rt = &self.stage_tel[token.stream][Stage::Reference as usize];
                rt.frames_in.inc();
                rt.frames_out.inc(); // the reference model analyzes, never drops
                self.record(token.stream, token.idx, |tl| tl.reference_done_us = now);
                self.ref_latency.record(now - token.arrival_us);
                self.h_ref.record(now - token.arrival_us);
                self.per_stream_ref_latency[token.stream].record(now - token.arrival_us);
                let st = &mut self.streams[token.stream];
                let tr = &st.input.traces[token.idx];
                let survivor = SurvivingFrame {
                    seq: tr.seq,
                    pts_ms: tr.pts_ms,
                    reference_count: tr.reference_count as usize,
                };
                st.survivors.push(survivor);
                self.dispose(token, now);
            }
        }
    }

    /// Dispose a frame as quarantined at `stage`: it is never accounted as
    /// `frames_in` there, only as `frames_quarantined` (the RT engine's
    /// panic/give-up paths account identically).
    fn quarantine(&mut self, t: Token, stage: Stage, now: f64) {
        self.stage_tel[t.stream][stage as usize]
            .frames_quarantined
            .inc();
        self.streams[t.stream].quarantined_frames += 1;
        self.record(t.stream, t.idx, |tl| tl.dropped_at = Some(stage));
        self.dispose(t, now);
    }

    /// Record a frame's final disposition (dropped or fully analyzed).
    fn dispose(&mut self, t: Token, now: f64) {
        self.latency.record(now - t.arrival_us);
        self.h_e2e.record(now - t.arrival_us);
        let st = &mut self.streams[t.stream];
        st.disposed += 1;
        st.first_disposed_us = st.first_disposed_us.min(now);
        st.last_disposed_us = st.last_disposed_us.max(now);
        self.maybe_checkpoint(t.stream, now);
    }

    /// Periodic checkpointing, taken only at quiescent boundaries: every
    /// admitted frame is disposed, so the stream's counters are exact and
    /// the cursor unambiguous. Streams under an active source plan skip the
    /// periodic writes — their ingest rejections are accounted eagerly at
    /// run start, so a mid-run counter snapshot would overstate them — and
    /// rely on the final write in `finish` (kill granularity for faulted
    /// runs comes from segmenting the input, e.g. the CLI's `--stop-after`).
    fn maybe_checkpoint(&mut self, s: usize, now: f64) {
        let Some((interval_frames, _)) = &self.ckpt else {
            return;
        };
        let st = &self.streams[s];
        if st.ingest.is_some()
            || st.disposed != st.next_idx as u64
            || st.disposed < st.last_ckpt_disposed + interval_frames
        {
            return;
        }
        let ck = self.build_checkpoint(s, &self.telemetry.snapshot());
        self.commit_checkpoints(&[ck], now);
    }

    /// Assemble one stream's checkpoint — the one place it is built: its
    /// counter shares out of `snap` ([`StreamCheckpoint::bank_counters`]),
    /// survivors, thresholds, and the source cursor.
    fn build_checkpoint(&self, s: usize, snap: &TelemetrySnapshot) -> StreamCheckpoint {
        let st = &self.streams[s];
        let mut ck = StreamCheckpoint::fresh(s);
        ck.cursor = st.base.cursor
            + match &st.ingest {
                // fully drained: every pulled frame is accounted
                Some(p) if st.next_idx >= p.admit.len() => p.frames_in,
                Some(_) if st.next_idx == 0 => 0,
                Some(p) => p.cursor_after[st.next_idx - 1],
                None => st.next_idx as u64,
            };
        ck.survivors = st.survivors.clone();
        ck.thresholds = Some(st.input.thresholds);
        ck.restarts_used = st.base.restarts_used;
        ck.source_lost = st.source_lost();
        let src = st
            .ingest
            .as_ref()
            .map(|p| [p.reconnects, p.corrupt, p.evicted, p.duplicates]);
        ck.bank_counters(&st.base, snap, st.next_idx as u64, src);
        ck
    }

    /// Make built checkpoints durable in the attached log, in one commit.
    fn commit_checkpoints(&mut self, cks: &[StreamCheckpoint], now: f64) {
        let Some((_, log)) = &mut self.ckpt else {
            return;
        };
        log.commit(cks).expect("write checkpoint");
        for ck in cks {
            if let Some(c) = &self.c_ckpt_writes {
                c.inc();
            }
            let st = &mut self.streams[ck.stream];
            if let Some(h) = &self.h_ckpt_age {
                h.record((now - st.last_ckpt_us).max(0.0) / 1e3);
            }
            st.last_ckpt_disposed = st.disposed;
            st.last_ckpt_us = now;
        }
    }

    /// Try to make progress everywhere until a fixpoint.
    fn dispatch(&mut self) {
        loop {
            let mut progress = false;
            progress |= self.flush_pendings();
            progress |= self.prefetch();
            progress |= self.start_sdd();
            progress |= self.start_snm();
            progress |= self.start_tyolo();
            progress |= self.start_reference();
            if !progress {
                break;
            }
        }
    }

    /// Move frames from pending buffers into downstream queues while there
    /// is room, and (offline) from the clip into the SDD queues.
    fn flush_pendings(&mut self) -> bool {
        let mut progress = false;
        for s in 0..self.streams.len() {
            let st = &mut self.streams[s];
            while let Some(&t) = st.sdd_out_pending.front() {
                if st.snm_q.push(t).is_ok() {
                    st.sdd_out_pending.pop_front();
                    progress = true;
                } else {
                    break;
                }
            }
            while let Some(&t) = st.snm_out_pending.front() {
                if st.tyolo_q.push(t).is_ok() {
                    st.snm_out_pending.pop_front();
                    progress = true;
                } else {
                    break;
                }
            }
            // online backlog → SDD queue
            while let Some(&t) = st.backlog.front() {
                if st.sdd_q.push(t).is_ok() {
                    st.backlog.pop_front();
                    progress = true;
                } else {
                    break;
                }
            }
        }
        while let Some(&t) = self.tyolo_out_pending.front() {
            if self.ref_q.push(t).is_ok() {
                self.tyolo_out_pending.pop_front();
                progress = true;
            } else {
                break;
            }
        }
        progress
    }

    fn prefetch(&mut self) -> bool {
        if self.mode != Mode::Offline {
            return false;
        }
        let now = self.events.now();
        let mut progress = false;
        for s in 0..self.streams.len() {
            let mut recorded: Vec<usize> = Vec::new();
            {
                let st = &mut self.streams[s];
                // offline mode ignores arrival delays: all admitted frames
                // are on disk already (reconnect backoff shaped what was
                // admitted, not when an offline job may read it)
                while st.next_idx < st.admit_len() && !st.sdd_q.is_full() {
                    let idx = st.admit_idx(st.next_idx);
                    let token = Token {
                        stream: s,
                        idx,
                        arrival_us: now,
                    };
                    st.next_idx += 1;
                    st.sdd_q.push(token).expect("space checked");
                    recorded.push(idx);
                    progress = true;
                }
            }
            self.c_frames_in.add(recorded.len() as u64);
            for idx in recorded {
                self.record(s, idx, |tl| tl.arrival_us = now);
            }
        }
        progress
    }

    fn start_sdd(&mut self) -> bool {
        let now = self.events.now();
        let mut progress = false;
        for s in 0..self.streams.len() {
            // A quarantined-at-SDD stream drains straight to disposal — the
            // DES analogue of the RT supervisor's give-up drain.
            if self.streams[s].quarantined_at == Some(Stage::Sdd) {
                let st = &mut self.streams[s];
                let n = st.sdd_q.len();
                let tokens = st.sdd_q.pop_up_to(n);
                for t in tokens {
                    self.quarantine(t, Stage::Sdd, now);
                    progress = true;
                }
                continue;
            }
            let st = &mut self.streams[s];
            // Feedback: a stalled output (SNM queue full) blocks the SDD.
            if st.sdd_busy || !st.sdd_out_pending.is_empty() || st.sdd_q.is_empty() {
                continue;
            }
            let mut tokens = st.sdd_q.pop_up_to(st.sdd_q.capacity());
            let (extra_us, doomed) = self.scan_faults(s, Stage::Sdd, &mut tokens);
            for t in doomed {
                self.quarantine(t, Stage::Sdd, now);
                progress = true;
            }
            if tokens.is_empty() {
                continue;
            }
            let n = tokens.len();
            self.streams[s].sdd_busy = true;
            let lane = s % self.cpu.len();
            let spec = sdd_cost();
            let done = self.cpu[lane].invoke(
                ModelKey::Sdd(s as u32),
                n,
                spec.invoke_us + extra_us,
                spec.per_frame_us + spec.resize_us,
                now,
            );
            // The stage stays busy until its completion event fires.
            self.events
                .schedule(done.end_us, Ev::SddDone { stream: s, tokens });
            progress = true;
        }
        progress
    }

    /// Consult a (stream, stage) injector over a just-popped batch: returns
    /// extra service time from stall faults and splits off the suffix from
    /// the first panicking frame (marking the stream quarantined at that
    /// stage). FIFO ordering makes the split independent of batch shape, so
    /// the RT engine partitions the very same frames.
    fn scan_faults(
        &mut self,
        s: usize,
        stage: Stage,
        tokens: &mut Vec<Token>,
    ) -> (f64, Vec<Token>) {
        if self.injectors[s][stage as usize].is_noop() {
            return (0.0, Vec::new());
        }
        let mut extra_us = 0.0;
        let mut cut = None;
        for (i, &t) in tokens.iter().enumerate() {
            match self.injectors[s][stage as usize].check(self.streams[s].trace(t.idx).seq) {
                FaultAction::Proceed => {}
                FaultAction::Stall(us) => extra_us += us as f64,
                FaultAction::Panic => {
                    cut = Some(i);
                    break;
                }
            }
        }
        let doomed = match cut {
            Some(i) => {
                self.streams[s].quarantined_at = Some(stage);
                tokens.split_off(i)
            }
            None => Vec::new(),
        };
        (extra_us, doomed)
    }

    fn start_snm(&mut self) -> bool {
        let now = self.events.now();
        let mut progress = false;
        for s in 0..self.streams.len() {
            // Quarantined-at-SNM: drain whatever SDD keeps forwarding,
            // bypassing batch formation (the stage is dead; the RT drain
            // does not batch either).
            if self.streams[s].quarantined_at == Some(Stage::Snm) {
                let st = &mut self.streams[s];
                let n = st.snm_q.len();
                let tokens = st.snm_q.pop_up_to(n);
                for t in tokens {
                    self.quarantine(t, Stage::Snm, now);
                    progress = true;
                }
                continue;
            }
            let st = &mut self.streams[s];
            if st.snm_busy || !st.snm_out_pending.is_empty() || st.snm_q.is_empty() {
                continue;
            }
            let cap = if self.cfg.batch_policy.bounds_queue() {
                self.cfg.snm_queue_depth
            } else {
                usize::MAX / 4
            };
            let mut take = self.cfg.batch_policy.take(st.snm_q.len(), cap);
            // Flush partial batches once the stream has fully drained
            // upstream — otherwise static batching would strand the tail.
            if take.is_none()
                && st.exhausted_upstream()
                && st.sdd_q.is_empty()
                && !st.sdd_busy
                && st.sdd_out_pending.is_empty()
            {
                take = Some(st.snm_q.len());
            }
            let Some(n) = take else { continue };
            if n == 0 {
                continue;
            }
            let mut tokens = st.snm_q.pop_up_to(n);
            let (extra_us, doomed) = self.scan_faults(s, Stage::Snm, &mut tokens);
            for t in doomed {
                self.quarantine(t, Stage::Snm, now);
                progress = true;
            }
            if tokens.is_empty() {
                continue;
            }
            self.streams[s].snm_busy = true;
            // Measured batch curve (ffsva tune --fit-cost) wins over the
            // paper-calibrated constants when the config carries one.
            let spec = self.cfg.snm_cost_override.unwrap_or_else(snm_cost);
            let gpu = &mut self.filter_gpus[s % self.cfg.filter_gpus.max(1)];
            gpu.ensure_resident(ModelKey::Snm(s as u32), spec.mem_bytes);
            let done = gpu.invoke(
                ModelKey::Snm(s as u32),
                tokens.len(),
                spec.invoke_us + extra_us,
                spec.per_frame_us,
                now,
            );
            self.snm_batches += 1;
            self.snm_batched_frames += tokens.len() as u64;
            self.c_snm_batches.inc();
            self.events
                .schedule(done.end_us, Ev::SnmDone { stream: s, tokens });
            progress = true;
        }
        progress
    }

    /// Extra service time from one-shot stall faults over a popped batch
    /// (shared stages check every token's own stream injector; panics are
    /// structurally impossible here — `FaultPlan::validate`).
    fn stall_us(&self, tokens: &[Token], stage: Stage) -> f64 {
        let mut extra = 0.0;
        for &t in tokens {
            let inj = &self.injectors[t.stream][stage as usize];
            if inj.is_noop() {
                continue;
            }
            if let FaultAction::Stall(us) = inj.check(self.streams[t.stream].trace(t.idx).seq) {
                extra += us as f64;
            }
        }
        extra
    }

    fn start_tyolo(&mut self) -> bool {
        if self.tyolo_inflight >= self.filter_gpus.len() || !self.tyolo_out_pending.is_empty() {
            return false;
        }
        let now = self.events.now();
        let n_streams = self.streams.len();
        let spec = tyolo_cost();
        // run the cycle on the filter GPU that frees up first
        let gpu_idx = (0..self.filter_gpus.len())
            .min_by(|&a, &b| {
                self.filter_gpus[a]
                    .free_at()
                    .total_cmp(&self.filter_gpus[b].free_at())
            })
            .expect("at least one filter GPU");
        if self.cfg.shared_tyolo {
            // One cycle: visit every stream's T-YOLO queue round-robin
            // starting at the rotation pointer, taking at most num_tyolo
            // frames per queue (§3.2.3), skipping empty queues.
            let mut tokens = Vec::new();
            for off in 0..n_streams {
                let s = (self.tyolo_rr + off) % n_streams;
                let st = &mut self.streams[s];
                if st.tyolo_q.is_empty() {
                    continue;
                }
                tokens.extend(st.tyolo_q.pop_up_to(self.cfg.num_tyolo));
            }
            self.tyolo_rr = (self.tyolo_rr + 1) % n_streams;
            if tokens.is_empty() {
                return false;
            }
            self.tyolo_inflight += 1;
            self.c_tyolo_cycles.inc();
            let extra_us = self.stall_us(&tokens, Stage::TYolo);
            let done = self.filter_gpus[gpu_idx].invoke(
                ModelKey::TYolo,
                tokens.len(),
                spec.invoke_us + extra_us,
                spec.per_frame_us,
                now,
            );
            self.events.schedule(done.end_us, Ev::TYoloDone { tokens });
            true
        } else {
            // Ablation: per-stream T-YOLO instances. Serve one stream per
            // cycle; switching streams means loading that stream's 1.2 GB
            // model (PCIe-bound, ~100 ms), which the shared design avoids.
            const TYOLO_RELOAD_US: f64 = 100_000.0;
            let mut tokens = Vec::new();
            let mut served = 0usize;
            for off in 0..n_streams {
                let s = (self.tyolo_rr + off) % n_streams;
                let st = &mut self.streams[s];
                if st.tyolo_q.is_empty() {
                    continue;
                }
                tokens.extend(st.tyolo_q.pop_up_to(self.cfg.num_tyolo));
                served = s;
                break;
            }
            self.tyolo_rr = (self.tyolo_rr + 1) % n_streams;
            if tokens.is_empty() {
                return false;
            }
            self.tyolo_inflight += 1;
            self.c_tyolo_cycles.inc();
            let extra = if n_streams > 1 { TYOLO_RELOAD_US } else { 0.0 };
            let extra = extra + self.stall_us(&tokens, Stage::TYolo);
            let done = self.filter_gpus[gpu_idx].invoke(
                ModelKey::TYoloStream(served as u32),
                tokens.len(),
                spec.invoke_us + extra,
                spec.per_frame_us,
                now,
            );
            self.events.schedule(done.end_us, Ev::TYoloDone { tokens });
            true
        }
    }

    fn start_reference(&mut self) -> bool {
        let mut progress = false;
        let now = self.events.now();
        let spec = yolov2_cost();
        for gpu in 0..self.ref_gpus.len() {
            if self.ref_busy[gpu] || self.ref_q.is_empty() {
                continue;
            }
            let token = self.ref_q.pop().expect("non-empty");
            self.ref_busy[gpu] = true;
            let extra_us = self.stall_us(std::slice::from_ref(&token), Stage::Reference);
            let done = self.ref_gpus[gpu].invoke(
                ModelKey::Reference,
                1,
                spec.invoke_us + extra_us,
                spec.per_frame_us,
                now,
            );
            self.events
                .schedule(done.end_us, Ev::RefDone { token, gpu });
            progress = true;
        }
        progress
    }

    fn finish(mut self, hand_back: bool) -> Finished {
        let makespan = self.events.now().max(1.0);
        // engine-private series carry the `des.` prefix and are excluded
        // from DES↔RT name conformance
        self.telemetry
            .counter("des.events_processed")
            .add(self.events.processed());
        let mut telemetry = self.telemetry.snapshot();
        // fully drained, so every stream is quiescent and one snapshot
        // serves them all; a run that wants no checkpoint builds none
        let mut checkpoints = Vec::new();
        if hand_back || self.ckpt.is_some() {
            checkpoints = (0..self.streams.len())
                .map(|s| self.build_checkpoint(s, &telemetry))
                .collect();
        }
        if self.ckpt.is_some() {
            let now = self.events.now();
            self.commit_checkpoints(&checkpoints, now);
            // so `checkpoint.writes` lands in the reported telemetry
            telemetry = self.telemetry.snapshot();
        }
        let total: u64 = self.streams.iter().map(|s| s.disposed).sum();
        let per_stream_fps: Vec<f64> = self
            .streams
            .iter()
            .map(|s| {
                let span =
                    (s.last_disposed_us - s.first_disposed_us.min(s.last_disposed_us)).max(1.0);
                s.disposed as f64 * 1e6 / span
            })
            .collect();
        let per_stream_span_us = self
            .streams
            .iter()
            .map(|s| (s.last_disposed_us - s.first_disposed_us.min(s.last_disposed_us)).max(0.0))
            .collect();
        let per_stream_max_backlog = self.streams.iter().map(|s| s.max_backlog).collect();
        let per_stream_quarantined = self.streams.iter().map(|s| s.quarantined_frames).collect();
        let per_stream_source_lost = self.streams.iter().map(|s| s.source_lost()).collect();
        let cpu_busy: f64 = self.cpu.iter().map(|d| d.busy_time_us()).sum();
        // The filter GPUs host both the SNMs and T-YOLO; their switch count
        // is exactly the model-(re)loading batching amortizes (§4.3.2).
        let gpu_switches: u64 = self
            .filter_gpus
            .iter()
            .map(|g| g.invocation_stats().1)
            .sum();
        let (snm_inv, snm_sw) = (self.snm_batches, gpu_switches);
        let filter_busy: f64 = self.filter_gpus.iter().map(|d| d.busy_time_us()).sum();
        let ref_busy_t: f64 = self.ref_gpus.iter().map(|d| d.busy_time_us()).sum();
        let result = SimResult {
            mode_online: self.mode == Mode::Online,
            num_streams: self.streams.len(),
            total_frames: total,
            makespan_us: makespan,
            throughput_fps: total as f64 * 1e6 / makespan,
            per_stream_fps,
            per_stream_span_us,
            per_stream_max_backlog,
            stage_executed: self.stage_executed,
            stage_dropped: self.stage_dropped,
            mean_latency_us: self.latency.mean_us(),
            p50_latency_us: self.latency.quantile_us(0.5),
            p99_latency_us: self.latency.quantile_us(0.99),
            max_latency_us: self.latency.max_us(),
            mean_ref_latency_us: self.ref_latency.mean_us(),
            p99_ref_latency_us: self.ref_latency.quantile_us(0.99),
            per_stream_mean_ref_latency_us: self
                .per_stream_ref_latency
                .iter()
                .map(|l| l.mean_us())
                .collect(),
            cpu_utilization: cpu_busy / (self.cpu.len() as f64 * makespan),
            gpu0_utilization: filter_busy / (self.filter_gpus.len() as f64 * makespan),
            gpu1_utilization: ref_busy_t / (self.ref_gpus.len() as f64 * makespan),
            tyolo_fps: self.tyolo_frames as f64 * 1e6 / makespan,
            snm_invocations: snm_inv,
            snm_switches: snm_sw,
            mean_snm_batch: if self.snm_batches == 0 {
                0.0
            } else {
                self.snm_batched_frames as f64 / self.snm_batches as f64
            },
            per_stream_quarantined,
            per_stream_survivors: self.streams.into_iter().map(|s| s.survivors).collect(),
            per_stream_source_lost,
            telemetry,
        };
        (result, checkpoints, self.timelines.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamThresholds;
    use ffsva_sched::BatchPolicy;

    /// Build a synthetic trace where every `period`-th frame is a target
    /// frame detected by everything.
    fn synthetic_input(n: usize, target_every: usize) -> StreamInput {
        let traces = (0..n)
            .map(|i| {
                let target = target_every > 0 && i % target_every == 0;
                FrameTrace {
                    seq: i as u64,
                    pts_ms: (i as u64) * 33,
                    sdd_distance: if target { 0.01 } else { 0.0001 },
                    snm_prob: if target { 0.9 } else { 0.05 },
                    tyolo_count: if target { 1 } else { 0 },
                    reference_count: if target { 1 } else { 0 },
                    truth_count: if target { 1 } else { 0 },
                    truth_complete: if target { 1 } else { 0 },
                }
            })
            .collect();
        StreamInput {
            traces,
            thresholds: StreamThresholds {
                delta_diff: 0.001,
                t_pre: 0.5,
                number_of_objects: 1,
            },
        }
    }

    fn base_cfg() -> FfsVaConfig {
        FfsVaConfig::default()
    }

    #[test]
    fn offline_single_stream_processes_all_frames() {
        let input = synthetic_input(1000, 10);
        let r = Engine::new(base_cfg(), Mode::Offline, vec![input]).run();
        assert_eq!(r.total_frames, 1000);
        assert_eq!(r.stage_executed[0], 1000); // SDD sees everything
                                               // 10% of frames are targets: they flow down the cascade
        assert_eq!(r.stage_executed[3], 100);
        assert_eq!(
            r.stage_dropped[0] + r.stage_dropped[1] + r.stage_dropped[2] + r.stage_executed[3],
            1000
        );
        assert!(r.throughput_fps > 100.0, "fps {}", r.throughput_fps);
    }

    #[test]
    fn offline_throughput_beats_reference_only_at_low_tor() {
        // All-frames-through-YOLOv2 runs at ~56 FPS; the cascade at 10% TOR
        // must be several times faster (the paper's 3× headline).
        let input = synthetic_input(2000, 10);
        let r = Engine::new(base_cfg(), Mode::Offline, vec![input]).run();
        assert!(
            r.throughput_fps > 3.0 * 56.0,
            "cascade fps {}",
            r.throughput_fps
        );
    }

    #[test]
    fn high_tor_throughput_collapses_toward_reference_speed() {
        let input = synthetic_input(600, 1); // TOR = 1.0
        let r = Engine::new(base_cfg(), Mode::Offline, vec![input]).run();
        // every frame reaches the reference model at ~56 FPS
        assert!(r.throughput_fps < 80.0, "fps {}", r.throughput_fps);
        assert_eq!(r.stage_executed[3], 600);
    }

    #[test]
    fn online_few_streams_are_realtime() {
        let inputs: Vec<StreamInput> = (0..4).map(|_| synthetic_input(600, 10)).collect();
        let r = Engine::new(base_cfg(), Mode::Online, inputs).run();
        assert!(r.realtime(30), "backlogs {:?}", r.per_stream_max_backlog);
        assert_eq!(r.total_frames, 4 * 600);
    }

    #[test]
    fn online_overload_breaks_realtime() {
        // 60 TOR-1.0 streams cannot possibly be real-time on one GPU pair.
        let inputs: Vec<StreamInput> = (0..60).map(|_| synthetic_input(300, 1)).collect();
        let r = Engine::new(base_cfg(), Mode::Online, inputs).run();
        assert!(!r.realtime(30));
    }

    #[test]
    fn feedback_bounds_every_queue() {
        let cfg = base_cfg();
        let input = synthetic_input(2000, 2);
        let r = Engine::new(cfg, Mode::Offline, vec![input]).run();
        // all frames disposed despite heavy downstream load — nothing lost
        assert_eq!(r.total_frames, 2000);
    }

    #[test]
    fn dynamic_batching_has_lower_latency_than_static() {
        let mk = || (0..6).map(|_| synthetic_input(900, 5)).collect::<Vec<_>>();
        let mut cfg_static = base_cfg();
        cfg_static.batch_policy = BatchPolicy::Static { size: 30 };
        let r_static = Engine::new(cfg_static, Mode::Online, mk()).run();

        let mut cfg_dyn = base_cfg();
        cfg_dyn.batch_policy = BatchPolicy::Dynamic { size: 30 };
        let r_dyn = Engine::new(cfg_dyn, Mode::Online, mk()).run();

        assert!(
            r_dyn.mean_latency_us < r_static.mean_latency_us,
            "dynamic {} vs static {}",
            r_dyn.mean_latency_us,
            r_static.mean_latency_us
        );
    }

    #[test]
    fn batching_reduces_model_switches() {
        let mk = || (0..8).map(|_| synthetic_input(600, 3)).collect::<Vec<_>>();
        let mut cfg1 = base_cfg();
        cfg1.batch_policy = BatchPolicy::Dynamic { size: 1 };
        let r1 = Engine::new(cfg1, Mode::Offline, mk()).run();
        let mut cfg10 = base_cfg();
        cfg10.batch_policy = BatchPolicy::Dynamic { size: 10 };
        let r10 = Engine::new(cfg10, Mode::Offline, mk()).run();
        assert!(
            r10.snm_invocations < r1.snm_invocations,
            "batch10 {} vs batch1 {}",
            r10.snm_invocations,
            r1.snm_invocations
        );
        assert!(r10.mean_snm_batch > r1.mean_snm_batch);
    }

    #[test]
    fn more_reference_gpus_raise_high_tor_throughput() {
        // §4.3.2 Note: the instance scales by adding GPUs. At TOR 1.0 the
        // reference stage is the bottleneck, so doubling reference GPUs
        // should nearly double throughput.
        let mk = || vec![synthetic_input(800, 1)];
        let one = Engine::new(base_cfg(), Mode::Offline, mk()).run();
        let mut cfg2 = base_cfg();
        cfg2.reference_gpus = 2;
        let two = Engine::new(cfg2, Mode::Offline, mk()).run();
        assert!(
            two.throughput_fps > 1.6 * one.throughput_fps,
            "1 gpu {} vs 2 gpus {}",
            one.throughput_fps,
            two.throughput_fps
        );
    }

    #[test]
    fn more_filter_gpus_help_when_tyolo_bound() {
        // Make T-YOLO the bottleneck: everything passes SDD+SNM but is
        // dropped by T-YOLO (count 0 yet snm prob high).
        let mk = || {
            let traces: Vec<FrameTrace> = (0..1500)
                .map(|i| FrameTrace {
                    seq: i as u64,
                    pts_ms: (i as u64) * 33,
                    sdd_distance: 0.01,
                    snm_prob: 0.9,
                    tyolo_count: 0,
                    reference_count: 0,
                    truth_count: 0,
                    truth_complete: 0,
                })
                .collect();
            (0..4)
                .map(|_| StreamInput {
                    traces: traces.clone(),
                    thresholds: StreamThresholds {
                        delta_diff: 0.001,
                        t_pre: 0.5,
                        number_of_objects: 1,
                    },
                })
                .collect::<Vec<_>>()
        };
        let one = Engine::new(base_cfg(), Mode::Offline, mk()).run();
        let mut cfg2 = base_cfg();
        cfg2.filter_gpus = 2;
        let two = Engine::new(cfg2, Mode::Offline, mk()).run();
        assert!(
            two.throughput_fps > 1.4 * one.throughput_fps,
            "1 gpu {} vs 2 gpus {}",
            one.throughput_fps,
            two.throughput_fps
        );
    }

    #[test]
    fn traced_run_timelines_are_monotonic_and_complete() {
        let input = synthetic_input(600, 5);
        let (r, timelines) = Engine::new(base_cfg(), Mode::Offline, vec![input]).run_traced();
        assert_eq!(r.total_frames, 600);
        assert_eq!(timelines.len(), 1);
        assert_eq!(timelines[0].len(), 600);
        let mut survived = 0;
        for tl in &timelines[0] {
            assert!(!tl.arrival_us.is_nan(), "every frame arrives");
            assert!(!tl.sdd_done_us.is_nan(), "every frame passes SDD stage");
            assert!(tl.sdd_done_us >= tl.arrival_us);
            match tl.dropped_at {
                Some(Stage::Sdd) => {
                    assert!(tl.snm_done_us.is_nan());
                }
                Some(Stage::Snm) => {
                    assert!(tl.snm_done_us >= tl.sdd_done_us);
                    assert!(tl.tyolo_done_us.is_nan());
                }
                Some(Stage::TYolo) => {
                    assert!(tl.tyolo_done_us >= tl.snm_done_us);
                    assert!(tl.reference_done_us.is_nan());
                }
                Some(Stage::Reference) | None => {
                    if !tl.reference_done_us.is_nan() {
                        assert!(tl.reference_done_us >= tl.tyolo_done_us);
                        survived += 1;
                    }
                }
            }
        }
        assert_eq!(survived as u64, r.stage_executed[3]);
    }

    #[test]
    fn untraced_run_matches_traced_run() {
        let mk = || vec![synthetic_input(500, 4)];
        let plain = Engine::new(base_cfg(), Mode::Offline, mk()).run();
        let (traced, _) = Engine::new(base_cfg(), Mode::Offline, mk()).run_traced();
        assert_eq!(plain.makespan_us, traced.makespan_us);
        assert_eq!(plain.stage_executed, traced.stage_executed);
    }

    #[test]
    fn telemetry_counters_mirror_stage_accounting() {
        let input = synthetic_input(800, 4);
        let r = Engine::new(base_cfg(), Mode::Offline, vec![input]).run();
        let snap = &r.telemetry;
        assert_eq!(snap.counter("pipeline.frames_in"), 800);
        for (i, stage) in ["sdd", "snm", "tyolo", "reference"].iter().enumerate() {
            assert_eq!(
                snap.stage_total(stage, "frames_in"),
                r.stage_executed[i],
                "{} frames_in",
                stage
            );
            if i < 3 {
                assert_eq!(
                    snap.stage_total(stage, "frames_dropped"),
                    r.stage_dropped[i],
                    "{} frames_dropped",
                    stage
                );
            }
        }
        // conservation per stage: in = out + dropped
        for stage in ["sdd", "snm", "tyolo", "reference"] {
            assert_eq!(
                snap.stage_total(stage, "frames_in"),
                snap.stage_total(stage, "frames_out") + snap.stage_total(stage, "frames_dropped"),
                "{} conservation",
                stage
            );
        }
        // latency histogram saw every disposed frame, and its quantiles
        // bracket the exact sample-based ones
        let h = &snap.histograms["latency.e2e_us"];
        assert_eq!(h.count, 800);
        assert!(h.max >= r.p99_latency_us);
        // queue depth histograms observed every push
        assert!(snap.histograms["queue.sdd.depth_on_push"].count >= 800);
        assert!(snap.counter("des.events_processed") > 0);
        assert_eq!(snap.counter("snm.batches"), r.snm_invocations);
    }

    #[test]
    fn zero_target_stream_never_reaches_reference() {
        let input = synthetic_input(500, 0);
        let r = Engine::new(base_cfg(), Mode::Offline, vec![input]).run();
        assert_eq!(r.stage_executed[3], 0);
        assert_eq!(r.total_frames, 500);
    }

    #[test]
    fn snm_panic_quarantines_stream_and_conserves_frames() {
        use ffsva_sched::{FaultStage, StageFault};
        // Every 10th frame is a target; SDD forwards only targets. A panic
        // at seq 50 on stream 1's SNM quarantines exactly the targets with
        // seq >= 50 that reach it: seqs 50, 60, …, 390 = 35 frames.
        let mk = || (0..2).map(|_| synthetic_input(400, 10)).collect::<Vec<_>>();
        let plan = FaultPlan::new().with(1, FaultStage::Snm, StageFault::PanicAtFrame(50));
        let r = Engine::new(base_cfg(), Mode::Offline, mk())
            .with_fault_plan(&plan)
            .run();
        // nothing is ever lost: every frame is disposed exactly once
        assert_eq!(r.total_frames, 800);
        assert_eq!(r.per_stream_quarantined, vec![0, 35]);
        let snap = &r.telemetry;
        assert_eq!(snap.counter("stream1.snm.frames_quarantined"), 35);
        // quarantined frames never count as frames_in at the dead stage
        assert_eq!(snap.counter("stream1.snm.frames_in"), 5);
        // the sibling stream is fully isolated: all 40 targets survive
        assert_eq!(snap.counter("stream0.snm.frames_quarantined"), 0);
        assert_eq!(snap.counter("stream0.reference.frames_in"), 40);
        // upstream SDD keeps draining the quarantined stream to completion
        assert_eq!(snap.counter("stream1.sdd.frames_in"), 400);
    }

    #[test]
    fn failpush_fault_drops_exactly_one_passing_frame() {
        use ffsva_sched::{FaultStage, StageFault};
        let plan =
            FaultPlan::new().with(0, FaultStage::Sdd, StageFault::FailNextPush { at_frame: 0 });
        let faulted = Engine::new(base_cfg(), Mode::Offline, vec![synthetic_input(200, 5)])
            .with_fault_plan(&plan)
            .run();
        let plain = Engine::new(base_cfg(), Mode::Offline, vec![synthetic_input(200, 5)]).run();
        assert_eq!(faulted.total_frames, 200);
        // exactly one passing frame was lost at the SDD push, one-shot
        assert_eq!(
            faulted.stage_dropped[Stage::Sdd as usize],
            plain.stage_dropped[Stage::Sdd as usize] + 1
        );
        assert_eq!(faulted.stage_executed[3], plain.stage_executed[3] - 1);
    }

    #[test]
    fn stall_fault_extends_virtual_time_only() {
        use ffsva_sched::{FaultStage, StageFault};
        let plan = FaultPlan::new().with(
            0,
            FaultStage::TYolo,
            StageFault::StallFor {
                at_frame: 0,
                dur_us: 500_000,
            },
        );
        let faulted = Engine::new(base_cfg(), Mode::Offline, vec![synthetic_input(300, 5)])
            .with_fault_plan(&plan)
            .run();
        let plain = Engine::new(base_cfg(), Mode::Offline, vec![synthetic_input(300, 5)]).run();
        // same frame accounting, strictly more virtual time
        assert_eq!(faulted.stage_executed, plain.stage_executed);
        assert_eq!(faulted.stage_dropped, plain.stage_dropped);
        // the stall sits on the critical path ahead of the reference stage,
        // so most of its 500 ms lands on the makespan
        assert!(
            faulted.makespan_us >= plain.makespan_us + 300_000.0,
            "faulted {} vs plain {}",
            faulted.makespan_us,
            plain.makespan_us
        );
    }

    #[test]
    fn same_plan_reproduces_identical_counters() {
        let plan = FaultPlan::parse("stream0.snm:panic@100,stream1.sdd:failpush@30").unwrap();
        let mk = || (0..2).map(|_| synthetic_input(300, 3)).collect::<Vec<_>>();
        let a = Engine::new(base_cfg(), Mode::Offline, mk())
            .with_fault_plan(&plan)
            .run();
        let b = Engine::new(base_cfg(), Mode::Offline, mk())
            .with_fault_plan(&plan)
            .run();
        assert_eq!(a.telemetry.frames_counters(), b.telemetry.frames_counters());
        assert_eq!(a.per_stream_quarantined, b.per_stream_quarantined);
    }

    #[test]
    fn source_plan_accounts_every_fault_kind() {
        use ffsva_video::{SourceFault, SourceFaultPlan};
        let plan = SourceFaultPlan::new()
            .with(0, SourceFault::DropRange { from: 10, to: 13 })
            .with(0, SourceFault::CorruptAt { at_frame: 20 })
            .with(0, SourceFault::DuplicateAt { at_frame: 30 })
            .with(
                0,
                SourceFault::ReorderAt {
                    at_frame: 40,
                    by: 2,
                },
            );
        let r = Engine::new(base_cfg(), Mode::Offline, vec![synthetic_input(100, 5)])
            .with_source_plan(&plan)
            .run();
        let snap = &r.telemetry;
        assert_eq!(snap.counter("stream0.src.frames_in"), 100);
        // 3 frames dropped at the source, 1 corrupt-quarantined; the small
        // reorder is smoothed by the default 8-deep buffer (no eviction)
        // and the duplicate copy is discarded
        assert_eq!(snap.counter("stream0.src.frames_out"), 96);
        assert_eq!(snap.counter("stream0.src.frames_dropped"), 3);
        assert_eq!(snap.counter("stream0.src.frames_quarantined"), 1);
        assert_eq!(snap.counter("src.corrupt"), 1);
        assert_eq!(snap.counter("src.duplicates"), 1);
        assert_eq!(snap.counter("src.reorder_evictions"), 0);
        assert_eq!(snap.counter("src.reconnects"), 0);
        // only delivered frames ever enter the cascade
        assert_eq!(snap.counter("pipeline.frames_in"), 96);
        assert_eq!(r.total_frames, 96);
        assert!(!r.per_stream_source_lost[0]);
        // source-level conservation: in = out + dropped + quarantined
        assert_eq!(
            snap.counter("stream0.src.frames_in"),
            snap.counter("stream0.src.frames_out")
                + snap.counter("stream0.src.frames_dropped")
                + snap.counter("stream0.src.frames_quarantined")
        );
    }

    #[test]
    fn disconnect_reconnects_and_isolates_siblings() {
        use ffsva_video::SourceFaultPlan;
        let plan = SourceFaultPlan::parse("stream1.src:disconnect@50+500ms").unwrap();
        let mk = || (0..2).map(|_| synthetic_input(200, 10)).collect::<Vec<_>>();
        let r = Engine::new(base_cfg(), Mode::Online, mk())
            .with_source_plan(&plan)
            .run();
        let snap = &r.telemetry;
        // the outage is survived: the stream reconnects and loses nothing
        assert!(snap.counter("src.reconnects") >= 1);
        assert!(!r.per_stream_source_lost[1]);
        assert_eq!(snap.counter("stream1.src.frames_in"), 200);
        assert_eq!(snap.counter("stream1.src.frames_out"), 200);
        assert_eq!(snap.counter("stream1.src.frames_dropped"), 0);
        // the sibling stream is fully isolated from the outage
        assert_eq!(snap.counter("stream0.src.frames_out"), 200);
        assert_eq!(snap.counter("stream0.reference.frames_in"), 20);
        assert_eq!(snap.counter("stream1.reference.frames_in"), 20);
    }

    #[test]
    fn reconnect_budget_exhaustion_degrades_to_source_lost() {
        use ffsva_video::SourceFaultPlan;
        // the default policy covers at most 2550 ms of outage; a 60 s one
        // exhausts the retry budget and writes the link off
        let plan = SourceFaultPlan::parse("stream0.src:disconnect@100+60000ms").unwrap();
        let mk = || (0..2).map(|_| synthetic_input(300, 10)).collect::<Vec<_>>();
        let r = Engine::new(base_cfg(), Mode::Offline, mk())
            .with_source_plan(&plan)
            .run();
        let snap = &r.telemetry;
        assert!(r.per_stream_source_lost[0]);
        assert_eq!(snap.counter("src.reconnects"), 0);
        // frames 0..100 were delivered before the outage; the rest are
        // lost with the link, every one of them accounted as dropped
        assert_eq!(snap.counter("stream0.src.frames_in"), 300);
        assert_eq!(snap.counter("stream0.src.frames_out"), 100);
        assert_eq!(snap.counter("stream0.src.frames_dropped"), 200);
        // the delivered prefix still flows the cascade to completion
        assert_eq!(snap.counter("stream0.reference.frames_in"), 10);
        assert_eq!(r.per_stream_survivors[0].len(), 10);
        // the sibling is untouched and fully analyzed
        assert!(!r.per_stream_source_lost[1]);
        assert_eq!(snap.counter("stream1.src.frames_out"), 300);
        assert_eq!(snap.counter("stream1.reference.frames_in"), 30);
    }

    #[test]
    fn same_source_plan_is_deterministic() {
        use ffsva_video::SourceFaultPlan;
        let plan = SourceFaultPlan::parse(
            "stream0.src:drop@5..9,stream1.src:reorder@20+3,stream1.src:dup@33",
        )
        .unwrap();
        let mk = || (0..2).map(|_| synthetic_input(250, 7)).collect::<Vec<_>>();
        let a = Engine::new(base_cfg(), Mode::Offline, mk())
            .with_source_plan(&plan)
            .run();
        let b = Engine::new(base_cfg(), Mode::Offline, mk())
            .with_source_plan(&plan)
            .run();
        assert_eq!(a.telemetry.frames_counters(), b.telemetry.frames_counters());
        assert_eq!(a.per_stream_survivors, b.per_stream_survivors);
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        use crate::checkpoint::CheckpointSpec;
        let dir = std::env::temp_dir().join(format!("ffsva_sim_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let full = || synthetic_input(600, 5);
        let uninterrupted = Engine::new(base_cfg(), Mode::Offline, vec![full()]).run();

        // segment 1: the run "dies" after 250 frames (truncated input),
        // having checkpointed along the way and at its end
        let mut head = full();
        head.traces.truncate(250);
        let first = Engine::new(base_cfg(), Mode::Offline, vec![head])
            .with_checkpoint(CheckpointSpec::new(&dir, 64, false))
            .run();
        assert!(first.telemetry.counter("checkpoint.writes") >= 1);

        // segment 2: resume over the full input picks up at frame 250
        let resumed = Engine::new(base_cfg(), Mode::Offline, vec![full()])
            .with_checkpoint(CheckpointSpec::new(&dir, 64, true))
            .run();

        // bit-identical survivor sets and frame counters
        assert_eq!(
            resumed.per_stream_survivors,
            uninterrupted.per_stream_survivors
        );
        assert_eq!(
            resumed.telemetry.frames_counters(),
            uninterrupted.telemetry.frames_counters()
        );
        assert_eq!(
            resumed.telemetry.counter("pipeline.frames_in"),
            uninterrupted.telemetry.counter("pipeline.frames_in")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One stream run as three segments — handed from engine to engine in
    /// memory, or through checkpoint files — equals one uninterrupted run,
    /// and at every boundary the file a segment leaves behind *is* the
    /// checkpoint the in-memory segment hands back. Checked without a source
    /// plan and with one whose faults straddle both cuts (a drop range
    /// across frame 150, a reorder held across frame 300).
    #[test]
    fn in_memory_segments_match_file_segments_and_one_uninterrupted_run() {
        use crate::checkpoint::{load_stream_checkpoint, CheckpointSpec};
        use ffsva_video::SourceFaultPlan;
        let straddling = SourceFaultPlan::parse(
            "stream0.src:drop@145..155,stream0.src:dup@140,\
             stream0.src:reorder@298+3,stream0.src:corrupt@300",
        )
        .unwrap();
        for (tag, plan) in [("plain", SourceFaultPlan::new()), ("faulted", straddling)] {
            let dir =
                std::env::temp_dir().join(format!("ffsva_sim_seg_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let full = synthetic_input(450, 5);
            let part = |range: std::ops::Range<usize>| StreamInput {
                traces: full.traces[range].to_vec(),
                thresholds: full.thresholds,
            };
            let engine = |input: StreamInput| {
                Engine::new(base_cfg(), Mode::Offline, vec![input]).with_source_plan(&plan)
            };
            let uninterrupted = engine(full.clone()).run();

            let mut resident = StreamCheckpoint::fresh(0);
            let mut finals = Vec::new();
            for (k, end) in [150usize, 300, 450].into_iter().enumerate() {
                let window = part(resident.cursor as usize..end);
                let (in_memory, handed_back) =
                    engine(window).resume_from(vec![resident]).run_segment();
                resident = handed_back.into_iter().next().unwrap();
                let from_files = engine(part(0..end))
                    .with_checkpoint(CheckpointSpec::new(&dir, u64::MAX, k > 0))
                    .run();
                assert_eq!(resident.cursor, end as u64, "{tag}: segment {k} cursor");
                assert_eq!(
                    load_stream_checkpoint(&dir, 0).unwrap().as_ref(),
                    Some(&resident),
                    "{tag}: segment {k} leaves a different file than it hands back"
                );
                finals = vec![in_memory, from_files];
            }
            assert!(!uninterrupted.per_stream_survivors[0].is_empty());
            for r in &finals {
                assert_eq!(r.per_stream_survivors, uninterrupted.per_stream_survivors);
                assert_eq!(
                    r.telemetry.frames_counters(),
                    uninterrupted.telemetry.frames_counters(),
                    "{tag}: segmented counters drifted"
                );
                for name in crate::checkpoint::SRC_GLOBALS {
                    assert_eq!(
                        r.telemetry.counter(name),
                        uninterrupted.telemetry.counter(name),
                        "{tag}: {name}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_under_source_faults_matches_uninterrupted() {
        use crate::checkpoint::CheckpointSpec;
        use ffsva_video::SourceFaultPlan;
        let plan =
            SourceFaultPlan::parse("stream0.src:drop@40..44,stream0.src:corrupt@120").unwrap();
        let dir = std::env::temp_dir().join(format!("ffsva_sim_srcckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let full = || synthetic_input(400, 5);
        let uninterrupted = Engine::new(base_cfg(), Mode::Offline, vec![full()])
            .with_source_plan(&plan)
            .run();

        let mut head = full();
        head.traces.truncate(200);
        Engine::new(base_cfg(), Mode::Offline, vec![head])
            .with_source_plan(&plan)
            .with_checkpoint(CheckpointSpec::new(&dir, 64, false))
            .run();
        let resumed = Engine::new(base_cfg(), Mode::Offline, vec![full()])
            .with_source_plan(&plan)
            .with_checkpoint(CheckpointSpec::new(&dir, 64, true))
            .run();

        // faults behind the resume point fired in segment 1 and are not
        // re-applied; counters and survivors add up exactly
        assert_eq!(
            resumed.per_stream_survivors,
            uninterrupted.per_stream_survivors
        );
        assert_eq!(
            resumed.telemetry.frames_counters(),
            uninterrupted.telemetry.frames_counters()
        );
        assert_eq!(
            resumed.telemetry.counter("src.corrupt"),
            uninterrupted.telemetry.counter("src.corrupt")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

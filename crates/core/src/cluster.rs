//! Cluster control plane (§4.3.1 at fleet scale): N resident engine
//! instances under one controller that admits offered streams through the
//! telemetry-fed [`AdmissionController`], detects overloaded or dead
//! instances, and re-forwards their streams by riding the per-stream
//! checkpoints.
//!
//! # Execution model
//!
//! Time advances in **control epochs** of `epoch_frames` frames per stream:
//! epoch `e` covers the cluster frame clock `[e·F, (e+1)·F)`. Every stream
//! keeps one **resident** [`StreamCheckpoint`] in memory — cursor,
//! cumulative counters, survivors. Each epoch, every live instance runs one
//! DES segment over its resident streams' next trace window, seeded from —
//! and handing back — those checkpoints in memory, and makes all of them
//! durable in one [`CheckpointLog::commit`] to its `inst<i>/` directory's
//! log: one write, one sync, what the epoch added. The log is the
//! durability, not the hand-off: it is read only to hand a stream to
//! another instance (a dead one's memory is never consulted) and by
//! [`ClusterSession::restore`]. One [`ClusterSession::step`] is:
//!
//! 1. fire [`InstanceFault`]s: `crash@n` kills the instance whose epoch
//!    would cover frame `n` (that epoch never runs; only the on-disk
//!    checkpoints survive it — the dead instance's memory is never read
//!    again), `slow@n+Dms` inflates every subsequent epoch's wall time by
//!    `D`;
//! 2. re-sync the admission controller with each instance's *remaining*
//!    work;
//! 3. place pending streams — a dead instance's, recovered from its
//!    checkpoint directory, and earlier sheds — on instances with spare
//!    capacity;
//! 4. run the epoch on every live instance and observe it: the measured
//!    T-YOLO rate feeds admission, the real-time verdict flags overload,
//!    finished streams retire;
//! 5. rebalance: shed the highest-backlog stream off any overloaded
//!    instance (§4.3.1: "the corresponding video stream is re-forwarded to
//!    another FFS-VA instance with spare capacity immediately").
//!
//! # Why migration is bit-identical
//!
//! Survivor sets are trace+threshold deterministic: full queues cause
//! backpressure stalls, never drops, so one stream's survivors do not
//! depend on which siblings share its instance. A checkpoint carries the
//! stream's cursor, cumulative counters, and survivor prefix;
//! [`renumber_checkpoint`] re-keys it to any engine-local slot. A stream
//! that crashes on instance A and resumes on instance B therefore reports
//! exactly the survivors an uninterrupted run would — the invariant
//! `tests/cluster_failover.rs` pins.
//!
//! # Degradation
//!
//! Re-forwarding retries are bounded: each failed placement backs off
//! capped-exponentially ([`backoff_delay`] converted to whole epochs) and
//! a stream whose retry or migration budget exhausts is `Rejected` with
//! full accounting — the loop never hangs, and a hard `max_epochs` cap
//! backstops even adversarial fault plans.

use crate::checkpoint::{
    load_checkpoints, load_stream_checkpoint, renumber_checkpoint, CheckpointLog, StreamCheckpoint,
};
use crate::config::{FfsVaConfig, StreamThresholds};
use crate::instance::{
    balance_instances, balance_instances_from, is_overloaded, max_sustained, AdmissionController,
    Placement,
};
use crate::rt_engine::{elapsed_us, SurvivingFrame};
use crate::sim::{Engine, Mode, SimResult, StreamInput};
use ffsva_models::FrameTrace;
use ffsva_sched::{backoff_delay, ClusterFaultPlan, FaultPlan, StageFault, MAX_BACKOFF};
use ffsva_telemetry::{Counter, Histogram, Telemetry, TelemetrySnapshot, LATENCY_BOUNDS_US};
use ffsva_video::SourceFaultPlan;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Sizing and resilience knobs for a [`Cluster`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Resident engine instances.
    pub instances: usize,
    /// Frames per stream per control epoch (the re-forward/admission
    /// decision granularity).
    pub epoch_frames: u64,
    /// Failed placement attempts a pending stream may burn before it is
    /// rejected.
    pub max_reforward_retries: u32,
    /// Successful migrations one stream may ride before the controller
    /// stops chasing it (bounds shed/re-admit ping-pong).
    pub max_reforwards: u32,
    /// Base delay of the capped-exponential retry backoff.
    pub reforward_backoff: Duration,
    /// Hard epoch cap: the loop always terminates, whatever the plan does.
    pub max_epochs: u64,
    /// Staleness window for live T-YOLO measurements (see
    /// [`AdmissionController::with_measurement_max_age`]).
    pub measurement_max_age_s: f64,
    /// Root directory; instance `i` checkpoints under `inst<i>/`.
    pub ckpt_root: PathBuf,
}

impl ClusterConfig {
    pub fn new(instances: usize, ckpt_root: impl Into<PathBuf>) -> Self {
        ClusterConfig {
            instances,
            epoch_frames: 150,
            max_reforward_retries: 3,
            max_reforwards: 4,
            reforward_backoff: Duration::from_millis(250),
            max_epochs: 1000,
            measurement_max_age_s: crate::instance::DEFAULT_MEASUREMENT_MAX_AGE_S,
            ckpt_root: ckpt_root.into(),
        }
    }

    pub fn with_epoch_frames(mut self, frames: u64) -> Self {
        self.epoch_frames = frames.max(1);
        self
    }

    pub fn with_reforward_budget(mut self, retries: u32, reforwards: u32) -> Self {
        self.max_reforward_retries = retries;
        self.max_reforwards = reforwards;
        self
    }

    pub fn with_max_epochs(mut self, cap: u64) -> Self {
        self.max_epochs = cap.max(1);
        self
    }
}

/// Where one offered stream ended up after the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamOutcome {
    /// Ran to the end of its trace; `survivors` is the cumulative set from
    /// its final checkpoint, wherever the stream lived along the way.
    Completed {
        /// Instance that ran the final segment.
        instance: usize,
        /// Successful checkpoint-riding migrations.
        reforwards: u32,
        survivors: Vec<SurvivingFrame>,
    },
    /// Refused — at admission, or after the re-forward budget exhausted.
    Rejected {
        reforwards: u32,
        /// Failed placement attempts burned before giving up.
        retries: u32,
    },
    /// Still mid-trace when `max_epochs` cut the run off.
    Unfinished {
        instance: Option<usize>,
        cursor: u64,
        reforwards: u32,
    },
    /// Dropped at runtime by the operator ([`ClusterSession::remove`])
    /// before its trace finished.
    Dropped { cursor: u64, reforwards: u32 },
}

/// Result of a [`Cluster::run`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// One outcome per offered stream, in offer order.
    pub outcomes: Vec<StreamOutcome>,
    /// Control epochs executed.
    pub epochs: u64,
    /// Liveness per instance at the end of the run.
    pub alive: Vec<bool>,
    /// Streams resident per instance at the end of the run.
    pub final_loads: Vec<usize>,
    /// The `cluster.*` series (plus nothing else — per-instance engine
    /// telemetry stays per-instance).
    pub telemetry: TelemetrySnapshot,
}

impl ClusterReport {
    /// Survivor set of one offered stream, if it completed.
    pub fn survivors(&self, stream: usize) -> Option<&[SurvivingFrame]> {
        match self.outcomes.get(stream)? {
            StreamOutcome::Completed { survivors, .. } => Some(survivors),
            _ => None,
        }
    }

    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, StreamOutcome::Completed { .. }))
            .count()
    }

    pub fn rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, StreamOutcome::Rejected { .. }))
            .count()
    }

    /// Streams dropped at runtime by the operator.
    pub fn dropped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, StreamOutcome::Dropped { .. }))
            .count()
    }

    /// Total successful re-forwards across the run.
    pub fn reforwards(&self) -> u64 {
        self.telemetry.counter("cluster.reforwards")
    }

    /// Mean checkpoint-migration latency in milliseconds (0 when no
    /// re-forward happened).
    pub fn reforward_latency_ms(&self) -> f64 {
        self.telemetry
            .histograms
            .get("cluster.reforward_latency_us")
            .map(|h| h.mean() / 1000.0)
            .unwrap_or(0.0)
    }
}

/// One offered stream's control-plane state.
struct StreamState {
    /// The full trace from frame 0; epochs run windows of it.
    input: StreamInput,
    /// The resident checkpoint, keyed by global stream id: cursor,
    /// cumulative counters and survivors, `source_lost` (a written-off link
    /// makes the stream terminal with what it produced before the loss).
    /// Epochs seed the engine from it and take its successor back in
    /// memory; the log in `ckpt_at`'s directory holds its durable copy.
    ckpt: StreamCheckpoint,
    /// Instance currently hosting it; `None` while quiesced/pending.
    home: Option<usize>,
    /// Instance whose log holds its checkpoint.
    ckpt_at: Option<usize>,
    reforwards: u32,
    retries: u32,
    next_retry_epoch: u64,
    admitted: bool,
    done: bool,
    rejected: bool,
    /// Dropped at runtime by the operator; its partial work stands.
    removed: bool,
}

struct InstanceState {
    dir: PathBuf,
    /// The append handle on `dir`'s checkpoint log.
    log: CheckpointLog,
    alive: bool,
    /// Global stream ids resident here, in engine-local order.
    resident: Vec<usize>,
    /// Set after an epoch the instance could not serve in real time;
    /// cleared only by a subsequent healthy epoch. Pending streams are
    /// never placed onto a flagged instance — the live low-FPS reading a
    /// degraded instance reports looks exactly like spare capacity to the
    /// admission signal, so the control plane must remember the overload.
    overloaded: bool,
}

/// A fleet of N resident engine instances under one control loop.
pub struct Cluster {
    sys: FfsVaConfig,
    cfg: ClusterConfig,
    plan: ClusterFaultPlan,
    /// Source-side fault plan, keyed by *global* stream id; remapped to
    /// engine-local slots every epoch. Frame-keyed one-shots self-latch
    /// across epochs: the engine fast-forwards each stream's injector to
    /// its resume cursor, so a fault consumed by an earlier window never
    /// re-fires.
    source_plan: SourceFaultPlan,
    /// Cluster-side fired latches for one-shot stream faults, indexed by
    /// plan entry: an injected stall/failpush must not re-fire in every
    /// epoch that rebuilds fresh engine injectors.
    fault_fired: Vec<bool>,
    telemetry: Telemetry,
    c_offers: Counter,
    c_admitted: Counter,
    c_rejected_offers: Counter,
    c_reforwards: Counter,
    c_reforward_retries: Counter,
    c_reforward_given_up: Counter,
    c_recoveries: Counter,
    c_instances_crashed: Counter,
    c_epochs: Counter,
    c_ckpt_writes: Counter,
    c_ckpt_syncs: Counter,
    c_ckpt_loads: Counter,
    h_reforward_latency: Histogram,
    h_epoch_wall: Histogram,
    h_epoch_engine: Histogram,
    h_epoch_ckpt: Histogram,
}

impl Cluster {
    pub fn new(sys: FfsVaConfig, cfg: ClusterConfig) -> Self {
        let telemetry = Telemetry::new();
        let c = |n: &str| telemetry.counter(n);
        let h = |n: &str| telemetry.histogram(n, LATENCY_BOUNDS_US);
        Cluster {
            sys,
            cfg,
            plan: ClusterFaultPlan::new(),
            source_plan: SourceFaultPlan::default(),
            fault_fired: Vec::new(),
            c_offers: c("cluster.offers"),
            c_admitted: c("cluster.admitted"),
            c_rejected_offers: c("cluster.rejected_offers"),
            c_reforwards: c("cluster.reforwards"),
            c_reforward_retries: c("cluster.reforward_retries"),
            c_reforward_given_up: c("cluster.reforward_given_up"),
            c_recoveries: c("cluster.recoveries"),
            c_instances_crashed: c("cluster.instances_crashed"),
            c_epochs: c("cluster.epochs"),
            c_ckpt_writes: c("cluster.ckpt_writes"),
            c_ckpt_syncs: c("cluster.ckpt_syncs"),
            c_ckpt_loads: c("cluster.ckpt_loads"),
            h_reforward_latency: h("cluster.reforward_latency_us"),
            h_epoch_wall: h("cluster.epoch_wall_us"),
            h_epoch_engine: h("cluster.epoch_engine_us"),
            h_epoch_ckpt: h("cluster.epoch_ckpt_us"),
            telemetry,
        }
    }

    /// Attach a cluster fault plan. Panics on structurally invalid plans or
    /// instance indices beyond the fleet, mirroring
    /// [`Engine::with_fault_plan`].
    pub fn with_fault_plan(mut self, plan: &ClusterFaultPlan) -> Self {
        plan.validate().expect("invalid cluster fault plan");
        if let Some(max) = plan.max_instance() {
            assert!(
                max < self.cfg.instances,
                "fault plan names instance {max}, fleet has {}",
                self.cfg.instances
            );
        }
        self.fault_fired = vec![false; plan.stream_plan().entries().len()];
        self.plan = plan.clone();
        self
    }

    /// Attach a source fault plan keyed by global stream id. Panics on
    /// structurally invalid plans, mirroring [`Engine::with_source_plan`].
    pub fn with_source_plan(mut self, plan: &SourceFaultPlan) -> Self {
        plan.validate().expect("invalid source fault plan");
        self.source_plan = plan.clone();
        self
    }

    /// Nominal wall seconds one epoch covers at the live frame rate.
    fn epoch_wall_s(&self) -> f64 {
        self.cfg.epoch_frames as f64 / self.sys.online_fps.max(1) as f64
    }

    /// Convert a retry backoff into whole epochs (at least one).
    fn backoff_epochs(&self, attempt: u32) -> u64 {
        let delay = backoff_delay(self.cfg.reforward_backoff, attempt, MAX_BACKOFF);
        (delay.as_secs_f64() / self.epoch_wall_s()).ceil().max(1.0) as u64
    }

    /// Run every offered stream to completion (or rejection) and report.
    ///
    /// Offers are admitted up front through the controller; admitted
    /// streams then progress epoch by epoch until their traces are
    /// exhausted, riding checkpoints across any re-forward the control
    /// loop decides on. Deterministic modulo the wall-clock migration
    /// latencies recorded into `cluster.reforward_latency_us`.
    ///
    /// This is the batch entry point; the resident daemon drives the same
    /// loop one epoch at a time through [`ClusterSession`].
    pub fn run(self, offers: Vec<StreamInput>) -> io::Result<ClusterReport> {
        let mut session = self.into_session()?;
        for input in offers {
            session.offer(input);
        }
        while session.step()? {}
        Ok(session.into_report())
    }

    /// Open the fleet for incremental operation: streams can then be
    /// offered, stepped epoch by epoch, and removed at runtime — the shape
    /// `ffsva serve` drives.
    pub fn into_session(self) -> io::Result<ClusterSession> {
        ClusterSession::create(self, false)
    }
}

/// On-disk schema version of [`SessionManifest`].
pub const SESSION_SCHEMA_VERSION: u32 = 1;

/// Everything a [`ClusterSession`] needs beyond its instances' checkpoint
/// logs to resume exactly where it stopped: the epoch clock, the fleet's
/// liveness/overload flags, per-stream control state, and the cluster-side
/// fired latches for one-shot stream faults. Survivor sets are *not* here —
/// they ride the checkpoint logs in the instance directories.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionManifest {
    pub schema_version: u32,
    pub epoch: u64,
    pub fault_fired: Vec<bool>,
    pub instances: Vec<InstanceManifest>,
    pub streams: Vec<StreamManifest>,
}

/// One instance's persisted control state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceManifest {
    pub alive: bool,
    pub overloaded: bool,
    /// Global stream ids resident here, in engine-local order.
    pub resident: Vec<usize>,
}

/// One stream's persisted control state (its resolved trace rides along so
/// a resumed daemon needs no access to the original source). `cursor` and
/// `source_lost` are a readable copy: a restore takes both from the log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamManifest {
    pub traces: Vec<FrameTrace>,
    pub thresholds: StreamThresholds,
    pub cursor: u64,
    pub home: Option<usize>,
    pub ckpt_at: Option<usize>,
    pub reforwards: u32,
    pub retries: u32,
    pub next_retry_epoch: u64,
    pub admitted: bool,
    pub done: bool,
    pub rejected: bool,
    pub removed: bool,
    pub source_lost: bool,
}

/// Point-in-time view of one stream for the ops surface.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamStatus {
    pub id: usize,
    /// `running` | `pending` | `completed` | `rejected` | `dropped`.
    pub state: String,
    pub instance: Option<usize>,
    pub cursor: u64,
    pub total_frames: u64,
    pub reforwards: u32,
    pub retries: u32,
    pub source_lost: bool,
    pub survivors: usize,
}

/// A [`Cluster`] opened for incremental operation: offer streams at any
/// point, advance the control loop one epoch at a time, drop streams at
/// runtime, and export/restore the full control state for crash-safe
/// drain/resume. [`Cluster::run`] is a thin batch wrapper over this.
pub struct ClusterSession {
    ctrl: Cluster,
    instances: Vec<InstanceState>,
    ctl: AdmissionController,
    streams: Vec<StreamState>,
    epoch: u64,
}

impl ClusterSession {
    /// Open every instance's log: empty, or with `resume` holding what an
    /// earlier session committed.
    fn create(ctrl: Cluster, resume: bool) -> io::Result<Self> {
        let n_inst = ctrl.cfg.instances;
        let instances: Vec<InstanceState> = (0..n_inst)
            .map(|i| {
                let dir = ctrl.cfg.ckpt_root.join(format!("inst{i}"));
                Ok(InstanceState {
                    log: CheckpointLog::open(&dir, resume)?,
                    dir,
                    alive: true,
                    resident: Vec::new(),
                    overloaded: false,
                })
            })
            .collect::<io::Result<_>>()?;
        let ctl = AdmissionController::new(ctrl.sys, n_inst)
            .with_measurement_max_age(ctrl.cfg.measurement_max_age_s);
        Ok(ClusterSession {
            ctrl,
            instances,
            ctl,
            streams: Vec::new(),
            epoch: 0,
        })
    }

    /// Offer one stream to the fleet. Offers do not retry — a rejected
    /// camera is the operator's capacity signal. Returns the stream's
    /// global id and where it landed.
    pub fn offer(&mut self, input: StreamInput) -> (usize, Placement) {
        let gid = self.streams.len();
        self.ctrl.c_offers.inc();
        let placement = self.ctl.try_admit(input.clone());
        let home = match placement {
            Placement::Admitted { instance } => {
                self.ctrl.c_admitted.inc();
                self.instances[instance].resident.push(gid);
                Some(instance)
            }
            Placement::Rejected => {
                self.ctrl.c_rejected_offers.inc();
                None
            }
        };
        self.streams.push(StreamState {
            input,
            ckpt: StreamCheckpoint::fresh(gid),
            home,
            ckpt_at: None,
            reforwards: 0,
            retries: 0,
            next_retry_epoch: 0,
            admitted: home.is_some(),
            done: false,
            rejected: home.is_none(),
            removed: false,
        });
        (gid, placement)
    }

    /// Drop a stream at runtime. Its partial work stands (final outcome
    /// [`StreamOutcome::Dropped`]); returns `false` if the id is unknown
    /// or the stream already reached a terminal state.
    pub fn remove(&mut self, gid: usize) -> bool {
        let Some(st) = self.streams.get_mut(gid) else {
            return false;
        };
        if st.done || st.rejected || st.removed {
            return false;
        }
        st.removed = true;
        if let Some(home) = st.home.take() {
            self.instances[home].resident.retain(|&g| g != gid);
        }
        true
    }

    /// Whether any admitted stream still has work.
    pub fn active(&self) -> bool {
        self.streams
            .iter()
            .any(|s| s.admitted && !s.done && !s.rejected && !s.removed)
    }

    /// Control epochs executed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Streams ever offered (terminal ones included).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The cluster-scope telemetry registry (`cluster.*` plus whatever the
    /// embedding daemon registers on it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.ctrl.telemetry
    }

    /// Seconds an operator should wait before re-offering after a
    /// rejection — the placement backoff converted to wall time.
    pub fn admission_retry_after_s(&self) -> u64 {
        let epochs = self.ctrl.backoff_epochs(0);
        (epochs as f64 * self.ctrl.epoch_wall_s()).ceil().max(1.0) as u64
    }

    /// Point-in-time status of one stream.
    pub fn status(&self, gid: usize) -> Option<StreamStatus> {
        let s = self.streams.get(gid)?;
        let state = if s.removed {
            "dropped"
        } else if s.done {
            "completed"
        } else if s.rejected {
            "rejected"
        } else if s.home.is_some() {
            "running"
        } else {
            "pending"
        };
        Some(StreamStatus {
            id: gid,
            state: state.to_string(),
            instance: s.home.or(s.ckpt_at),
            cursor: s.ckpt.cursor,
            total_frames: s.input.traces.len() as u64,
            reforwards: s.reforwards,
            retries: s.retries,
            source_lost: s.ckpt.source_lost,
            survivors: s.ckpt.survivors.len(),
        })
    }

    /// Survivor set of one stream so far (cumulative, checkpoint-backed).
    pub fn survivors_of(&self, gid: usize) -> Option<&[SurvivingFrame]> {
        self.streams.get(gid).map(|s| s.ckpt.survivors.as_slice())
    }

    /// Advance the control loop by one epoch. Returns `false` (and does
    /// nothing) once no admitted stream has work left or the epoch cap is
    /// reached — the batch loop's exact termination condition.
    pub fn step(&mut self) -> io::Result<bool> {
        if self.epoch >= self.ctrl.cfg.max_epochs || !self.active() {
            return Ok(false);
        }
        let t0 = Instant::now();
        let epoch = self.epoch;
        let epoch_end_frame = (epoch + 1) * self.ctrl.cfg.epoch_frames;

        self.fire_faults(epoch, epoch_end_frame);
        self.resync_controller();
        self.place_pending(epoch)?;
        let mut epoch_results: Vec<Option<SimResult>> = vec![None; self.instances.len()];
        for i in 0..self.instances.len() {
            if self.instances[i].alive && !self.instances[i].resident.is_empty() {
                let mut result = self.run_instance_epoch(i)?;
                self.observe(i, &mut result, epoch_end_frame);
                epoch_results[i] = Some(result);
            }
        }
        self.rebalance(epoch, &epoch_results)?;

        self.ctl.advance_clock(self.ctrl.epoch_wall_s());
        self.ctrl.c_epochs.inc();
        self.epoch += 1;
        self.ctrl.h_epoch_wall.record(elapsed_us(t0));
        Ok(true)
    }

    /// Fire instance faults. A crash covering this epoch kills the
    /// instance before the epoch runs; its on-disk checkpoints are all
    /// that survives.
    fn fire_faults(&mut self, epoch: u64, epoch_end_frame: u64) {
        for i in 0..self.instances.len() {
            let Some(f) = self.ctrl.plan.crash_frame(i) else {
                continue;
            };
            if !self.instances[i].alive || f >= epoch_end_frame {
                continue;
            }
            self.instances[i].alive = false;
            self.ctl.set_alive(i, false);
            self.ctrl.c_instances_crashed.inc();
            for gid in std::mem::take(&mut self.instances[i].resident) {
                let st = &mut self.streams[gid];
                st.home = None;
                // the snapshot to recover is in the dead instance's log
                // (committed at the end of its last completed epoch, if
                // any ran)
                st.ckpt_at = Some(i);
                st.next_retry_epoch = epoch;
            }
        }
    }

    /// Re-sync the controller with each live instance's *remaining* work
    /// so placement probes price the future.
    fn resync_controller(&mut self) {
        for i in 0..self.instances.len() {
            if self.instances[i].alive {
                let remaining: Vec<StreamInput> = self.instances[i]
                    .resident
                    .iter()
                    .map(|&gid| remaining_input(&self.streams[gid]))
                    .collect();
                self.ctl.set_streams(i, remaining);
            }
        }
    }

    /// Place pending streams (dead-instance recoveries and overload
    /// sheds), least-loaded live instances first.
    fn place_pending(&mut self, epoch: u64) -> io::Result<()> {
        let pending: Vec<usize> = (0..self.streams.len())
            .filter(|&gid| {
                let s = &self.streams[gid];
                s.admitted
                    && !s.done
                    && !s.rejected
                    && !s.removed
                    && s.home.is_none()
                    && s.next_retry_epoch <= epoch
            })
            .collect();
        for gid in pending {
            let remaining = remaining_input(&self.streams[gid]);
            let mut order: Vec<usize> = (0..self.instances.len())
                .filter(|&i| self.instances[i].alive && !self.instances[i].overloaded)
                .collect();
            order.sort_by_key(|&i| self.instances[i].resident.len());
            let target = order
                .into_iter()
                .find(|&i| self.ctl.try_place(i, &remaining));
            match target {
                Some(to) => self.reforward(gid, to)?,
                None => {
                    let st = &mut self.streams[gid];
                    st.retries += 1;
                    self.ctrl.c_reforward_retries.inc();
                    if self.streams[gid].retries > self.ctrl.cfg.max_reforward_retries {
                        self.give_up(gid);
                    } else {
                        let attempt = self.streams[gid].retries - 1;
                        self.streams[gid].next_retry_epoch =
                            epoch + self.ctrl.backoff_epochs(attempt);
                    }
                }
            }
        }
        Ok(())
    }

    /// What instance `i`'s epoch tells the controller: the live admission
    /// signal, the real-time verdict, and which streams are done. A `slow@`
    /// fault in force inflates the epoch's makespan first, so both signals
    /// judge the effective wall.
    fn observe(&mut self, i: usize, result: &mut SimResult, epoch_end_frame: u64) {
        if let Some((at, dur_us)) = self.ctrl.plan.slow_from(i) {
            if at < epoch_end_frame {
                result.makespan_us += dur_us as f64;
            }
        }
        // this epoch's T-YOLO rate (stage_executed counts only this
        // segment; resumed counters would double-count history)
        let wall_s = (result.makespan_us / 1e6).max(1e-9);
        let probe = Telemetry::new();
        probe
            .counter("stream0.tyolo.frames_in")
            .add(result.stage_executed[2]);
        self.ctl.observe_telemetry(i, &probe.snapshot(), wall_s);
        self.instances[i].overloaded = is_overloaded(result, &self.ctrl.sys);

        // retire completed streams — a written-off source is terminal
        // too: nothing more will ever come over that link
        let streams = &mut self.streams;
        self.instances[i].resident.retain(|&gid| {
            let st = &mut streams[gid];
            let finished = st.ckpt.cursor as usize >= st.input.traces.len() || st.ckpt.source_lost;
            if finished {
                st.done = true;
                st.home = None;
            }
            !finished
        });
    }

    /// Re-forward streams away from overloaded instances.
    ///
    /// The planner ([`plan_rebalance`], built on `balance_instances_from`)
    /// simulates the live fleet's *remaining* work from the current
    /// residency and proposes the full set of moves that restores
    /// real-time service — possibly several in one epoch, §4.3.1's
    /// "re-forwarded … immediately". Its simulation is fault-blind: when
    /// an overload is injected (a `slow@` fault) rather than structural,
    /// the planner proposes nothing and the loop degrades to the legacy
    /// shed — one highest-backlog stream per overloaded instance into
    /// pending placement — which keeps rejection bounded instead of
    /// hanging.
    fn rebalance(&mut self, epoch: u64, epoch_results: &[Option<SimResult>]) -> io::Result<()> {
        let overloaded: Vec<usize> = (0..self.instances.len())
            .filter(|&i| {
                self.instances[i].alive
                    && self.instances[i].overloaded
                    && !self.instances[i].resident.is_empty()
            })
            .collect();
        if overloaded.is_empty() {
            return Ok(());
        }

        let live: Vec<usize> = (0..self.instances.len())
            .filter(|&i| self.instances[i].alive)
            .collect();
        let mut gids: Vec<usize> = Vec::new();
        let mut initial: Vec<usize> = Vec::new();
        for (compact, &i) in live.iter().enumerate() {
            for &gid in &self.instances[i].resident {
                gids.push(gid);
                initial.push(compact);
            }
        }
        let mut moves: Vec<(usize, usize)> = Vec::new();
        if live.len() > 1 && !gids.is_empty() {
            let remaining: Vec<StreamInput> = gids
                .iter()
                .map(|&gid| remaining_input(&self.streams[gid]))
                .collect();
            let rounds = gids.len().min(8) + 2;
            moves = plan_rebalance(&self.ctrl.sys, &remaining, live.len(), &initial, rounds);
        }

        if moves.is_empty() {
            for i in overloaded {
                let Some(result) = &epoch_results[i] else {
                    continue;
                };
                if self.instances[i].resident.is_empty() {
                    continue;
                }
                let worst_local = result
                    .per_stream_max_backlog
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &b)| b)
                    .map(|(l, _)| l)
                    .unwrap_or(0)
                    .min(self.instances[i].resident.len() - 1);
                let gid = self.instances[i].resident.remove(worst_local);
                let st = &mut self.streams[gid];
                st.home = None;
                st.ckpt_at = Some(i);
                st.next_retry_epoch = epoch + 1;
            }
            return Ok(());
        }

        for (k, to_compact) in moves {
            let gid = gids[k];
            let (from, to) = (live[initial[k]], live[to_compact]);
            let s = &self.streams[gid];
            if s.done || s.rejected || s.removed || s.home != Some(from) {
                continue;
            }
            self.reforward(gid, to)?;
            self.instances[from].resident.retain(|&g| g != gid);
        }
        Ok(())
    }

    /// Re-forward `gid` onto instance `to`: hand its checkpoint over
    /// (timed), make it resident there, and charge its migration budget.
    fn reforward(&mut self, gid: usize, to: usize) -> io::Result<()> {
        let t0 = Instant::now();
        self.hand_over_checkpoint(gid, to)?;
        self.ctrl.h_reforward_latency.record(elapsed_us(t0));
        self.instances[to].resident.push(gid);
        let st = &mut self.streams[gid];
        st.home = Some(to);
        st.ckpt_at = Some(to);
        st.reforwards += 1;
        self.ctrl.c_reforwards.inc();
        if st.reforwards > self.ctrl.cfg.max_reforwards {
            // the stream keeps bouncing between instances; stop chasing it
            // rather than ping-pong to the epoch cap
            self.give_up(gid);
        }
        Ok(())
    }

    /// Move `gid`'s durable checkpoint (if it has one yet) into `to`'s log
    /// — the hand-over half of a re-forward: read from the source
    /// directory's log on disk, committed to the target's, and only once
    /// that is durable forgotten in the source's, so a crash in between
    /// leaves two copies, never none. Off a live instance the resident
    /// checkpoint rides along in memory; off a dead one its memory died
    /// with it, so the stream continues from what the log says — or fresh
    /// when it never completed an epoch there.
    fn hand_over_checkpoint(&mut self, gid: usize, to: usize) -> io::Result<()> {
        let from = match self.streams[gid].ckpt_at {
            Some(from) if from != to => from,
            _ => return Ok(()),
        };
        let dead = !self.instances[from].alive;
        match load_stream_checkpoint(&self.instances[from].dir, gid)? {
            Some(on_disk) => {
                self.instances[to]
                    .log
                    .commit(std::slice::from_ref(&on_disk))?;
                self.instances[from].log.forget(gid)?;
                self.ctrl.c_ckpt_loads.inc();
                self.ctrl.c_ckpt_writes.inc();
                self.ctrl.c_ckpt_syncs.add(2);
                if dead {
                    self.ctrl.c_recoveries.inc();
                    self.streams[gid].ckpt = on_disk;
                }
            }
            // nothing yet: the stream never finished an epoch there
            None if dead => self.streams[gid].ckpt = StreamCheckpoint::fresh(gid),
            None => {}
        }
        Ok(())
    }

    fn give_up(&mut self, gid: usize) {
        if let Some(home) = self.streams[gid].home.take() {
            self.instances[home].resident.retain(|&g| g != gid);
        }
        self.streams[gid].rejected = true;
        self.ctrl.c_reforward_given_up.inc();
    }

    /// One epoch of one instance: plan (each resident's checkpoint re-keyed
    /// to its engine-local slot, its next trace window cut), execute (one
    /// DES segment), fold (the checkpoints the engine hands back return to
    /// global-id keys, are made durable in one commit — the copy a crash
    /// leaves behind — and become resident).
    fn run_instance_epoch(&mut self, i: usize) -> io::Result<SimResult> {
        let resident = self.instances[i].resident.clone();
        let (inputs, bases): (Vec<StreamInput>, Vec<StreamCheckpoint>) = resident
            .iter()
            .enumerate()
            .map(|(local, &gid)| {
                let st = &self.streams[gid];
                let len = st.input.traces.len() as u64;
                let start = st.ckpt.cursor.min(len);
                let end = (st.ckpt.cursor + self.ctrl.cfg.epoch_frames).min(len);
                let window = StreamInput {
                    traces: st.input.traces[start as usize..end as usize].to_vec(),
                    thresholds: st.input.thresholds,
                };
                (window, renumber_checkpoint(&st.ckpt, local))
            })
            .unzip();

        let plan = self.epoch_fault_plan(&resident);
        let splan = self.epoch_source_plan(&resident);
        let t_engine = Instant::now();
        let mut engine = Engine::new(self.ctrl.sys, Mode::Online, inputs).resume_from(bases);
        if !plan.is_empty() {
            engine = engine.with_fault_plan(&plan);
        }
        if !splan.is_empty() {
            engine = engine.with_source_plan(&splan);
        }
        let (result, checkpoints) = engine.run_segment();
        self.ctrl.h_epoch_engine.record(elapsed_us(t_engine));

        let t_ckpt = Instant::now();
        let checkpoints: Vec<StreamCheckpoint> = resident
            .iter()
            .zip(&checkpoints)
            .map(|(&gid, ck)| renumber_checkpoint(ck, gid))
            .collect();
        self.instances[i].log.commit(&checkpoints)?;
        self.ctrl.c_ckpt_syncs.inc();
        self.ctrl.c_ckpt_writes.add(checkpoints.len() as u64);
        for ck in checkpoints {
            let st = &mut self.streams[ck.stream];
            st.ckpt = ck;
            st.ckpt_at = Some(i);
        }
        self.ctrl.h_epoch_ckpt.record(elapsed_us(t_ckpt));

        // Latch one-shot stream faults whose frame window this epoch
        // consumed: fresh engine injectors must not re-fire them.
        for (idx, e) in self.ctrl.plan.stream_plan().entries().iter().enumerate() {
            if self.ctrl.fault_fired.get(idx).copied().unwrap_or(true) {
                continue;
            }
            if !resident.contains(&e.stream) {
                continue;
            }
            let fired_at = match e.fault {
                StageFault::StallFor { at_frame, .. } => Some(at_frame),
                StageFault::FailNextPush { at_frame } => Some(at_frame),
                StageFault::PanicAtFrame(_) => None, // persistent by design
            };
            if let Some(at) = fired_at {
                if self.streams[e.stream].ckpt.cursor > at {
                    self.ctrl.fault_fired[idx] = true;
                }
            }
        }

        Ok(result)
    }

    /// The engine-local fault plan for one epoch: stream entries are keyed
    /// by *global* stream id in the cluster grammar and remapped to the
    /// instance's local slots here, dropping one-shots that already fired
    /// in an earlier epoch.
    fn epoch_fault_plan(&self, resident: &[usize]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for (idx, e) in self.ctrl.plan.stream_plan().entries().iter().enumerate() {
            let Some(local) = resident.iter().position(|&g| g == e.stream) else {
                continue;
            };
            if self.ctrl.fault_fired.get(idx).copied().unwrap_or(false) {
                continue;
            }
            // skip one-shots aimed beyond this epoch's window — harmless
            // to include, but pruning keeps injector state minimal
            let window_end = self.streams[e.stream].ckpt.cursor + self.ctrl.cfg.epoch_frames;
            let relevant = match e.fault {
                StageFault::PanicAtFrame(n) => n < window_end,
                StageFault::StallFor { at_frame, .. } => at_frame < window_end,
                StageFault::FailNextPush { at_frame } => at_frame < window_end,
            };
            if relevant {
                plan = plan.with(local, e.stage, e.fault);
            }
        }
        plan
    }

    /// The engine-local source plan for one epoch: global stream ids
    /// remapped to the instance's local slots. Frame-keyed one-shots below
    /// a stream's resume cursor are fast-forwarded by the engine itself.
    fn epoch_source_plan(&self, resident: &[usize]) -> SourceFaultPlan {
        let mut plan = SourceFaultPlan::new();
        for e in self.ctrl.source_plan.entries() {
            if let Some(local) = resident.iter().position(|&g| g == e.stream) {
                plan = plan.with(local, e.fault);
            }
        }
        plan
    }

    /// Per-stream outcomes as of now (terminal or not).
    fn outcomes(&self) -> Vec<StreamOutcome> {
        self.streams
            .iter()
            .map(|s| {
                if s.removed {
                    StreamOutcome::Dropped {
                        cursor: s.ckpt.cursor,
                        reforwards: s.reforwards,
                    }
                } else if s.done {
                    StreamOutcome::Completed {
                        instance: s.ckpt_at.unwrap_or(0),
                        reforwards: s.reforwards,
                        survivors: s.ckpt.survivors.clone(),
                    }
                } else if s.rejected {
                    StreamOutcome::Rejected {
                        reforwards: s.reforwards,
                        retries: s.retries,
                    }
                } else {
                    StreamOutcome::Unfinished {
                        instance: s.home,
                        cursor: s.ckpt.cursor,
                        reforwards: s.reforwards,
                    }
                }
            })
            .collect()
    }

    /// Snapshot the session into a [`ClusterReport`] without ending it.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            outcomes: self.outcomes(),
            epochs: self.epoch,
            alive: self.instances.iter().map(|i| i.alive).collect(),
            final_loads: self.instances.iter().map(|i| i.resident.len()).collect(),
            telemetry: self.ctrl.telemetry.snapshot(),
        }
    }

    /// End the session and report.
    pub fn into_report(self) -> ClusterReport {
        self.report()
    }

    /// Export the full control state for a crash-safe drain. Pair with the
    /// checkpoint logs already in the instance directories;
    /// [`ClusterSession::restore`] rebuilds an identical session from both.
    pub fn export_manifest(&self) -> SessionManifest {
        SessionManifest {
            schema_version: SESSION_SCHEMA_VERSION,
            epoch: self.epoch,
            fault_fired: self.ctrl.fault_fired.clone(),
            instances: self
                .instances
                .iter()
                .map(|i| InstanceManifest {
                    alive: i.alive,
                    overloaded: i.overloaded,
                    resident: i.resident.clone(),
                })
                .collect(),
            streams: self
                .streams
                .iter()
                .map(|s| StreamManifest {
                    traces: s.input.traces.clone(),
                    thresholds: s.input.thresholds,
                    cursor: s.ckpt.cursor,
                    home: s.home,
                    ckpt_at: s.ckpt_at,
                    reforwards: s.reforwards,
                    retries: s.retries,
                    next_retry_epoch: s.next_retry_epoch,
                    admitted: s.admitted,
                    done: s.done,
                    rejected: s.rejected,
                    removed: s.removed,
                    source_lost: s.ckpt.source_lost,
                })
                .collect(),
        }
    }

    /// Rebuild a session from a drained manifest plus the instances'
    /// checkpoint logs in `ctrl`'s checkpoint root. The `ctrl` must carry
    /// the same fleet size and fault plans the drained session ran with.
    pub fn restore(ctrl: Cluster, manifest: &SessionManifest) -> io::Result<ClusterSession> {
        if manifest.schema_version != SESSION_SCHEMA_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "session manifest schema {} unsupported (expected {})",
                    manifest.schema_version, SESSION_SCHEMA_VERSION
                ),
            ));
        }
        if manifest.instances.len() != ctrl.cfg.instances {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "manifest has {} instances, cluster config has {}",
                    manifest.instances.len(),
                    ctrl.cfg.instances
                ),
            ));
        }
        if manifest.fault_fired.len() != ctrl.fault_fired.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "manifest fault latches do not match the attached fault plan \
                 — resume with the same --faults the drained run used",
            ));
        }
        let mut session = ClusterSession::create(ctrl, true)?;
        // each instance's log, folded once
        let logs = session.instances.iter();
        let mut held = logs
            .map(|inst| load_checkpoints(&inst.dir))
            .collect::<io::Result<Vec<_>>>()?;
        session.epoch = manifest.epoch;
        session.ctrl.fault_fired = manifest.fault_fired.clone();
        for (i, im) in manifest.instances.iter().enumerate() {
            session.instances[i].alive = im.alive;
            session.instances[i].overloaded = im.overloaded;
            session.instances[i].resident = im.resident.clone();
            if !im.alive {
                session.ctl.set_alive(i, false);
            }
        }
        for (gid, sm) in manifest.streams.iter().enumerate() {
            // cursor, survivors and `source_lost` ride the checkpoint log,
            // not the manifest; a stream that never finished an epoch has
            // no record and starts fresh
            let on_disk = (sm.ckpt_at.or(sm.home)).and_then(|at| held.get_mut(at)?.remove(&gid));
            if on_disk.is_some() {
                session.ctrl.c_ckpt_loads.inc();
            }
            let ckpt = on_disk.unwrap_or_else(|| StreamCheckpoint::fresh(gid));
            session.streams.push(StreamState {
                input: StreamInput {
                    traces: sm.traces.clone(),
                    thresholds: sm.thresholds,
                },
                ckpt,
                home: sm.home,
                ckpt_at: sm.ckpt_at,
                reforwards: sm.reforwards,
                retries: sm.retries,
                next_retry_epoch: sm.next_retry_epoch,
                admitted: sm.admitted,
                done: sm.done,
                rejected: sm.rejected,
                removed: sm.removed,
            });
        }
        // price the restored residency so offers arriving before the first
        // step are admitted against real load
        session.resync_controller();
        Ok(session)
    }
}

/// Plan the checkpoint-riding re-forwards that rebalance `remaining` work
/// across `n_instances`, starting from the current residency `initial`.
/// Returns `(stream index, target instance)` for every stream the planner
/// moves. Deterministic: same inputs, same moves. Conservation: the
/// planner reassigns streams, it never duplicates or loses one — pinned by
/// the unit tests.
pub fn plan_rebalance(
    sys: &FfsVaConfig,
    remaining: &[StreamInput],
    n_instances: usize,
    initial: &[usize],
    max_rounds: usize,
) -> Vec<(usize, usize)> {
    let outcome = balance_instances_from(sys, remaining, n_instances, max_rounds, initial.to_vec());
    assert_eq!(
        outcome.assignment.len(),
        remaining.len(),
        "balancer must conserve streams"
    );
    initial
        .iter()
        .zip(outcome.assignment.iter())
        .enumerate()
        .filter(|(_, (&a, &b))| a != b)
        .map(|(k, (_, &b))| (k, b))
        .collect()
}

/// Build the remaining (un-run) input of a stream for placement probes.
fn remaining_input(st: &StreamState) -> StreamInput {
    StreamInput {
        traces: st.input.traces[(st.ckpt.cursor as usize).min(st.input.traces.len())..].to_vec(),
        thresholds: st.input.thresholds,
    }
}

/// Find the maximum stream count an `n_instances` fleet sustains in real
/// time, with re-forwarding allowed to spread load — the cluster-level
/// analogue of [`crate::instance::find_max_online_streams`], behind
/// `ffsva capacity --instances`.
pub fn find_max_cluster_streams(
    cfg: &FfsVaConfig,
    n_instances: usize,
    mut make_inputs: impl FnMut(usize) -> Vec<StreamInput>,
    upper_bound: usize,
) -> usize {
    if upper_bound == 0 || n_instances == 0 {
        return 0;
    }
    let pool = make_inputs(upper_bound);
    max_sustained(upper_bound.min(pool.len()), |n| {
        balance_instances(cfg, &pool[..n], n_instances, 2 * n + 4).all_realtime
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::stream_ckpt_path;
    use crate::config::StreamThresholds;
    use ffsva_models::FrameTrace;
    use std::fs;

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

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ffsva_cluster_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Reference survivor sets: the same streams run uninterrupted in one
    /// monolithic engine (survivors are sibling-independent, so instance
    /// membership cannot matter).
    fn reference_survivors(
        sys: &FfsVaConfig,
        inputs: &[StreamInput],
    ) -> Vec<Vec<crate::rt_engine::SurvivingFrame>> {
        Engine::new(*sys, Mode::Online, inputs.to_vec())
            .run()
            .per_stream_survivors
    }

    #[test]
    fn healthy_fleet_completes_with_reference_identical_survivors() {
        let sys = FfsVaConfig::default();
        let root = tmp_root("healthy");
        let inputs: Vec<StreamInput> = (0..4).map(|_| synthetic_input(320, 8)).collect();
        let expected = reference_survivors(&sys, &inputs);

        let cfg = ClusterConfig::new(2, &root).with_epoch_frames(100);
        let report = Cluster::new(sys, cfg).run(inputs).unwrap();

        assert_eq!(report.completed(), 4, "outcomes {:?}", report.outcomes);
        assert_eq!(report.rejected(), 0);
        for (s, exp) in expected.iter().enumerate() {
            assert_eq!(
                report.survivors(s).unwrap(),
                exp.as_slice(),
                "stream {s} survivors drifted across epochs"
            );
            assert!(!exp.is_empty(), "test workload must produce survivors");
        }
        // 320 frames at 100/epoch: four epochs each, no faults, no moves
        assert_eq!(report.telemetry.counter("cluster.offers"), 4);
        assert_eq!(report.telemetry.counter("cluster.admitted"), 4);
        assert_eq!(report.telemetry.counter("cluster.reforwards"), 0);
        assert_eq!(report.telemetry.counter("cluster.instances_crashed"), 0);
        assert_eq!(report.epochs, 4);
        assert!(report.alive.iter().all(|&a| a));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_recovers_streams_elsewhere_with_identical_survivors() {
        let sys = FfsVaConfig::default();
        let root = tmp_root("crash");
        let inputs: Vec<StreamInput> = (0..4).map(|_| synthetic_input(320, 8)).collect();
        let expected = reference_survivors(&sys, &inputs);

        // instance 0 dies at the epoch covering frame 150 (epoch 1): its
        // streams finished exactly one epoch and must ride those
        // checkpoints onto instance 1
        let plan = ClusterFaultPlan::parse("instance0:crash@150").unwrap();
        let cfg = ClusterConfig::new(2, &root).with_epoch_frames(100);
        let report = Cluster::new(sys, cfg)
            .with_fault_plan(&plan)
            .run(inputs)
            .unwrap();

        assert_eq!(report.completed(), 4, "outcomes {:?}", report.outcomes);
        for (s, exp) in expected.iter().enumerate() {
            assert_eq!(
                report.survivors(s).unwrap(),
                exp.as_slice(),
                "stream {s}: migrated survivors must be bit-identical"
            );
        }
        assert_eq!(report.telemetry.counter("cluster.instances_crashed"), 1);
        assert!(report.telemetry.counter("cluster.reforwards") >= 1);
        assert!(report.telemetry.counter("cluster.recoveries") >= 1);
        assert_eq!(report.alive, vec![false, true]);
        assert_eq!(report.final_loads, vec![0, 0]);
        // every re-forward measured a hand-over latency
        let lat = &report.telemetry.histograms["cluster.reforward_latency_us"];
        assert_eq!(lat.count, report.telemetry.counter("cluster.reforwards"));
        assert!(report.reforward_latency_ms() >= 0.0);
        let _ = fs::remove_dir_all(&root);
    }

    /// The epoch I/O budget: one record per resident stream and one sync per
    /// instance per epoch, and no read at all while the fleet is healthy; a
    /// crash reads exactly the checkpoints it recovers, and a hand-over
    /// syncs the target's commit and then the source's tombstone. After
    /// every step, across the crash, every stream's checkpoint folded from
    /// disk equals its resident one and its survivors are a prefix of the
    /// straight run's.
    #[test]
    fn epochs_write_each_stream_once_and_read_the_disk_only_to_recover() {
        let sys = FfsVaConfig::default();
        let inputs: Vec<StreamInput> = (0..4).map(|_| synthetic_input(320, 8)).collect();
        let straight = reference_survivors(&sys, &inputs);
        for (tag, faults, recovered, instance_epochs) in [
            ("healthy", ClusterFaultPlan::new(), 0, 8),
            (
                "crash",
                ClusterFaultPlan::parse("instance0:crash@150").unwrap(),
                2,
                5,
            ),
        ] {
            let root = tmp_root(&format!("io_{tag}"));
            let cfg = ClusterConfig::new(2, &root).with_epoch_frames(100);
            let mut session = Cluster::new(sys, cfg.clone())
                .with_fault_plan(&faults)
                .into_session()
                .unwrap();
            for input in &inputs {
                session.offer(input.clone());
            }
            while session.step().unwrap() {
                let logs = session.instances.iter();
                let on_disk: Vec<_> = logs.map(|i| load_checkpoints(&i.dir).unwrap()).collect();
                for (gid, st) in session.streams.iter().enumerate() {
                    let at = st.ckpt_at.expect("every stream ran the first epoch");
                    for (i, held) in on_disk.iter().enumerate() {
                        let want = (i == at).then_some(&st.ckpt);
                        assert_eq!(held.get(&gid), want, "{tag}: stream {gid} in inst{i}");
                    }
                    assert!(
                        straight[gid].starts_with(&st.ckpt.survivors),
                        "{tag}: stream {gid}'s survivors left the straight run's"
                    );
                }
            }
            // a restored session finds every stream's file again, those of
            // streams that never moved and already retired included
            let ctrl = Cluster::new(sys, cfg).with_fault_plan(&faults);
            let restored = ClusterSession::restore(ctrl, &session.export_manifest()).unwrap();
            for gid in 0..4 {
                assert!(!session.survivors_of(gid).unwrap().is_empty());
                assert_eq!(restored.survivors_of(gid), session.survivors_of(gid));
            }
            assert_eq!(restored.telemetry().counter("cluster.ckpt_loads").get(), 4);
            let report = session.into_report();
            assert_eq!(report.completed(), 4, "{tag}: {:?}", report.outcomes);
            assert_eq!(report.epochs, 4);
            let snap = &report.telemetry;
            // 4 streams x 4 epochs, plus one record per checkpoint handed over
            assert_eq!(snap.counter("cluster.ckpt_writes"), 16 + recovered, "{tag}");
            assert_eq!(
                snap.counter("cluster.ckpt_syncs"),
                instance_epochs + 2 * recovered,
                "{tag}: one sync per instance-epoch, two per hand-over"
            );
            assert_eq!(snap.counter("cluster.ckpt_loads"), recovered, "{tag}");
            assert_eq!(snap.counter("cluster.recoveries"), recovered, "{tag}");
            assert_eq!(snap.histograms["cluster.epoch_wall_us"].count, 4);
            for name in ["cluster.epoch_engine_us", "cluster.epoch_ckpt_us"] {
                assert_eq!(
                    snap.histograms[name].count, instance_epochs,
                    "{tag}: {name}"
                );
            }
            let _ = fs::remove_dir_all(&root);
        }
    }

    /// Disk is truth: what a crash recovers is the log, never the dead
    /// instance's memory. A stream whose log is one epoch stale resumes
    /// from the stale cursor, finishes one epoch after its siblings, and
    /// still reports reference-identical survivors.
    #[test]
    fn recovery_continues_from_the_file_not_from_the_dead_instances_memory() {
        let sys = FfsVaConfig::default();
        let root = tmp_root("disk_truth");
        let inputs: Vec<StreamInput> = (0..4).map(|_| synthetic_input(320, 8)).collect();
        let expected = reference_survivors(&sys, &inputs);

        // instance 0 dies before the epoch covering frame 250 (epoch 2)
        let plan = ClusterFaultPlan::parse("instance0:crash@250").unwrap();
        let cfg = ClusterConfig::new(2, &root).with_epoch_frames(100);
        let mut session = Cluster::new(sys, cfg)
            .with_fault_plan(&plan)
            .into_session()
            .unwrap();
        for input in inputs {
            session.offer(input);
        }
        assert!(session.step().unwrap());
        let (victim, sibling) = (
            session.instances[0].resident[0],
            session.instances[0].resident[1],
        );
        // tamper from outside the session: cut the victim's second epoch out
        // of the log (the sibling's record of that epoch is put back as a
        // commit of its own)
        let file = stream_ckpt_path(&session.instances[0].dir, victim);
        let after_first_epoch = fs::read(&file).unwrap();
        assert!(session.step().unwrap());
        assert_eq!(session.status(victim).unwrap().cursor, 200);
        fs::write(&file, after_first_epoch).unwrap();
        CheckpointLog::open(&session.instances[0].dir, true)
            .unwrap()
            .commit(std::slice::from_ref(&session.streams[sibling].ckpt))
            .unwrap();

        // the crash fires: both streams ride the log onto instance 1, the
        // victim from frame 100, its sibling from frame 200
        assert!(session.step().unwrap());
        assert_eq!(session.status(victim).unwrap().cursor, 200);
        assert_eq!(session.status(sibling).unwrap().cursor, 300);
        while session.step().unwrap() {}

        let report = session.into_report();
        assert_eq!(report.epochs, 5, "the stale stream needs one extra epoch");
        assert_eq!(report.completed(), 4, "outcomes {:?}", report.outcomes);
        for (s, exp) in expected.iter().enumerate() {
            assert_eq!(report.survivors(s).unwrap(), exp.as_slice(), "stream {s}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dead_fleet_rejects_with_bounded_retries_and_no_hang() {
        let sys = FfsVaConfig::default();
        let root = tmp_root("deadfleet");
        let inputs: Vec<StreamInput> = (0..2).map(|_| synthetic_input(300, 8)).collect();
        // the whole fleet dies before frame 0's epoch: nothing can ever be
        // placed again, so every stream must burn its retry budget and be
        // rejected — not spin to the epoch cap
        let plan = ClusterFaultPlan::parse("instance0:crash@0,instance1:crash@0").unwrap();
        let cfg = ClusterConfig::new(2, &root)
            .with_epoch_frames(100)
            .with_reforward_budget(2, 4)
            .with_max_epochs(200);
        let report = Cluster::new(sys, cfg)
            .with_fault_plan(&plan)
            .run(inputs)
            .unwrap();

        assert_eq!(report.completed(), 0);
        assert_eq!(report.rejected(), 2, "outcomes {:?}", report.outcomes);
        for o in &report.outcomes {
            match o {
                StreamOutcome::Rejected { retries, .. } => assert_eq!(*retries, 3),
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        assert_eq!(report.telemetry.counter("cluster.reforward_given_up"), 2);
        assert_eq!(report.telemetry.counter("cluster.reforward_retries"), 6);
        assert!(
            report.epochs < 200,
            "retry exhaustion must end the run early, ran {} epochs",
            report.epochs
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cluster_config_builders_and_backoff_pacing() {
        let cfg = ClusterConfig::new(3, "/tmp/x")
            .with_epoch_frames(0)
            .with_reforward_budget(7, 9)
            .with_max_epochs(0);
        assert_eq!(cfg.epoch_frames, 1, "zero epoch frames clamps to 1");
        assert_eq!(cfg.max_epochs, 1, "zero epoch cap clamps to 1");
        assert_eq!((cfg.max_reforward_retries, cfg.max_reforwards), (7, 9));

        let sys = FfsVaConfig::default();
        let cl = Cluster::new(sys, ClusterConfig::new(1, "/tmp/x").with_epoch_frames(150));
        // 150 frames @ 30 FPS = 5 s epochs; 250 ms, 500 ms, 1 s delays all
        // round up to one epoch, and the cap keeps large attempts finite
        assert_eq!(cl.backoff_epochs(0), 1);
        assert_eq!(cl.backoff_epochs(2), 1);
        assert_eq!(cl.backoff_epochs(31), 6, "30 s cap / 5 s epochs");
        assert_eq!(cl.backoff_epochs(u32::MAX), 6);
    }

    /// The satellite regression for wiring `balance_instances_from` into
    /// the epoch loop: the planner is a pure function of its inputs (same
    /// moves twice) and conserves streams (every stream keeps exactly one
    /// home, no duplicates, no losses).
    #[test]
    fn rebalance_planner_is_deterministic_and_conserves_streams() {
        let sys = FfsVaConfig::default();
        // 16 maximally heavy streams (every frame a target) all piled onto
        // instance 0 of 3 — a structural imbalance the planner must fix
        let remaining: Vec<StreamInput> = (0..16).map(|_| synthetic_input(300, 1)).collect();
        let initial = vec![0usize; 16];
        let a = plan_rebalance(&sys, &remaining, 3, &initial, 20);
        let b = plan_rebalance(&sys, &remaining, 3, &initial, 20);
        assert_eq!(a, b, "same inputs must plan the same moves");
        assert!(
            !a.is_empty(),
            "an all-on-one-instance overload must shed streams"
        );
        let mut seen = std::collections::BTreeSet::new();
        let mut assign = initial.clone();
        for &(k, to) in &a {
            assert!(k < 16 && to < 3, "move ({k}, {to}) out of range");
            assert_ne!(to, initial[k], "a move must change the stream's home");
            assert!(seen.insert(k), "stream {k} planned twice");
            assign[k] = to;
        }
        // conservation: still exactly 16 placed streams, all on real instances
        assert_eq!(assign.len(), 16);
        assert!(assign.iter().all(|&i| i < 3));
    }

    /// Source faults injected at cluster scope produce survivors
    /// bit-identical to a monolithic engine running the same plan: the
    /// per-epoch global→local remap plus engine-side fast-forward must not
    /// re-fire, drop, or duplicate any fault across epoch windows.
    #[test]
    fn cluster_source_plan_matches_monolithic_engine() {
        let sys = FfsVaConfig::default();
        let root = tmp_root("srcplan");
        let inputs: Vec<StreamInput> = (0..4).map(|_| synthetic_input(320, 8)).collect();
        // faults span epoch boundaries (epoch_frames = 100): a drop range
        // inside epoch 0, a corrupt in epoch 1, a dup in epoch 0, and a
        // reorder in epoch 2
        let splan = ffsva_video::SourceFaultPlan::parse(
            "stream0.src:drop@10..15,stream1.src:corrupt@120,\
             stream2.src:dup@50,stream3.src:reorder@205+3",
        )
        .unwrap();

        let expected = Engine::new(sys, Mode::Online, inputs.clone())
            .with_source_plan(&splan)
            .run()
            .per_stream_survivors;

        let cfg = ClusterConfig::new(2, &root).with_epoch_frames(100);
        let report = Cluster::new(sys, cfg)
            .with_source_plan(&splan)
            .run(inputs)
            .unwrap();

        assert_eq!(report.completed(), 4, "outcomes {:?}", report.outcomes);
        for (s, exp) in expected.iter().enumerate() {
            assert_eq!(
                report.survivors(s).unwrap(),
                exp.as_slice(),
                "stream {s}: cluster-scope source faults drifted from the monolithic run"
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Drain/resume at session scope: export the manifest mid-run (through
    /// a JSON round-trip, as the daemon persists it), rebuild the session
    /// against the same checkpoint root, finish — bit-identical to an
    /// uninterrupted run, with the fault latches surviving the splice.
    #[test]
    fn session_manifest_roundtrip_resumes_bit_identical() {
        let sys = FfsVaConfig::default();
        let inputs: Vec<StreamInput> = (0..4).map(|_| synthetic_input(320, 8)).collect();
        let plan =
            ClusterFaultPlan::parse("instance0:crash@150,stream1.snm:stall@120+100ms").unwrap();

        // reference: the same fleet + faults, uninterrupted
        let root_a = tmp_root("resume_ref");
        let cfg_a = ClusterConfig::new(2, &root_a).with_epoch_frames(100);
        let uninterrupted = Cluster::new(sys, cfg_a)
            .with_fault_plan(&plan)
            .run(inputs.clone())
            .unwrap();

        // interrupted: stop after two epochs, persist, restore, finish
        let root_b = tmp_root("resume_cut");
        let cfg_b = ClusterConfig::new(2, &root_b).with_epoch_frames(100);
        let mut session = Cluster::new(sys, cfg_b.clone())
            .with_fault_plan(&plan)
            .into_session()
            .unwrap();
        for input in inputs {
            session.offer(input);
        }
        assert!(session.step().unwrap());
        assert!(session.step().unwrap());
        let json = serde_json::to_string(&session.export_manifest()).unwrap();
        drop(session);

        let manifest: SessionManifest = serde_json::from_str(&json).unwrap();
        let ctrl = Cluster::new(sys, cfg_b).with_fault_plan(&plan);
        let mut resumed = ClusterSession::restore(ctrl, &manifest).unwrap();
        assert_eq!(resumed.epoch(), 2);
        while resumed.step().unwrap() {}
        let report = resumed.into_report();

        assert_eq!(report.completed(), uninterrupted.completed());
        for s in 0..4 {
            assert_eq!(
                report.survivors(s),
                uninterrupted.survivors(s),
                "stream {s}: resumed survivors drifted from the uninterrupted run"
            );
        }
        assert_eq!(report.alive, uninterrupted.alive);

        // restore refuses a mismatched fault plan (latch arity drift)
        let bare = Cluster::new(sys, ClusterConfig::new(2, &root_b).with_epoch_frames(100));
        assert!(ClusterSession::restore(bare, &manifest).is_err());
        let _ = fs::remove_dir_all(&root_a);
        let _ = fs::remove_dir_all(&root_b);
    }

    /// Runtime stream removal: the operator drops a live stream mid-run;
    /// its partial work stands as `Dropped`, siblings are untouched, and a
    /// terminal stream cannot be dropped again.
    #[test]
    fn removed_stream_reports_dropped_outcome() {
        let sys = FfsVaConfig::default();
        let root = tmp_root("dropped");
        let inputs: Vec<StreamInput> = (0..2).map(|_| synthetic_input(320, 8)).collect();
        let expected = reference_survivors(&sys, &inputs);

        let cfg = ClusterConfig::new(2, &root).with_epoch_frames(100);
        let mut session = Cluster::new(sys, cfg).into_session().unwrap();
        for input in inputs {
            session.offer(input);
        }
        assert!(session.step().unwrap());
        assert!(session.remove(0), "live stream must be removable");
        assert!(!session.remove(0), "dropped is terminal");
        assert!(!session.remove(99), "unknown id");
        assert_eq!(session.status(0).unwrap().state, "dropped");
        assert!(session.admission_retry_after_s() >= 1);
        while session.step().unwrap() {}

        let st1 = session.status(1).unwrap();
        assert_eq!(st1.state, "completed");
        assert_eq!(st1.cursor, 320);
        let report = session.into_report();
        assert_eq!(report.dropped(), 1);
        assert_eq!(report.completed(), 1);
        match &report.outcomes[0] {
            StreamOutcome::Dropped { cursor, .. } => {
                assert_eq!(*cursor, 100, "one epoch of work stands");
            }
            other => panic!("expected Dropped, got {other:?}"),
        }
        assert_eq!(
            report.survivors(1).unwrap(),
            expected[1].as_slice(),
            "the sibling must be unaffected by the drop"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fleet_planner_sustains_more_streams_with_more_instances() {
        let cfg = FfsVaConfig::default();
        let make =
            |n: usize| -> Vec<StreamInput> { (0..n).map(|_| synthetic_input(300, 2)).collect() };
        let one = find_max_cluster_streams(&cfg, 1, make, 32);
        let two = find_max_cluster_streams(&cfg, 2, make, 32);
        assert!(one >= 1, "one instance sustains something");
        assert!(
            two > one,
            "two instances must beat one: {two} vs {one} (re-forwarding spreads load)"
        );
        assert_eq!(find_max_cluster_streams(&cfg, 0, make, 32), 0);
        assert_eq!(find_max_cluster_streams(&cfg, 2, make, 0), 0);
    }
}

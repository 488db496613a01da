//! System-wide configuration of an FFS-VA instance.

use ffsva_models::CostSpec;
use ffsva_sched::{BatchPolicy, DegradePolicy};
use serde::{Deserialize, Serialize};

fn default_restart_budget() -> u32 {
    2
}
fn default_restart_backoff_ms() -> u64 {
    10
}
fn default_watchdog_deadline_ms() -> u64 {
    200
}
fn default_degrade_policy() -> DegradePolicy {
    DegradePolicy::Block
}
fn default_source_retry_budget() -> u32 {
    6
}
fn default_source_backoff_ms() -> u64 {
    50
}
fn default_source_backoff_cap_ms() -> u64 {
    1000
}
fn default_reorder_buffer() -> usize {
    8
}
fn default_checkpoint_interval_frames() -> u64 {
    256
}
fn default_precision() -> Precision {
    Precision::F32
}

/// Numeric precision a model stage executes at.
///
/// `Int8` runs the SNM through [`ffsva_models::QuantizedSequential`]:
/// symmetric per-tensor int8 weights, per-sample dynamic activation scales,
/// and integer i8×i8→i32 GEMM/dot kernels (DESIGN.md §12). Activation scales
/// are per *sample*, so batched int8 inference stays bit-identical to
/// single-frame int8 inference and the DES/RT conformance battery keeps
/// holding under either precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "lowercase")]
pub enum Precision {
    /// Full f32 inference — the reference numerics.
    #[default]
    F32,
    /// Quantized int8 inference via the integer kernel path.
    Int8,
}

/// Tunable parameters of an FFS-VA instance, with the paper's defaults.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FfsVaConfig {
    /// Aggressiveness of SNM filtering in `[0, 1]` (§4.2.1, Eq. 2).
    pub filter_degree: f32,
    /// Minimum target objects for a frame to matter (§4.2.2).
    pub number_of_objects: usize,
    /// SNM batch formation policy (§4.3.2).
    pub batch_policy: BatchPolicy,
    /// Queue depth thresholds (§4.3.1: "2, 10, and 2 as the queue depth
    /// thresholds of the SDD queues, SNM queues, and T-YOLO queues").
    pub sdd_queue_depth: usize,
    pub snm_queue_depth: usize,
    pub tyolo_queue_depth: usize,
    /// Depth of the shared queue feeding the reference model.
    pub reference_queue_depth: usize,
    /// Max frames T-YOLO extracts from one stream's queue per cycle
    /// (`num_tyolo`, §3.2.3/§4.3.1 inter-stream balancing).
    pub num_tyolo: usize,
    /// Live-stream frame rate each online stream must sustain.
    pub online_fps: u32,
    /// CPU worker lanes available for SDDs (dual Xeon E5-2683 v3 ≈ 28 cores).
    pub cpu_lanes: usize,
    /// GPUs hosting the SNMs and T-YOLO replicas (paper: 1; §4.3.2 Note
    /// scales the instance by distributing SNM/T-YOLO over more GPUs).
    pub filter_gpus: usize,
    /// GPUs dedicated to the reference model (paper: 1).
    pub reference_gpus: usize,
    /// T-YOLO speed (FPS) below which the instance is considered to have
    /// spare capacity for admission (§4.3.1: "e.g. 140 FPS").
    pub admission_tyolo_fps: f64,
    /// Window over which the admission condition must hold (§4.3.1: 5 s).
    pub admission_window_s: f64,
    /// Whether T-YOLO is globally shared across streams (the paper's
    /// design). `false` gives each stream its own T-YOLO instance that must
    /// be (re)loaded on every switch — the ablation quantifying §3.2.3's
    /// first reason for sharing ("reduce the switch overhead of loading
    /// different models, e.g. 1.2 GB for T-YOLO").
    pub shared_tyolo: bool,
    /// How many times a panicked per-stream stage (SDD/SNM) is restarted
    /// before its stream is quarantined. Serde-defaulted so configs written
    /// before the supervision subsystem still deserialize.
    #[serde(default = "default_restart_budget")]
    pub restart_budget: u32,
    /// Backoff before the first restart (doubles per subsequent restart).
    #[serde(default = "default_restart_backoff_ms")]
    pub restart_backoff_ms: u64,
    /// Watchdog stall deadline: a stage making no progress for this long
    /// while input is queued triggers the degrade policy. 0 disables the
    /// watchdog.
    #[serde(default = "default_watchdog_deadline_ms")]
    pub watchdog_deadline_ms: u64,
    /// What to do when the watchdog detects a stalled stage.
    #[serde(default = "default_degrade_policy")]
    pub degrade_policy: DegradePolicy,
    /// Reconnect attempts after a source disconnect before the stream
    /// degrades to `SourceLost`. Serde-defaulted so configs written before
    /// the ingest-robustness layer still deserialize.
    #[serde(default = "default_source_retry_budget")]
    pub source_retry_budget: u32,
    /// Backoff before the first reconnect attempt (doubles per attempt).
    #[serde(default = "default_source_backoff_ms")]
    pub source_backoff_ms: u64,
    /// Ceiling on any single reconnect backoff.
    #[serde(default = "default_source_backoff_cap_ms")]
    pub source_backoff_cap_ms: u64,
    /// Per-stream reorder buffer capacity at ingest; frames arriving later
    /// than the window tolerates are evicted (counted, never delivered).
    #[serde(default = "default_reorder_buffer")]
    pub reorder_buffer: usize,
    /// Checkpoint cadence in source frames when a checkpoint dir is set.
    #[serde(default = "default_checkpoint_interval_frames")]
    pub checkpoint_interval_frames: u64,
    /// Measured SNM cost curve overriding the paper's calibrated
    /// [`ffsva_models::snm_cost`] in the DES engine — fit from the real
    /// kernel's batch-latency samples (`ffsva tune --fit-cost`) via
    /// [`ffsva_models::cost::fit_batch_curve`], so simulated service times
    /// track this machine instead of the GTX-1080 testbed. `None` keeps the
    /// paper numbers.
    #[serde(default)]
    pub snm_cost_override: Option<CostSpec>,
    /// Numeric precision of SNM inference in both engines. Serde-defaulted
    /// to [`Precision::F32`] so configs written before the quantized path
    /// existed still deserialize (and keep today's numerics).
    #[serde(default = "default_precision")]
    pub snm_precision: Precision,
    /// Numeric precision of the shared T-YOLO front-end in both engines.
    /// `Int8` routes detection through the integer pipeline
    /// (`TinyYolo::count_quantized_with`) and traces through the quantized
    /// counting path, mirroring `snm_precision` dispatch. Serde-defaulted
    /// to [`Precision::F32`] for configs written before the knob existed.
    #[serde(default = "default_precision")]
    pub tyolo_precision: Precision,
}

impl Default for FfsVaConfig {
    fn default() -> Self {
        FfsVaConfig {
            filter_degree: 0.5,
            number_of_objects: 1,
            batch_policy: BatchPolicy::Dynamic { size: 10 },
            sdd_queue_depth: 2,
            snm_queue_depth: 10,
            tyolo_queue_depth: 2,
            reference_queue_depth: 4,
            num_tyolo: 8,
            online_fps: 30,
            cpu_lanes: 28,
            filter_gpus: 1,
            reference_gpus: 1,
            admission_tyolo_fps: 140.0,
            admission_window_s: 5.0,
            shared_tyolo: true,
            restart_budget: default_restart_budget(),
            restart_backoff_ms: default_restart_backoff_ms(),
            watchdog_deadline_ms: default_watchdog_deadline_ms(),
            degrade_policy: default_degrade_policy(),
            source_retry_budget: default_source_retry_budget(),
            source_backoff_ms: default_source_backoff_ms(),
            source_backoff_cap_ms: default_source_backoff_cap_ms(),
            reorder_buffer: default_reorder_buffer(),
            checkpoint_interval_frames: default_checkpoint_interval_frames(),
            snm_cost_override: None,
            snm_precision: default_precision(),
            tyolo_precision: default_precision(),
        }
    }
}

impl FfsVaConfig {
    /// Builder-style setter for FilterDegree.
    pub fn with_filter_degree(mut self, fd: f32) -> Self {
        self.filter_degree = fd;
        self
    }

    /// Builder-style setter for NumberofObjects.
    pub fn with_number_of_objects(mut self, n: usize) -> Self {
        self.number_of_objects = n;
        self
    }

    /// Builder-style setter for the batch policy.
    pub fn with_batch_policy(mut self, p: BatchPolicy) -> Self {
        self.batch_policy = p;
        self
    }

    /// Builder-style setter for the degrade policy.
    pub fn with_degrade_policy(mut self, p: DegradePolicy) -> Self {
        self.degrade_policy = p;
        self
    }

    /// Builder-style setter for the watchdog stall deadline (ms; 0 disables).
    pub fn with_watchdog_deadline_ms(mut self, ms: u64) -> Self {
        self.watchdog_deadline_ms = ms;
        self
    }

    /// Builder-style setter for the stage restart budget.
    pub fn with_restart_budget(mut self, n: u32) -> Self {
        self.restart_budget = n;
        self
    }

    /// Builder-style setter for the source reconnect policy.
    pub fn with_source_reconnect(mut self, budget: u32, backoff_ms: u64, cap_ms: u64) -> Self {
        self.source_retry_budget = budget;
        self.source_backoff_ms = backoff_ms;
        self.source_backoff_cap_ms = cap_ms;
        self
    }

    /// Builder-style setter for the ingest reorder buffer capacity.
    pub fn with_reorder_buffer(mut self, cap: usize) -> Self {
        self.reorder_buffer = cap;
        self
    }

    /// Builder-style setter for the checkpoint cadence (source frames).
    pub fn with_checkpoint_interval(mut self, frames: u64) -> Self {
        self.checkpoint_interval_frames = frames;
        self
    }

    /// Builder-style setter for the measured SNM cost curve (DES override).
    pub fn with_snm_cost(mut self, spec: CostSpec) -> Self {
        self.snm_cost_override = Some(spec);
        self
    }

    /// Builder-style setter for SNM inference precision.
    pub fn with_snm_precision(mut self, p: Precision) -> Self {
        self.snm_precision = p;
        self
    }

    /// Builder-style setter for T-YOLO inference precision.
    pub fn with_tyolo_precision(mut self, p: Precision) -> Self {
        self.tyolo_precision = p;
        self
    }

    /// The reconnect policy the ingest workers apply on disconnect.
    pub fn reconnect_policy(&self) -> ffsva_video::ReconnectPolicy {
        ffsva_video::ReconnectPolicy {
            retry_budget: self.source_retry_budget,
            backoff_ms: self.source_backoff_ms,
            backoff_cap_ms: self.source_backoff_cap_ms,
        }
    }
}

/// Per-stream filter thresholds extracted from a trained
/// [`ffsva_models::FilterBank`] plus the instance config.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamThresholds {
    /// SDD δ_diff.
    pub delta_diff: f32,
    /// SNM effective threshold t_pre (already resolved through Eq. 2).
    pub t_pre: f32,
    /// NumberofObjects applied at T-YOLO.
    pub number_of_objects: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FfsVaConfig::default();
        assert_eq!(c.sdd_queue_depth, 2);
        assert_eq!(c.snm_queue_depth, 10);
        assert_eq!(c.tyolo_queue_depth, 2);
        assert_eq!(c.online_fps, 30);
        assert!((c.admission_tyolo_fps - 140.0).abs() < 1e-9);
        assert!((c.admission_window_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = FfsVaConfig::default()
            .with_filter_degree(0.3)
            .with_number_of_objects(2)
            .with_batch_policy(ffsva_sched::BatchPolicy::Feedback { size: 7 })
            .with_degrade_policy(DegradePolicy::ShedOldest { max_lag_ms: 500 })
            .with_restart_budget(5);
        let json = serde_json::to_string(&c).unwrap();
        let back: FfsVaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.filter_degree, 0.3);
        assert_eq!(back.number_of_objects, 2);
        assert_eq!(back.batch_policy.size(), 7);
        assert_eq!(back.snm_queue_depth, c.snm_queue_depth);
        assert_eq!(back.shared_tyolo, c.shared_tyolo);
        assert_eq!(
            back.degrade_policy,
            DegradePolicy::ShedOldest { max_lag_ms: 500 }
        );
        assert_eq!(back.restart_budget, 5);
    }

    #[test]
    fn pre_supervision_configs_deserialize_with_defaults() {
        // a config serialized before the supervision fields existed
        let old = r#"{
            "filter_degree": 0.5, "number_of_objects": 1,
            "batch_policy": {"Dynamic": {"size": 10}},
            "sdd_queue_depth": 2, "snm_queue_depth": 10,
            "tyolo_queue_depth": 2, "reference_queue_depth": 4,
            "num_tyolo": 8, "online_fps": 30, "cpu_lanes": 28,
            "filter_gpus": 1, "reference_gpus": 1,
            "admission_tyolo_fps": 140.0, "admission_window_s": 5.0,
            "shared_tyolo": true
        }"#;
        let c: FfsVaConfig = serde_json::from_str(old).unwrap();
        assert_eq!(c.snm_cost_override, None);
        assert_eq!(c.snm_precision, Precision::F32);
        assert_eq!(c.tyolo_precision, Precision::F32);
        assert_eq!(c.restart_budget, 2);
        assert_eq!(c.restart_backoff_ms, 10);
        assert_eq!(c.watchdog_deadline_ms, 200);
        assert_eq!(c.degrade_policy, DegradePolicy::Block);
        // ingest-robustness fields are likewise serde-defaulted
        assert_eq!(c.source_retry_budget, 6);
        assert_eq!(c.source_backoff_ms, 50);
        assert_eq!(c.source_backoff_cap_ms, 1000);
        assert_eq!(c.reorder_buffer, 8);
        assert_eq!(c.checkpoint_interval_frames, 256);
    }

    #[test]
    fn retired_pool_worker_fields_are_ignored() {
        // configs written while the stage executor was a user-set option
        // still load; the engine derives the worker count itself
        let json = serde_json::to_string(&FfsVaConfig::default()).unwrap();
        assert!(!json.contains("pool_workers"));
        let old = json.replacen('{', r#"{"pool_workers_sdd":8,"pool_workers_snm":4,"#, 1);
        let c: FfsVaConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&c).unwrap(), json);
    }

    #[test]
    fn reconnect_policy_reflects_config() {
        let c = FfsVaConfig::default().with_source_reconnect(3, 20, 200);
        let p = c.reconnect_policy();
        assert_eq!(p.retry_budget, 3);
        assert_eq!(p.backoff_ms, 20);
        assert_eq!(p.backoff_cap_ms, 200);
    }

    #[test]
    fn snm_cost_override_roundtrips() {
        let spec = CostSpec {
            resize_us: 150.0,
            invoke_us: 1234.5,
            per_frame_us: 87.5,
            mem_bytes: 200 * 1024,
        };
        let c = FfsVaConfig::default().with_snm_cost(spec);
        let json = serde_json::to_string(&c).unwrap();
        let back: FfsVaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.snm_cost_override, Some(spec));
    }

    #[test]
    fn snm_precision_roundtrips_and_serializes_lowercase() {
        let c = FfsVaConfig::default().with_snm_precision(Precision::Int8);
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"snm_precision\":\"int8\""), "{}", json);
        let back: FfsVaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.snm_precision, Precision::Int8);
        assert_eq!(FfsVaConfig::default().snm_precision, Precision::F32);
    }

    #[test]
    fn tyolo_precision_roundtrips_independently_of_snm() {
        let c = FfsVaConfig::default().with_tyolo_precision(Precision::Int8);
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"tyolo_precision\":\"int8\""), "{}", json);
        let back: FfsVaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tyolo_precision, Precision::Int8);
        assert_eq!(back.snm_precision, Precision::F32, "knobs are independent");
        assert_eq!(FfsVaConfig::default().tyolo_precision, Precision::F32);
    }

    #[test]
    fn builders_set_fields() {
        let c = FfsVaConfig::default()
            .with_filter_degree(0.8)
            .with_number_of_objects(3)
            .with_batch_policy(BatchPolicy::Static { size: 20 });
        assert_eq!(c.filter_degree, 0.8);
        assert_eq!(c.number_of_objects, 3);
        assert_eq!(c.batch_policy.size(), 20);
    }
}

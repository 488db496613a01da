//! `ffsva-core` — the FFS-VA system (ICPP 2018).
//!
//! Assembles the cascade models (`ffsva-models`) and scheduling substrate
//! (`ffsva-sched`) into the paper's pipelined multi-stage filtering system:
//!
//! * [`config`] — FilterDegree, NumberofObjects, batch policy, queue depths.
//! * [`workload`] — per-stream training/calibration (§4.1) into decision
//!   traces, with disk caching and §5.1-style multi-stream tiling.
//! * [`sim`] — the discrete-event engine on simulated CPU/GPU devices
//!   (throughput, latency, utilization; Figs. 3, 4, 5, 6, 9, 10).
//! * [`rt_engine`] — a real threaded pipeline running the actual pixel
//!   models with blocking feedback queues.
//! * [`baseline`] — the YOLOv2-on-both-GPUs comparison system.
//! * [`accuracy`] — false-negative/error-run/scene accounting (§5.3, Table 2).
//! * [`tune`] — cost-based cascade auto-tuning (`ffsva tune`) and online
//!   drift recalibration (windowed shift detection, SDD/SNM re-derivation).
//! * [`instance`] — max-stream search, admission, and stream re-forwarding.
//! * [`cluster`] — the fleet control plane: instance faults, telemetry-fed
//!   admission, and checkpoint-riding re-forwarding across instances.
//! * [`serve`] — the crash-safe resident daemon (`ffsva serve`): HTTP/1.1
//!   control API, graceful drain, network-attached sources.
//! * [`report`] — text tables and JSON/CSV result files.
//!
//! ```
//! use ffsva_core::{Engine, FfsVaConfig, Mode, StreamInput, StreamThresholds};
//! use ffsva_models::FrameTrace;
//!
//! // a synthetic decision trace: every 10th frame is a target frame
//! let traces: Vec<FrameTrace> = (0..300).map(|i| {
//!     let t = i % 10 == 0;
//!     FrameTrace { seq: i as u64, pts_ms: i as u64 * 33,
//!                  sdd_distance: if t { 0.01 } else { 1e-4 },
//!                  snm_prob: if t { 0.9 } else { 0.1 },
//!                  tyolo_count: t as u16, reference_count: t as u16,
//!                  truth_count: t as u16, truth_complete: t as u16 }
//! }).collect();
//! let input = StreamInput {
//!     traces,
//!     thresholds: StreamThresholds { delta_diff: 1e-3, t_pre: 0.5, number_of_objects: 1 },
//! };
//! let r = Engine::new(FfsVaConfig::default(), Mode::Offline, vec![input]).run();
//! assert_eq!(r.total_frames, 300);
//! assert_eq!(r.stage_executed[3], 30); // only target frames reach YOLOv2
//! ```

pub mod accuracy;
pub mod baseline;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod instance;
pub mod report;
pub mod rt_engine;
pub mod serve;
pub mod sim;
pub mod tune;
pub mod viz;
pub mod workload;

pub use accuracy::{
    evaluate as evaluate_accuracy, evaluate_relaxed as evaluate_accuracy_relaxed,
    precision_recall_sweep, precision_recall_sweep_relaxed, AccuracyReport, ErrorRunStats, PrPoint,
};
pub use baseline::{run_baseline, BaselineResult};
pub use checkpoint::{
    load_all, load_checkpoints, load_stream_checkpoint, renumber_checkpoint, stream_ckpt_path,
    write_stream_checkpoint, CheckpointLog, CheckpointSpec, Checkpoints, StreamCheckpoint,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use cluster::{
    find_max_cluster_streams, plan_rebalance, Cluster, ClusterConfig, ClusterReport,
    ClusterSession, InstanceManifest, SessionManifest, StreamManifest, StreamOutcome, StreamStatus,
    SESSION_SCHEMA_VERSION,
};
pub use config::{FfsVaConfig, Precision, StreamThresholds};
pub use ffsva_sched::{
    ClusterFaultPlan, DegradePolicy, FaultPlan, FaultStage, InstanceFault, StageFault,
};
pub use ffsva_telemetry::{PipelineDigest, Telemetry, TelemetrySnapshot};
pub use instance::{
    balance_instances, balance_instances_from, find_max_online_streams, has_spare_capacity,
    is_overloaded, max_streams_by_threads, stage_workers, threads_for_streams, AdmissionController,
    Placement, DEFAULT_THREAD_BUDGET,
};
pub use rt_engine::{run_multi_pipeline_rt, MultiRtResult, RtEngine, StreamHealth, SurvivingFrame};
pub use serve::{
    install_signal_drain, signal_drain_requested, Daemon, DrainHandle, DrainReport, ResolvedStream,
    ServeConfig, StreamSpec,
};
pub use sim::{Engine, FrameTimeline, Mode, SimResult, Stage, StreamInput};
pub use tune::{
    config_for, drift_ablation, scene_miss_from_survivors, tune, DriftAblationReport, DriftConfig,
    DriftDetector, TuneCandidate, TuneInput, TuneKnobs, TuneOptions, TuneReport,
    TUNE_SCHEMA_VERSION,
};
pub use viz::{
    render_device_occupancy, render_latency_breakdown, render_stage_activity,
    stage_latency_breakdown,
};
pub use workload::{
    prepare_stream, prepare_stream_cached, tile_inputs, PrepareOptions, PreparedStream,
};

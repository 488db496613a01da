//! `ffs-va` — facade crate for the FFS-VA reproduction (ICPP 2018).
//!
//! FFS-VA puts a pipelined cascade of cheap, stream-specialized filters —
//! SDD (frame difference, CPU) → SNM (per-stream CNN, GPU) → shared T-YOLO
//! (grid detector, GPU) — in front of an expensive reference model (YOLOv2)
//! so that only frames the user cares about pay full inference cost.
//!
//! This crate re-exports the workspace crates under stable paths:
//!
//! * [`tensor`] — pure-Rust CNN engine (inference + training).
//! * [`video`] — synthetic surveillance workload substrate with ground truth.
//! * [`models`] — the four cascade models and per-stream training (§4.1).
//! * [`sched`] — devices, feedback queues, batch policies, DES + threads.
//! * [`telemetry`] — lock-cheap pipeline metrics shared by both engines.
//! * [`core`] — the assembled system: engines, accuracy, instance management.
//!
//! Most programs only need the [`prelude`]:
//!
//! ```
//! use ffs_va::prelude::*;
//! use ffs_va::core::StreamThresholds;
//!
//! // a synthetic decision trace: every 10th frame is a target frame
//! let traces: Vec<FrameTrace> = (0..300)
//!     .map(|i| {
//!         let t = i % 10 == 0;
//!         FrameTrace {
//!             seq: i as u64,
//!             pts_ms: i as u64 * 33,
//!             sdd_distance: if t { 0.01 } else { 1e-4 },
//!             snm_prob: if t { 0.9 } else { 0.1 },
//!             tyolo_count: t as u16,
//!             reference_count: t as u16,
//!             truth_count: t as u16,
//!             truth_complete: t as u16,
//!         }
//!     })
//!     .collect();
//! let input = StreamInput {
//!     traces,
//!     thresholds: StreamThresholds { delta_diff: 1e-3, t_pre: 0.5, number_of_objects: 1 },
//! };
//! let r = Engine::new(FfsVaConfig::default(), Mode::Offline, vec![input]).run();
//! assert_eq!(r.total_frames, 300);
//! assert_eq!(r.stage_executed[3], 30); // only target frames reach YOLOv2
//! ```

pub use ffsva_core as core;
pub use ffsva_models as models;
pub use ffsva_sched as sched;
pub use ffsva_telemetry as telemetry;
pub use ffsva_tensor as tensor;
pub use ffsva_video as video;

/// Common imports: workload generation, cascade training, both engines.
pub mod prelude {
    pub use ffsva_core::{
        evaluate_accuracy, prepare_stream, prepare_stream_cached, run_baseline,
        run_multi_pipeline_rt, tile_inputs, CheckpointSpec, Cluster, ClusterConfig, ClusterReport,
        Engine, FfsVaConfig, Mode, MultiRtResult, Precision, PrepareOptions, PreparedStream,
        RtEngine, SimResult, StreamCheckpoint, StreamHealth, StreamInput, StreamOutcome,
        StreamThresholds, SurvivingFrame,
    };
    pub use ffsva_models::bank::{BankOptions, FilterBank, FrameTrace};
    pub use ffsva_models::snm::SnmModel;
    pub use ffsva_sched::{
        BatchPolicy, ClusterFaultPlan, DegradePolicy, FaultPlan, FaultStage, InstanceFault,
        StageFailure, StageFault,
    };
    pub use ffsva_telemetry::{PipelineDigest, Telemetry, TelemetrySnapshot};
    pub use ffsva_video::prelude::*;
}

//! `ffsva-sched` — scheduling substrate for FFS-VA.
//!
//! The paper runs on a dual-CPU + dual-GPU server; this crate provides the
//! simulated equivalent (DESIGN.md §2) plus the concurrency primitives both
//! execution engines share:
//!
//! * [`device`] — serial CPU/GPU devices with model residency, memory
//!   accounting, and model-switch costs.
//! * [`queue`] — bounded feedback queues (simulation + threaded flavours).
//! * [`batch`] — static / feedback / dynamic batch policies (§4.3.2).
//! * [`des`] — deterministic discrete-event core (virtual clock).
//! * [`rt`] — the unsupervised filter-stage thread over blocking feedback
//!   queues, panic-isolated via `catch_unwind`, and the per-item step every
//!   executor shares.
//! * [`fault`] — deterministic seq-keyed fault plans both engines honour.
//! * [`ingest`] — reorder gating, duplicate suppression, and corrupt-frame
//!   quarantine for frames arriving from unreliable sources.
//! * [`pool`] — the one executor of supervised per-stream stages: a worker
//!   per slot that blocks on its input, or a few workers sweeping many
//!   slots; per-stream FIFO, restart budget, backoff and give-up either way.
//! * [`supervisor`] — the backoff curve, stage outcomes, watchdog stall
//!   detection, degradation policies.
//! * [`stats`] — latency/throughput accounting.
//!
//! ```
//! use ffsva_sched::{BatchPolicy, Device, DeviceKind, EventQueue, ModelKey};
//!
//! // a GPU serializes invocations and charges model-switch overhead
//! let mut gpu = Device::new("gpu0", DeviceKind::Gpu, 8 << 30);
//! let a = gpu.invoke(ModelKey::Snm(0), 10, 3000.0, 200.0, 0.0);
//! let b = gpu.invoke(ModelKey::Snm(0), 10, 3000.0, 200.0, 0.0);
//! assert!(a.switched && !b.switched);
//! assert!(b.start_us >= a.end_us);
//!
//! // the dynamic batch policy never waits once frames are queued
//! assert_eq!(BatchPolicy::Dynamic { size: 8 }.take(3, 10), Some(3));
//!
//! // the event core pops in time order
//! let mut q = EventQueue::new();
//! q.schedule(20.0, "late");
//! q.schedule(10.0, "early");
//! assert_eq!(q.pop().unwrap().1, "early");
//! ```

pub mod batch;
pub mod des;
pub mod device;
pub mod fault;
pub mod ingest;
pub mod pool;
pub mod queue;
pub mod rt;
pub mod stats;
pub mod supervisor;

pub use batch::BatchPolicy;
pub use des::EventQueue;
pub use device::{Completion, Device, DeviceKind, InvocationRecord, ModelKey};
pub use fault::{
    ClusterFaultPlan, FaultAction, FaultEntry, FaultInjector, FaultPlan, FaultStage, InstanceFault,
    InstanceFaultEntry, StageFault,
};
pub use ffsva_telemetry::{
    PoolTelemetry, QueueTelemetry, StageTelemetry, SupervisorTelemetry, Telemetry,
    TelemetrySnapshot,
};
pub use ingest::{GateEvent, IngestCore, IngestGate, IngestOutput, IngestStats};
pub use pool::{spawn_stage_pool, PoolPolicy, PoolSlot, StagePool};
pub use queue::{FeedbackQueue, QueueStats, SimQueue};
pub use rt::{
    spawn_filter_stage, spawn_filter_stage_faulted, StageFailure, StageFaultCtx, StageHandle,
};
pub use stats::{LatencyStats, Throughput};
pub use supervisor::{
    backoff_delay, DegradePolicy, StageOutcome, WatchEntry, Watchdog, MAX_BACKOFF,
};

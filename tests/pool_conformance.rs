//! Pool-conformance battery (DESIGN.md §11): the stage executor's two ways
//! of waiting must be *observationally identical*. The reference is the
//! default engine — a dedicated worker per stream per stage, blocking on its
//! queue — and, for clean runs, `cascade_pass` over each bank's trace (the
//! check the benchmark's `ops_failed` makes). Against it, the shared sweep
//! forced onto the same few streams with 1, 2 and 8 workers per stage must
//! leave bit-identical survivor sets, frame counters, `drift.*` and
//! `rt.supervisor.*` counters, supervision outcomes and end-of-run
//! checkpoint files — under clean runs, injected faults, quarantines, drift
//! recalibration, and kill-and-resume.

use ffs_va::core::accuracy::cascade_pass;
use ffs_va::core::{
    load_stream_checkpoint, CheckpointSpec, DriftConfig, Engine, Mode, StreamCheckpoint,
    StreamInput, StreamThresholds,
};
use ffs_va::models::reference::ReferenceModel;
use ffs_va::models::sdd::SddFilter;
use ffs_va::models::snm::{SnmModel, SnmReport, SnmTrainOptions};
use ffs_va::models::tyolo::TinyYolo;
use ffs_va::prelude::{
    BankOptions, FaultPlan, FaultStage, FfsVaConfig, FilterBank, LabeledFrame, MultiRtResult,
    ObjectClass, RtEngine, StageFault, SurvivingFrame, VideoStream,
};
use ffs_va::video::{workloads, BackgroundKind};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const FRAMES: u64 = 400;
/// Streams per run — more streams than the small worker counts so shards
/// genuinely multiplex, built from two trained banks reused round-robin.
const STREAMS: usize = 4;

/// Sweeping worker counts per stage: fewer than, and more than, the streams
/// of any run here (4, or 5 with the drifting one), so none is dedicated.
const SHARED_WORKERS: [usize; 3] = [1, 2, 8];

fn fast_bank_opts() -> BankOptions {
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

/// One trained cascade plus its eval clip; training happens once per process
/// and every run rebuilds bit-identical banks from the cached state.
struct StreamSeed {
    clip: Vec<LabeledFrame>,
    target: ObjectClass,
    sdd: SddFilter,
    snm: SnmModel,
    snm_report: SnmReport,
}

fn seeds() -> &'static Vec<StreamSeed> {
    static SEEDS: OnceLock<Vec<StreamSeed>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        [41u64, 42]
            .iter()
            .map(|&seed| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
                let vcfg = workloads::test_tiny(ObjectClass::Car, 0.3, seed);
                let mut cam = VideoStream::new(seed as u32, vcfg);
                let training = cam.clip(1200);
                let bank =
                    FilterBank::build(&training, ObjectClass::Car, &fast_bank_opts(), &mut rng);
                let clip = cam.clip(FRAMES as usize);
                StreamSeed {
                    clip,
                    target: bank.target,
                    sdd: bank.sdd,
                    snm: bank.snm,
                    snm_report: bank.snm_report,
                }
            })
            .collect()
    })
}

fn bank_of(sd: &StreamSeed) -> FilterBank {
    FilterBank {
        target: sd.target,
        sdd: sd.sdd.clone(),
        snm: sd.snm.clone(),
        tyolo: TinyYolo::default(),
        reference: ReferenceModel::default(),
        snm_report: sd.snm_report.clone(),
    }
}

/// `STREAMS` independent pipelines from the two trained banks, reused
/// round-robin — streams 0/2 and 1/3 run identical inputs, so the pool has
/// more slots than its small worker counts.
fn rt_streams() -> Vec<(Vec<LabeledFrame>, FilterBank)> {
    (0..STREAMS)
        .map(|s| {
            let sd = &seeds()[s % 2];
            (sd.clip.clone(), bank_of(sd))
        })
        .collect()
}

/// [`rt_streams`] plus one stream that needs online recalibration: stream
/// 0's bank, trained under static illumination, watching the twin scene
/// whose light descends to the cycle trough at the end of the clip.
fn drifting_streams() -> Vec<(Vec<LabeledFrame>, FilterBank)> {
    static NIGHT: OnceLock<Vec<LabeledFrame>> = OnceLock::new();
    let night = NIGHT.get_or_init(|| {
        let mut vcfg = workloads::test_tiny(ObjectClass::Car, 0.3, 41);
        vcfg.background = BackgroundKind::Dynamic {
            period_frames: 2 * FRAMES,
            amplitude: 0.8,
            drift_sigma: 0.0,
        };
        VideoStream::new(41, vcfg).clip(FRAMES as usize)
    });
    let mut streams = rt_streams();
    streams.push((night.clone(), bank_of(&seeds()[0])));
    streams
}

const DRIFT: DriftConfig = DriftConfig {
    window: 40,
    ratio: 2.0,
    cooldown: 80,
    floor: 1e-4,
};

/// Decision traces of the SAME clips through the SAME banks: the DES side
/// of the conformance contract, and what `cascade_pass` is evaluated over.
fn des_inputs(cfg: &FfsVaConfig) -> Vec<StreamInput> {
    (0..STREAMS)
        .map(|s| {
            let sd = &seeds()[s % 2];
            let mut bank = bank_of(sd);
            StreamInput {
                traces: bank.trace_clip(&sd.clip),
                thresholds: StreamThresholds {
                    delta_diff: sd.sdd.delta_diff,
                    t_pre: sd.snm.t_pre(cfg.filter_degree),
                    number_of_objects: cfg.number_of_objects,
                },
            }
        })
        .collect()
}

/// First sequence number of a stream's eval clip (seqs continue from the
/// 1200-frame training clip).
fn base_seq(s: usize) -> u64 {
    seeds()[s % 2].clip[0].frame.seq
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffsva_pool_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Per-stream survivor sequence numbers — the cascade's observable output.
fn survivor_seqs(r: &MultiRtResult) -> Vec<Vec<u64>> {
    r.survivors
        .iter()
        .map(|s| s.iter().map(|f| f.seq).collect())
        .collect()
}

/// Everything a run leaves behind that must not depend on how the stage
/// workers wait.
#[derive(Debug, PartialEq)]
struct Observed {
    survivors: Vec<Vec<SurvivingFrame>>,
    frames: BTreeMap<String, u64>,
    /// `drift.*` and `rt.supervisor.*` counters.
    recal_and_supervision: BTreeMap<String, u64>,
    quarantined: Vec<bool>,
    /// Series names outside the engine-private `rt.` namespace.
    public_names: Vec<String>,
    /// Every stream's end-of-run checkpoint as the directory's log folds to
    /// it (a resumed run's log holds more lines than a straight run's; the
    /// state they fold to must not differ).
    checkpoints: Vec<StreamCheckpoint>,
}

/// Run `engine` with end-of-run checkpoints into `spec`'s directory and
/// collect what it left behind. The directory is left in place.
fn observe_into(engine: RtEngine, spec: CheckpointSpec) -> (MultiRtResult, Observed) {
    let dir = spec.dir.clone();
    let r = engine.with_checkpoint(spec).run();
    let observed = Observed {
        survivors: r.survivors.clone(),
        frames: r.telemetry.frames_counters(),
        recal_and_supervision: r
            .telemetry
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("drift.") || k.starts_with("rt.supervisor."))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        quarantined: r.stream_health.iter().map(|h| h.quarantined).collect(),
        public_names: r.telemetry.conformant_names(),
        checkpoints: (0..r.survivors.len())
            .map(|s| {
                load_stream_checkpoint(&dir, s)
                    .expect("readable log")
                    .expect("end-of-run checkpoint")
            })
            .collect(),
    };
    // the executor really ran as a pool: its engine-private series exist
    for stage in ["sdd", "snm"] {
        assert!(
            r.telemetry
                .gauges
                .contains_key(&format!("rt.pool.{stage}.worker_busy_pct")),
            "rt.pool.{stage} telemetry missing"
        );
    }
    (r, observed)
}

/// [`observe_into`] a fresh scratch directory, removed afterwards.
fn observe(engine: RtEngine) -> (MultiRtResult, Observed) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = tmp_dir(&format!("observe{}", RUNS.fetch_add(1, Ordering::Relaxed)));
    let out = observe_into(engine, CheckpointSpec::new(&dir, 256, false));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Acceptance (tentpole): for every sweeping worker count, everything
/// [`Observed`] is bit-identical to the default engine's dedicated workers —
/// without drift recalibration, and with it on a clip that makes it fire —
/// and a clean run's survivors are exactly `cascade_pass` over the trace.
#[test]
fn shared_sweep_is_bit_identical_to_dedicated_workers() {
    let cfg = FfsVaConfig::default();
    let dedicated = shared_matches_dedicated(rt_streams, None);
    let expected: Vec<Vec<u64>> = des_inputs(&cfg)
        .iter()
        .map(|input| {
            input
                .traces
                .iter()
                .filter(|t| cascade_pass(t, &input.thresholds))
                .map(|t| t.seq)
                .collect()
        })
        .collect();
    assert_eq!(survivor_seqs(&dedicated), expected);
    assert!(expected.iter().any(|s| !s.is_empty()));

    let drifting = shared_matches_dedicated(drifting_streams, Some(DRIFT));
    assert!(drifting.telemetry.counter("drift.detections") >= 1);
}

/// Returns the dedicated (reference) run.
fn shared_matches_dedicated(
    streams: fn() -> Vec<(Vec<LabeledFrame>, FilterBank)>,
    drift: Option<DriftConfig>,
) -> MultiRtResult {
    let engine = || {
        let engine = RtEngine::new(FfsVaConfig::default(), streams());
        match drift {
            Some(d) => engine.with_drift(d),
            None => engine,
        }
    };
    let (dedicated, reference) = observe(engine());
    assert!(dedicated.stream_health.iter().all(|h| h.healthy()));
    for w in SHARED_WORKERS {
        let (_, shared) = observe(engine().with_stage_workers(w));
        assert_eq!(shared, reference, "{w} sweeping workers per stage");
    }
    dedicated
}

/// DES↔RT conformance holds under the shared sweep: both engines emit
/// identical frame-counter names *and values* for the same clips and banks.
#[test]
fn des_and_rt_agree_under_the_shared_sweep() {
    let cfg = FfsVaConfig::default();
    let rt = RtEngine::new(cfg, rt_streams()).with_stage_workers(2).run();
    let inputs = des_inputs(&cfg);
    let des = Engine::new(cfg, Mode::Offline, inputs).run();

    assert_eq!(
        des.telemetry.frames_counters(),
        rt.telemetry.frames_counters(),
        "engines disagree under the shared sweep"
    );
}

/// Quarantine isolation: a persistent SNM panic on one stream burns its
/// restart budget and quarantines *only* that stream, while siblings sharing
/// the same sweeping workers stay bit-identical to a clean run.
#[test]
fn quarantine_isolates_shard_siblings() {
    let cfg = FfsVaConfig {
        restart_budget: 1,
        restart_backoff_ms: 1,
        ..FfsVaConfig::default()
    };
    let clean = RtEngine::new(cfg, rt_streams()).with_stage_workers(2).run();

    let plan = FaultPlan::new().with(
        1,
        FaultStage::Snm,
        StageFault::PanicAtFrame(base_seq(1) + 50),
    );
    let (faulted, shared) = observe(
        RtEngine::new(cfg, rt_streams())
            .with_fault_plan(&plan)
            .with_stage_workers(2),
    );

    assert!(faulted.stream_health[1].quarantined);
    assert_eq!(
        faulted.stream_health[1].failed_stage.as_deref(),
        Some("snm")
    );
    assert_eq!(faulted.stream_health[1].restarts, 1);
    let snap = &faulted.telemetry;
    assert_eq!(snap.counter("rt.supervisor.stream1.snm.restarts"), 1);
    assert_eq!(snap.counter("rt.supervisor.stream1.snm.give_ups"), 1);

    // every sibling — including stream 3, which runs the *same* clip through
    // the same workers — is untouched
    for s in [0usize, 2, 3] {
        assert!(
            faulted.stream_health[s].healthy(),
            "fault on stream 1 leaked into sibling {s}"
        );
        assert_eq!(
            faulted.survivors[s], clean.survivors[s],
            "sibling {s} survivors moved"
        );
        assert_eq!(
            snap.counter(&format!("rt.supervisor.stream{s}.snm.give_ups")),
            0
        );
    }
    // conservation on the quarantined stream: survivors + dropped +
    // quarantined dispose all offered frames exactly once
    let mut disposed = faulted.survivors[1].len() as u64;
    for stage in ["sdd", "snm", "tyolo", "reference"] {
        disposed += snap.counter(&format!("stream1.{stage}.frames_dropped"));
        disposed += snap.counter(&format!("stream1.{stage}.frames_quarantined"));
    }
    assert_eq!(
        disposed, FRAMES,
        "quarantine lost or double-disposed frames"
    );
    assert!(faulted.survivors[1]
        .iter()
        .all(|f| f.seq < base_seq(1) + 50));
    // quarantine outcomes do not depend on how workers wait: dedicated
    // workers reach the exact same state under the same plan
    let (_, dedicated) = observe(RtEngine::new(cfg, rt_streams()).with_fault_plan(&plan));
    assert_eq!(shared, dedicated);
}

/// Kill-and-resume determinism: a run checkpointed and killed after 250
/// frames per stream, then resumed, reports survivors and frame counters
/// bit-identical to an uninterrupted run — under the shared sweep, which is
/// itself bit-identical to dedicated workers, checkpoint files included.
#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    let cfg = FfsVaConfig::default();
    let (full, full_seen) = observe(RtEngine::new(cfg, rt_streams()).with_stage_workers(2));
    assert!(full.telemetry.counter("checkpoint.writes") >= 1);

    // segment 1: the process dies after 250 frames per stream
    let dir = tmp_dir("resume");
    let mut cut = rt_streams();
    for (clip, _) in &mut cut {
        clip.truncate(250);
    }
    let _ = RtEngine::new(cfg, cut)
        .with_stage_workers(2)
        .with_checkpoint(CheckpointSpec::new(&dir, 256, false))
        .run();
    // segment 2: resume from the checkpoints with the full clips
    let (resumed, resumed_seen) = observe_into(
        RtEngine::new(cfg, rt_streams()).with_stage_workers(2),
        CheckpointSpec::new(&dir, 256, true),
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(resumed.survivors, full.survivors);
    assert_eq!(resumed_seen.frames, full_seen.frames);
    assert_eq!(resumed_seen.checkpoints, full_seen.checkpoints);
    assert!(resumed.stream_health.iter().all(|h| h.healthy()));

    let (_, dedicated) = observe(RtEngine::new(cfg, rt_streams()));
    assert_eq!(full_seen, dedicated);
}

/// Migration round-trip: a stream checkpointed on one instance shape resumes
/// on an instance with a *different* worker count (the re-forwarding path:
/// checkpoint, ship the file, resume elsewhere). The reunited run must be
/// bit-identical to never having moved.
#[test]
fn migration_across_worker_counts_is_bit_identical() {
    let cfg = FfsVaConfig::default();
    let (stay, stay_seen) = observe(RtEngine::new(cfg, rt_streams()).with_stage_workers(1));

    // instance A (one sweeping worker per stage) runs the first 250 frames
    // and checkpoints
    let dir = tmp_dir("migrated");
    let mut cut = rt_streams();
    for (clip, _) in &mut cut {
        clip.truncate(250);
    }
    let _ = RtEngine::new(cfg, cut)
        .with_stage_workers(1)
        .with_checkpoint(CheckpointSpec::new(&dir, 256, false))
        .run();
    // instance B (eight) resumes from A's checkpoint files
    let (moved, moved_seen) = observe_into(
        RtEngine::new(cfg, rt_streams()).with_stage_workers(8),
        CheckpointSpec::new(&dir, 256, true),
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(moved.survivors, stay.survivors);
    assert_eq!(moved_seen.frames, stay_seen.frames);
    assert_eq!(moved_seen.checkpoints, stay_seen.checkpoints);
    assert!(moved.stream_health.iter().all(|h| h.healthy()));
}

// Random stream/fault mixes: whatever combination of panics, stalls, and
// dropped pushes lands on the SDD/SNM stages, (a) every offered frame is
// disposed exactly once, (b) each stream's survivors stay in strictly
// increasing seq order (per-stream FIFO), and (c) the sweeping run is
// bit-identical to the dedicated run under the same plan.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    #[test]
    fn random_fault_mixes_conserve_frames_and_fifo_under_the_shared_sweep(
        faults in proptest::collection::vec((0usize..STREAMS, 0u8..6, 0u64..300), 0..5),
        workers in 1usize..9,
    ) {
        let mut plan = FaultPlan::new();
        for (stream, kind, at) in faults {
            let seq = base_seq(stream) + at;
            let (stage, fault) = match kind {
                0 => (FaultStage::Sdd, StageFault::PanicAtFrame(seq)),
                1 => (FaultStage::Snm, StageFault::PanicAtFrame(seq)),
                2 => (FaultStage::Sdd, StageFault::StallFor { at_frame: seq, dur_us: 2_000 }),
                3 => (FaultStage::Snm, StageFault::StallFor { at_frame: seq, dur_us: 2_000 }),
                4 => (FaultStage::Sdd, StageFault::FailNextPush { at_frame: seq }),
                _ => (FaultStage::Snm, StageFault::FailNextPush { at_frame: seq }),
            };
            plan = plan.with(stream, stage, fault);
        }
        prop_assert!(plan.validate().is_ok());

        let base = FfsVaConfig {
            restart_budget: 1,
            restart_backoff_ms: 1,
            ..FfsVaConfig::default()
        };
        let (swept, shared) = observe(
            RtEngine::new(base, rt_streams())
                .with_fault_plan(&plan)
                .with_stage_workers(workers),
        );
        let (_, dedicated) = observe(RtEngine::new(base, rt_streams()).with_fault_plan(&plan));

        let snap = &swept.telemetry;
        for s in 0..STREAMS {
            // frame conservation: disposed exactly once
            let mut disposed = swept.survivors[s].len() as u64;
            for stage in ["sdd", "snm", "tyolo", "reference"] {
                disposed += snap.counter(&format!("stream{s}.{stage}.frames_dropped"));
                disposed += snap.counter(&format!("stream{s}.{stage}.frames_quarantined"));
            }
            prop_assert_eq!(
                disposed, FRAMES,
                "stream {} lost or double-disposed frames under {:?} with {} workers",
                s, plan, workers
            );
            // per-stream FIFO: survivors emerge in source order
            let seqs: Vec<u64> = swept.survivors[s].iter().map(|f| f.seq).collect();
            prop_assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "stream {} survivors reordered under the sweep: {:?}", s, seqs
            );
        }
        // bit-identity with dedicated workers under the same plan
        prop_assert_eq!(&shared, &dedicated, "{:?} with {} workers", plan, workers);
    }
}

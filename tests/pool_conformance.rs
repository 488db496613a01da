//! Pool-conformance battery (DESIGN.md §11): the sharded stage-worker pools
//! must be *observationally identical* to the per-stream-thread layout —
//! survivor sets, frame counters, supervision outcomes, and checkpoint files
//! are all bit-identical for any worker count, under clean runs, injected
//! faults, quarantines, and kill-and-resume.
//!
//! CI parameterizes the worker sweep through `FFSVA_POOL_WORKERS` (a
//! comma-separated list, e.g. `1,8`); unset, the tests sweep {1, 2, 8} so
//! one invocation covers fewer-, equal-, and more-workers-than-streams.

use ffs_va::core::{CheckpointSpec, DriftConfig, Engine, Mode, StreamInput, StreamThresholds};
use ffs_va::models::reference::ReferenceModel;
use ffs_va::models::sdd::SddFilter;
use ffs_va::models::snm::{SnmModel, SnmReport, SnmTrainOptions};
use ffs_va::models::tyolo::TinyYolo;
use ffs_va::prelude::{
    run_multi_pipeline_rt, BankOptions, FaultPlan, FaultStage, FfsVaConfig, FilterBank,
    LabeledFrame, MultiRtResult, ObjectClass, RtEngine, SourceFaultPlan, StageFault, VideoStream,
};
use ffs_va::video::{workloads, BackgroundKind};
use proptest::prelude::*;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::OnceLock;

const FRAMES: u64 = 400;
/// Streams per run — more streams than the small worker counts so shards
/// genuinely multiplex, built from two trained banks reused round-robin.
const STREAMS: usize = 4;

/// Worker counts to sweep. CI pins this via `FFSVA_POOL_WORKERS=1,8`.
fn worker_counts() -> Vec<usize> {
    match std::env::var("FFSVA_POOL_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("FFSVA_POOL_WORKERS must be a comma-separated list of worker counts")
            })
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

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

/// Decision traces of the SAME clips through the SAME banks, for the DES
/// side of the conformance contract.
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

/// Acceptance (tentpole): for every worker count the pooled layout's
/// survivor sets, frame counters, and public (non-engine-private) series
/// names are bit-identical to the per-stream-thread layout — without drift
/// recalibration, and with it on a clip that makes it fire.
#[test]
fn pooled_survivors_bit_identical_to_per_stream_threads() {
    pooled_matches_threads(rt_streams, None);
    pooled_matches_threads(drifting_streams, Some(DRIFT));
}

fn pooled_matches_threads(
    streams: fn() -> Vec<(Vec<LabeledFrame>, FilterBank)>,
    drift: Option<DriftConfig>,
) {
    let run = |cfg: FfsVaConfig| {
        let engine = RtEngine::new(cfg, streams());
        match drift {
            Some(d) => engine.with_drift(d).run(),
            None => engine.run(),
        }
    };
    let cfg = FfsVaConfig::default();
    let legacy = run(cfg);
    assert!(legacy.stream_health.iter().all(|h| h.healthy()));
    assert!(legacy.survivors.iter().any(|s| !s.is_empty()));
    if drift.is_some() {
        assert!(legacy.telemetry.counter("drift.detections") >= 1);
    }

    for w in worker_counts() {
        let pooled_cfg = cfg.with_pool_workers(w, w);
        assert!(pooled_cfg.pooled());
        let pooled = run(pooled_cfg);

        assert_eq!(
            pooled.survivors, legacy.survivors,
            "survivor sets moved under {w} pool workers"
        );
        assert_eq!(
            pooled.telemetry.frames_counters(),
            legacy.telemetry.frames_counters(),
            "frame counters moved under {w} pool workers"
        );
        for series in [
            "drift.detections",
            "drift.sdd_rebuilds",
            "drift.snm_retunes",
        ] {
            assert_eq!(
                pooled.telemetry.counter(series),
                legacy.telemetry.counter(series),
                "{series} moved under {w} pool workers"
            );
        }
        // the execution layout is invisible outside the rt. namespace
        assert_eq!(
            pooled.telemetry.conformant_names(),
            legacy.telemetry.conformant_names(),
            "public series names moved under {w} pool workers"
        );
        assert!(pooled.stream_health.iter().all(|h| h.healthy()));
        // and the pool really ran: its engine-private series exist
        for stage in ["sdd", "snm"] {
            assert!(
                pooled
                    .telemetry
                    .gauges
                    .contains_key(&format!("rt.pool.{stage}.worker_busy_pct")),
                "rt.pool.{stage} telemetry missing"
            );
        }
    }
}

/// DES↔RT conformance holds under pooling: both engines emit identical
/// frame-counter names *and values* for the same clips and banks.
#[test]
fn des_and_rt_agree_under_pooling() {
    let cfg = FfsVaConfig::default().with_pool_workers(2, 2);
    let rt = run_multi_pipeline_rt(rt_streams(), &cfg);
    let inputs = des_inputs(&cfg);
    let des = Engine::new(cfg, Mode::Offline, inputs).run();

    assert_eq!(
        des.telemetry.frames_counters(),
        rt.telemetry.frames_counters(),
        "engines disagree under pooling"
    );
}

/// Quarantine isolation under pooling: a persistent SNM panic on one stream
/// burns its restart budget and quarantines *only* that stream, while pooled
/// siblings sharing the same workers stay bit-identical to a clean run.
#[test]
fn pooled_quarantine_isolates_shard_siblings() {
    let cfg = FfsVaConfig {
        restart_budget: 1,
        restart_backoff_ms: 1,
        ..FfsVaConfig::default()
    }
    .with_pool_workers(2, 2);
    let clean = run_multi_pipeline_rt(rt_streams(), &cfg);

    let plan = FaultPlan::new().with(
        1,
        FaultStage::Snm,
        StageFault::PanicAtFrame(base_seq(1) + 50),
    );
    let faulted = RtEngine::new(cfg, rt_streams())
        .with_fault_plan(&plan)
        .run();

    assert!(faulted.stream_health[1].quarantined);
    assert_eq!(
        faulted.stream_health[1].failed_stage.as_deref(),
        Some("snm")
    );
    assert_eq!(faulted.stream_health[1].restarts, 1);
    let snap = &faulted.telemetry;
    assert_eq!(snap.counter("rt.supervisor.stream1.snm.restarts"), 1);
    assert_eq!(snap.counter("rt.supervisor.stream1.snm.give_ups"), 1);

    // every pooled sibling — including stream 3, which runs the *same* clip
    // through the same worker pool — is untouched
    for s in [0usize, 2, 3] {
        assert!(
            faulted.stream_health[s].healthy(),
            "fault on stream 1 leaked into pooled sibling {s}"
        );
        assert_eq!(
            faulted.survivors[s], clean.survivors[s],
            "pooled sibling {s} survivors moved"
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
    // quarantine outcomes are layout-independent: the per-stream-thread
    // layout reaches the exact same state under the same plan
    let legacy = RtEngine::new(
        FfsVaConfig {
            restart_budget: 1,
            restart_backoff_ms: 1,
            ..FfsVaConfig::default()
        },
        rt_streams(),
    )
    .with_fault_plan(&plan)
    .run();
    assert_eq!(faulted.survivors, legacy.survivors);
    assert_eq!(
        faulted.telemetry.frames_counters(),
        legacy.telemetry.frames_counters()
    );
}

/// Kill-and-resume determinism under pools: a pooled run checkpointed and
/// killed after 250 frames per stream, then resumed (still pooled), reports
/// survivors and frame counters bit-identical to an uninterrupted pooled run
/// — which is itself bit-identical to the per-stream-thread layout.
#[test]
fn pooled_kill_and_resume_matches_uninterrupted_run() {
    let cfg = FfsVaConfig::default().with_pool_workers(2, 2);
    let faults = FaultPlan::default();
    let src = SourceFaultPlan::default();

    let dir_a = tmp_dir("uninterrupted");
    let full = RtEngine::new(cfg, rt_streams())
        .with_fault_plan(&faults)
        .with_source_plan(&src)
        .with_checkpoint(CheckpointSpec::new(&dir_a, 256, false))
        .run();
    assert!(full.telemetry.counter("checkpoint.writes") >= 1);

    // segment 1: the process dies after 250 frames per stream
    let dir_b = tmp_dir("resume");
    let mut cut = rt_streams();
    for (clip, _) in &mut cut {
        clip.truncate(250);
    }
    let _ = RtEngine::new(cfg, cut)
        .with_fault_plan(&faults)
        .with_source_plan(&src)
        .with_checkpoint(CheckpointSpec::new(&dir_b, 256, false))
        .run();
    // segment 2: resume from the checkpoints with the full clips
    let resumed = RtEngine::new(cfg, rt_streams())
        .with_fault_plan(&faults)
        .with_source_plan(&src)
        .with_checkpoint(CheckpointSpec::new(&dir_b, 256, true))
        .run();

    assert_eq!(resumed.survivors, full.survivors);
    assert_eq!(
        resumed.telemetry.frames_counters(),
        full.telemetry.frames_counters()
    );
    assert!(resumed.stream_health.iter().all(|h| h.healthy()));

    // cross-layout: the uninterrupted pooled run equals the per-stream
    // layout, so resume-under-pools inherits bit-identity transitively
    let legacy = run_multi_pipeline_rt(rt_streams(), &FfsVaConfig::default());
    assert_eq!(survivor_seqs(&full), survivor_seqs(&legacy));

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Migration round-trip: a stream checkpointed on one instance shape resumes
/// on an instance with a *different* pool geometry (the re-forwarding path:
/// checkpoint, ship the file, resume elsewhere). The reunited run must be
/// bit-identical to never having moved.
#[test]
fn migration_across_pool_geometries_is_bit_identical() {
    let cfg_a = FfsVaConfig::default().with_pool_workers(1, 1);
    let cfg_b = FfsVaConfig::default().with_pool_workers(8, 8);
    let faults = FaultPlan::default();
    let src = SourceFaultPlan::default();

    let dir_home = tmp_dir("never_moved");
    let stay = RtEngine::new(cfg_a, rt_streams())
        .with_fault_plan(&faults)
        .with_source_plan(&src)
        .with_checkpoint(CheckpointSpec::new(&dir_home, 256, false))
        .run();

    // instance A runs the first 250 frames and checkpoints
    let dir_move = tmp_dir("migrated");
    let mut cut = rt_streams();
    for (clip, _) in &mut cut {
        clip.truncate(250);
    }
    let _ = RtEngine::new(cfg_a, cut)
        .with_fault_plan(&faults)
        .with_source_plan(&src)
        .with_checkpoint(CheckpointSpec::new(&dir_move, 256, false))
        .run();
    // instance B (different worker count) resumes from A's checkpoint files
    let moved = RtEngine::new(cfg_b, rt_streams())
        .with_fault_plan(&faults)
        .with_source_plan(&src)
        .with_checkpoint(CheckpointSpec::new(&dir_move, 256, true))
        .run();

    assert_eq!(moved.survivors, stay.survivors);
    assert_eq!(
        moved.telemetry.frames_counters(),
        stay.telemetry.frames_counters()
    );
    assert!(moved.stream_health.iter().all(|h| h.healthy()));

    let _ = std::fs::remove_dir_all(&dir_home);
    let _ = std::fs::remove_dir_all(&dir_move);
}

// Random stream/fault mixes: whatever combination of panics, stalls, and
// dropped pushes lands on the pooled SDD/SNM stages, (a) every offered frame
// is disposed exactly once, (b) each stream's survivors stay in strictly
// increasing seq order (per-stream FIFO), and (c) the pooled run is
// bit-identical to the per-stream-thread run under the same plan.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    #[test]
    fn random_fault_mixes_conserve_frames_and_fifo_under_pooling(
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
        let pooled = RtEngine::new(base.with_pool_workers(workers, workers), rt_streams())
            .with_fault_plan(&plan)
            .run();
        let legacy = RtEngine::new(base, rt_streams()).with_fault_plan(&plan).run();

        let snap = &pooled.telemetry;
        for s in 0..STREAMS {
            // frame conservation: disposed exactly once
            let mut disposed = pooled.survivors[s].len() as u64;
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
            let seqs: Vec<u64> = pooled.survivors[s].iter().map(|f| f.seq).collect();
            prop_assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "stream {} survivors reordered under pooling: {:?}", s, seqs
            );
        }
        // bit-identity with the per-stream-thread layout under the same plan
        prop_assert_eq!(&pooled.survivors, &legacy.survivors);
        prop_assert_eq!(
            pooled.telemetry.frames_counters(),
            legacy.telemetry.frames_counters()
        );
        for s in 0..STREAMS {
            prop_assert_eq!(
                pooled.stream_health[s].quarantined,
                legacy.stream_health[s].quarantined,
                "stream {} quarantine verdict diverged", s
            );
        }
    }
}

//! Ingest-robustness tests (DESIGN.md §9): unreliable sources, reconnect
//! backoff, reorder smoothing, SourceLost degradation, and crash-safe
//! checkpoint/resume — exercised on both engines and compared bit-for-bit.

use ffs_va::core::{
    load_stream_checkpoint, CheckpointSpec, Engine, Mode, StreamInput, StreamThresholds,
};
use ffs_va::models::reference::ReferenceModel;
use ffs_va::models::sdd::SddFilter;
use ffs_va::models::snm::{SnmModel, SnmReport, SnmTrainOptions};
use ffs_va::models::tyolo::TinyYolo;
use ffs_va::prelude::{
    run_multi_pipeline_rt, BankOptions, FaultPlan, FfsVaConfig, FilterBank, LabeledFrame,
    ObjectClass, RtEngine, SourceFault, SourceFaultPlan, VideoStream,
};
use ffs_va::video::workloads;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const FRAMES: u64 = 400;

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

/// One stream's trained cascade state plus its eval clip — everything needed
/// to rebuild identical `FilterBank`s for any number of runs. Training is
/// the expensive part, so it happens exactly once per process.
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

fn rt_streams() -> Vec<(Vec<LabeledFrame>, FilterBank)> {
    seeds()
        .iter()
        .map(|sd| (sd.clip.clone(), bank_of(sd)))
        .collect()
}

/// Decision traces of the SAME clips through the SAME banks the RT engine
/// runs, so the two engines' frame counters are comparable bit-for-bit.
fn des_inputs(cfg: &FfsVaConfig) -> Vec<StreamInput> {
    seeds()
        .iter()
        .map(|sd| {
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

/// First sequence number of stream `s`'s eval clip — seqs continue from the
/// training clip, so fault frame numbers are offsets from here.
fn base_seq(s: usize) -> u64 {
    seeds()[s].clip[0].frame.seq
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffsva_ingest_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance: under `disconnect@N+500ms` the affected stream reconnects
/// (`src.reconnects >= 1`) and loses nothing, and sibling streams are
/// bit-identical to an unfaulted run.
#[test]
fn disconnect_reconnects_and_isolates_siblings_rt() {
    let cfg = FfsVaConfig::default();
    let clean = run_multi_pipeline_rt(rt_streams(), &cfg);

    let plan = SourceFaultPlan::new().with(
        1,
        SourceFault::DisconnectAt {
            at_frame: base_seq(1) + 50,
            dur_ms: 500,
        },
    );
    let r = RtEngine::new(cfg, rt_streams())
        .with_source_plan(&plan)
        .run();

    let t = &r.telemetry;
    assert!(t.counter("src.reconnects") >= 1, "never reconnected");
    assert!(r.stream_health.iter().all(|h| h.healthy()));
    // a survived outage delays frames but loses none, on either stream
    assert_eq!(r.survivors, clean.survivors);
    for s in 0..2 {
        assert_eq!(t.counter(&format!("stream{s}.src.frames_in")), FRAMES);
        assert_eq!(t.counter(&format!("stream{s}.src.frames_out")), FRAMES);
        assert_eq!(t.counter(&format!("stream{s}.src.frames_dropped")), 0);
    }
}

/// An outage far beyond the retry budget degrades the stream to SourceLost
/// instead of killing the run: its tail is dropped and accounted, and the
/// sibling stream's survivors are untouched.
#[test]
fn reconnect_budget_exhaustion_degrades_to_source_lost_rt() {
    let cfg = FfsVaConfig::default();
    let clean = run_multi_pipeline_rt(rt_streams(), &cfg);

    let base = base_seq(1);
    let plan = SourceFaultPlan::new().with(
        1,
        SourceFault::DisconnectAt {
            at_frame: base + 100,
            dur_ms: 60_000,
        },
    );
    let r = RtEngine::new(cfg, rt_streams())
        .with_source_plan(&plan)
        .run();

    assert!(r.stream_health[0].healthy(), "sibling was degraded");
    assert!(r.stream_health[1].source_lost);
    assert!(!r.stream_health[1].healthy());
    assert_eq!(r.survivors[0], clean.survivors[0]);
    assert!(r.survivors[1].iter().all(|f| f.seq < base + 100));

    // conservation on the lost stream: the whole clip is accounted
    let t = &r.telemetry;
    assert_eq!(t.counter("stream1.src.frames_in"), FRAMES);
    assert_eq!(t.counter("stream1.src.frames_out"), 100);
    assert_eq!(t.counter("stream1.src.frames_dropped"), FRAMES - 100);
    assert_eq!(t.counter("stream1.src.frames_quarantined"), 0);
}

/// Acceptance: kill-and-resume determinism. A run checkpointed and killed
/// after 250 frames, then resumed over the full clips, must report survivor
/// sets and frame counters bit-identical to one uninterrupted run — under
/// active source faults.
#[test]
fn kill_and_resume_matches_uninterrupted_run_rt() {
    let cfg = FfsVaConfig::default();
    let faults = FaultPlan::default();
    let plan = SourceFaultPlan::new()
        .with(
            0,
            SourceFault::DropRange {
                from: base_seq(0) + 40,
                to: base_seq(0) + 44,
            },
        )
        .with(
            1,
            SourceFault::CorruptAt {
                at_frame: base_seq(1) + 120,
            },
        );

    let dir_a = tmp_dir("uninterrupted");
    let full = RtEngine::new(cfg, rt_streams())
        .with_fault_plan(&faults)
        .with_source_plan(&plan)
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
        .with_source_plan(&plan)
        .with_checkpoint(CheckpointSpec::new(&dir_b, 256, false))
        .run();
    // segment 2: resume from the checkpoints with the full clips
    let resumed = RtEngine::new(cfg, rt_streams())
        .with_fault_plan(&faults)
        .with_source_plan(&plan)
        .with_checkpoint(CheckpointSpec::new(&dir_b, 256, true))
        .run();

    assert_eq!(resumed.survivors, full.survivors);
    assert_eq!(
        resumed.telemetry.frames_counters(),
        full.telemetry.frames_counters()
    );
    assert_eq!(
        resumed.telemetry.counter("src.corrupt"),
        full.telemetry.counter("src.corrupt")
    );
    assert!(resumed.stream_health.iter().all(|h| h.healthy()));

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Both engines run the same source-fault plan over the same frames and must
/// agree on every frame counter — the DES↔RT conformance contract extended
/// to the ingest layer.
#[test]
fn des_and_rt_agree_on_ingest_accounting() {
    let cfg = FfsVaConfig::default();
    let plan = SourceFaultPlan::new()
        .with(
            0,
            SourceFault::DropRange {
                from: base_seq(0) + 10,
                to: base_seq(0) + 13,
            },
        )
        .with(
            0,
            SourceFault::ReorderAt {
                at_frame: base_seq(0) + 40,
                by: 2,
            },
        )
        .with(
            1,
            SourceFault::CorruptAt {
                at_frame: base_seq(1) + 20,
            },
        )
        .with(
            1,
            SourceFault::DuplicateAt {
                at_frame: base_seq(1) + 30,
            },
        );

    let rt = RtEngine::new(cfg, rt_streams())
        .with_source_plan(&plan)
        .run();
    let inputs = des_inputs(&cfg);
    let des = Engine::new(cfg, Mode::Offline, inputs)
        .with_source_plan(&plan)
        .run();

    assert_eq!(
        des.telemetry.frames_counters(),
        rt.telemetry.frames_counters(),
        "engines disagree under source faults"
    );
    for t in [&rt.telemetry, &des.telemetry] {
        assert_eq!(t.counter("src.corrupt"), 1);
        assert_eq!(t.counter("src.duplicates"), 1);
        assert_eq!(t.counter("stream0.src.frames_dropped"), 3);
        assert_eq!(t.counter("stream0.src.frames_in"), FRAMES);
        assert_eq!(t.counter("stream1.src.frames_quarantined"), 1);
    }
}

/// What a stream's checkpoint banks that both engines must agree on: its
/// frame counters and its shares of the `pipeline.frames_in` and `src.*`
/// globals (time- and schedule-valued series legitimately differ).
fn banked(dir: &Path, s: usize) -> BTreeMap<String, u64> {
    load_stream_checkpoint(dir, s)
        .expect("readable checkpoint")
        .expect("checkpoint written")
        .counters
        .into_iter()
        .filter(|(name, _)| name.contains(".frames_") || name.starts_with("src."))
        .collect()
}

/// Both engines bank the same counter shares per stream, keys and values:
/// after a segment under source faults, and after a resumed segment with
/// no source plan, which must keep the `src.*` keys it was seeded with —
/// also the ones whose banked value is 0.
#[test]
fn des_and_rt_bank_the_same_counter_shares_across_a_resume() {
    const SRC: [&str; 4] = [
        "src.reconnects",
        "src.corrupt",
        "src.reorder_evictions",
        "src.duplicates",
    ];
    let cfg = FfsVaConfig::default();
    // faults on stream 0 only: stream 1 banks every `src.*` share as 0
    let at = |k: u64| base_seq(0) + k;
    let plan = SourceFaultPlan::new()
        .with(
            0,
            SourceFault::DropRange {
                from: at(10),
                to: at(13),
            },
        )
        .with(0, SourceFault::CorruptAt { at_frame: at(20) })
        .with(0, SourceFault::DuplicateAt { at_frame: at(30) });
    let (dir_rt, dir_des) = (tmp_dir("bank_rt"), tmp_dir("bank_des"));
    let spec = |dir: &Path, resume| CheckpointSpec::new(dir, u64::MAX, resume);
    let agree = |segment: &str| {
        for s in 0..2 {
            let (rt, des) = (banked(&dir_rt, s), banked(&dir_des, s));
            assert_eq!(rt, des, "{segment}: stream {s} banks differ");
            assert!(des["pipeline.frames_in"] > 0);
            for name in SRC {
                assert!(des.contains_key(name), "{segment}: stream {s} lost {name}");
            }
        }
        assert_eq!(banked(&dir_des, 0)["src.corrupt"], 1);
        assert_eq!(banked(&dir_des, 1)["src.corrupt"], 0);
    };

    // segment 1: killed after 250 frames per stream, under the plan
    let (mut cut_rt, mut cut_des) = (rt_streams(), des_inputs(&cfg));
    for (clip, _) in &mut cut_rt {
        clip.truncate(250);
    }
    for input in &mut cut_des {
        input.traces.truncate(250);
    }
    let _ = RtEngine::new(cfg, cut_rt)
        .with_source_plan(&plan)
        .with_checkpoint(spec(&dir_rt, false))
        .run();
    let _ = Engine::new(cfg, Mode::Offline, cut_des)
        .with_source_plan(&plan)
        .with_checkpoint(spec(&dir_des, false))
        .run();
    agree("faulted segment");
    let after_cut = banked(&dir_des, 0)["pipeline.frames_in"];

    // segment 2: resumed over the full inputs with a pristine source
    let _ = RtEngine::new(cfg, rt_streams())
        .with_checkpoint(spec(&dir_rt, true))
        .run();
    let _ = Engine::new(cfg, Mode::Offline, des_inputs(&cfg))
        .with_checkpoint(spec(&dir_des, true))
        .run();
    agree("resumed segment");
    assert_eq!(
        banked(&dir_des, 0)["pipeline.frames_in"],
        after_cut + FRAMES - 250
    );

    let _ = std::fs::remove_dir_all(&dir_rt);
    let _ = std::fs::remove_dir_all(&dir_des);
}

// Random source-fault plans: every unique frame must be classified exactly
// once by both engines (delivered / dropped / quarantined / evicted), and
// the engines must agree bit-for-bit.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    #[test]
    fn random_source_plans_conserve_frames_in_both_engines(
        faults in proptest::collection::vec((0usize..2, 0u8..5, 0u64..300, 1u64..6), 1..5)
    ) {
        let mut plan = SourceFaultPlan::new();
        for (stream, kind, at, k) in faults {
            let base = base_seq(stream);
            let fault = match kind {
                0 => SourceFault::DropRange { from: base + at, to: base + at + k },
                1 => SourceFault::CorruptAt { at_frame: base + at },
                2 => SourceFault::ReorderAt { at_frame: base + at, by: k },
                3 => SourceFault::DuplicateAt { at_frame: base + at },
                // short outages: always within the default retry budget
                _ => SourceFault::DisconnectAt { at_frame: base + at, dur_ms: 100 * k },
            };
            plan = plan.with(stream, fault);
        }
        prop_assert!(plan.validate().is_ok());

        let cfg = FfsVaConfig::default();
        let rt = RtEngine::new(cfg, rt_streams()).with_source_plan(&plan).run();
        let inputs = des_inputs(&cfg);
        let des = Engine::new(cfg, Mode::Offline, inputs)
            .with_source_plan(&plan)
            .run();

        for t in [&rt.telemetry, &des.telemetry] {
            for s in 0..2 {
                prop_assert_eq!(t.counter(&format!("stream{s}.src.frames_in")), FRAMES);
                prop_assert_eq!(
                    t.counter(&format!("stream{s}.src.frames_out"))
                        + t.counter(&format!("stream{s}.src.frames_dropped"))
                        + t.counter(&format!("stream{s}.src.frames_quarantined")),
                    FRAMES,
                    "conservation broken on stream {} under {:?}", s, plan
                );
            }
        }
        prop_assert_eq!(
            des.telemetry.frames_counters(),
            rt.telemetry.frames_counters()
        );
    }
}

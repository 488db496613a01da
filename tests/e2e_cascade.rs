//! Cross-crate integration tests (DESIGN.md §6, integration tier): video
//! generation → cascade training → both execution engines, end to end.
//!
//! The expensive step — generating pixels and training a real SNM — runs
//! once per binary behind a `OnceLock` and is shared by every test here.

use ffs_va::core::accuracy::cascade_pass;
use ffs_va::core::instance::{AdmissionController, Placement};
use ffs_va::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

fn quick_bank_opts() -> BankOptions {
    BankOptions {
        snm: ffs_va::models::snm::SnmTrainOptions {
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

fn quick_prepare_opts() -> PrepareOptions {
    PrepareOptions {
        train_frames: 1200,
        eval_frames: 1500,
        bank: quick_bank_opts(),
        ..Default::default()
    }
}

/// One fully prepared `test` workload stream, shared across tests.
fn prepared() -> &'static PreparedStream {
    static PREPARED: OnceLock<PreparedStream> = OnceLock::new();
    PREPARED.get_or_init(|| {
        prepare_stream(
            workloads::test_tiny(ObjectClass::Car, 0.3, 7),
            &quick_prepare_opts(),
        )
    })
}

/// End-to-end offline accuracy: the baseline (YOLOv2 over every frame) sees
/// 100 % of target scenes; the cascade must stay within 2 % of it on the
/// `test` workload preset (the paper's "< 2 %" headline, §5.3).
#[test]
fn offline_cascade_accuracy_within_two_percent_of_baseline() {
    let ps = prepared();
    let sys = FfsVaConfig::default();
    let th = ps.thresholds(&sys);
    let rep = evaluate_accuracy(&ps.traces, &th);

    assert!(rep.significant_scenes > 0, "workload produced no scenes");
    assert!(
        rep.scene_miss_rate <= 0.02,
        "cascade misses {:.1}% of significant scenes ({} of {}), baseline misses 0%",
        100.0 * rep.scene_miss_rate,
        rep.significant_scenes - rep.significant_scenes_detected,
        rep.significant_scenes
    );
    // the cascade must actually filter, not just pass everything through
    assert!(
        rep.forwarded_frames < rep.total_frames,
        "cascade forwarded every frame"
    );
}

/// DES↔RT cross-engine conformance: under identical thresholds the
/// discrete-event engine and the threaded real-model engine must agree on
/// the exact set of surviving frames — the survivor set is a pure function
/// of (trace, thresholds), never of scheduling.
#[test]
fn des_and_rt_engines_agree_on_survivor_set() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let sys = FfsVaConfig::default();
    let mut camera = VideoStream::new(0, workloads::test_tiny(ObjectClass::Car, 0.3, 42));
    let training = camera.clip(1200);
    let mut bank = FilterBank::build(&training, ObjectClass::Car, &quick_bank_opts(), &mut rng);
    let clip = camera.clip(400);

    let th = StreamThresholds {
        delta_diff: bank.sdd.delta_diff,
        t_pre: bank.snm.t_pre(sys.filter_degree),
        number_of_objects: sys.number_of_objects,
    };
    let traces = bank.trace_clip(&clip);

    // Discrete-event engine: survivors are frames whose timeline reached the
    // reference stage.
    let input = StreamInput {
        traces: traces.clone(),
        thresholds: th,
    };
    let (sim, timelines) = Engine::new(sys, Mode::Offline, vec![input])
        .with_tracing()
        .run_traced();
    let des_survivors: Vec<u64> = timelines[0]
        .iter()
        .zip(&traces)
        .filter(|(tl, _)| tl.dropped_at.is_none() && !tl.reference_done_us.is_nan())
        .map(|(_, tr)| tr.seq)
        .collect();

    // Threaded engine on the *same* bank (moved in), over the same clip.
    let rt = run_multi_pipeline_rt(vec![(clip, bank)], &sys);
    let rt_survivors: Vec<u64> = rt.survivors[0].iter().map(|s| s.seq).collect();

    assert_eq!(sim.total_frames, rt.total_frames);
    assert!(
        !des_survivors.is_empty(),
        "degenerate run: nothing survived"
    );
    assert_eq!(
        des_survivors, rt_survivors,
        "DES and RT engines disagree on the survivor set"
    );
    // and both match the pure trace math
    let expected: Vec<u64> = traces
        .iter()
        .filter(|tr| cascade_pass(tr, &th))
        .map(|tr| tr.seq)
        .collect();
    assert_eq!(des_survivors, expected);
}

/// DES↔RT telemetry conformance: for the same fixed-seed workload, both
/// engines must register the *same* named series (engine-private `des.` /
/// `rt.` prefixes aside) and report bit-identical values for every
/// deterministic frame-count series. Time-valued series (latencies, blocked
/// time, queue depths) legitimately differ — virtual vs. wall clock — but
/// must exist under the same names so dashboards and the repo benchmark read
/// either engine interchangeably.
#[test]
fn des_and_rt_engines_emit_conformant_telemetry() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let sys = FfsVaConfig::default();
    let mut camera = VideoStream::new(0, workloads::test_tiny(ObjectClass::Car, 0.3, 42));
    let training = camera.clip(1200);
    let mut bank = FilterBank::build(&training, ObjectClass::Car, &quick_bank_opts(), &mut rng);
    let clip = camera.clip(400);

    let th = StreamThresholds {
        delta_diff: bank.sdd.delta_diff,
        t_pre: bank.snm.t_pre(sys.filter_degree),
        number_of_objects: sys.number_of_objects,
    };
    let traces = bank.trace_clip(&clip);
    let sim = Engine::new(
        sys,
        Mode::Offline,
        vec![StreamInput {
            traces,
            thresholds: th,
        }],
    )
    .run();
    let rt = run_multi_pipeline_rt(vec![(clip, bank)], &sys);

    // Same metric namespace from both engines.
    let des_names = sim.telemetry.conformant_names();
    let rt_names = rt.telemetry.conformant_names();
    assert!(!des_names.is_empty(), "DES engine registered no series");
    assert_eq!(
        des_names, rt_names,
        "DES and RT engines disagree on the telemetry namespace"
    );

    // Identical values for every deterministic frame-count series.
    let des_frames = sim.telemetry.frames_counters();
    let rt_frames = rt.telemetry.frames_counters();
    assert!(
        des_frames.len() > 12,
        "conformance domain implausibly small: {:?}",
        des_frames.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        des_frames, rt_frames,
        "DES and RT engines disagree on frame accounting"
    );

    // Spot-check the domain is anchored to this run, not vacuously equal.
    assert_eq!(sim.telemetry.counter("pipeline.frames_in"), 400);
    assert_eq!(
        sim.telemetry.stage_total("reference", "frames_out"),
        rt.survivors[0].len() as u64
    );

    // Both latency histograms exist and saw every disposed frame.
    for snap in [&sim.telemetry, &rt.telemetry] {
        let e2e = snap
            .histograms
            .get("latency.e2e_us")
            .expect("latency.e2e_us registered");
        assert_eq!(e2e.count, 400, "e2e latency must cover every frame");
    }
}

/// Faulted DES↔RT conformance: the same deterministic [`FaultPlan`] — one
/// stream's SNM panicking persistently, the other stream losing one SDD
/// push — must produce bit-identical per-stage frame counters (including
/// `frames_quarantined`) in both engines. Faults are keyed on frame seq and
/// queues are FIFO, so the disposition of every frame is schedule-invariant.
#[test]
fn des_and_rt_engines_agree_on_faulted_frame_accounting() {
    use ffs_va::prelude::{FaultPlan, FaultStage, StageFault};

    let sys = FfsVaConfig {
        restart_budget: 1,
        restart_backoff_ms: 1,
        ..FfsVaConfig::default()
    };
    let plan = FaultPlan::new()
        .with(1, FaultStage::Snm, StageFault::PanicAtFrame(50))
        .with(
            0,
            FaultStage::Sdd,
            StageFault::FailNextPush { at_frame: 30 },
        );

    let mut inputs = Vec::new();
    let mut rt_streams = Vec::new();
    for seed in [41u64, 42] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut camera = VideoStream::new(
            seed as u32,
            workloads::test_tiny(ObjectClass::Car, 0.3, seed),
        );
        let training = camera.clip(1200);
        let mut bank = FilterBank::build(&training, ObjectClass::Car, &quick_bank_opts(), &mut rng);
        let clip = camera.clip(400);
        let th = StreamThresholds {
            delta_diff: bank.sdd.delta_diff,
            t_pre: bank.snm.t_pre(sys.filter_degree),
            number_of_objects: sys.number_of_objects,
        };
        inputs.push(StreamInput {
            traces: bank.trace_clip(&clip),
            thresholds: th,
        });
        rt_streams.push((clip, bank));
    }

    let des = Engine::new(sys, Mode::Offline, inputs)
        .with_fault_plan(&plan)
        .run();
    let rt = RtEngine::new(sys, rt_streams).with_fault_plan(&plan).run();

    // identical namespaces, identical frame accounting — quarantine included
    assert_eq!(
        des.telemetry.conformant_names(),
        rt.telemetry.conformant_names(),
        "faulted runs diverge on the telemetry namespace"
    );
    assert_eq!(
        des.telemetry.frames_counters(),
        rt.telemetry.frames_counters(),
        "faulted DES and RT runs disagree on frame accounting"
    );
    // and both attribute the same quarantine totals to the same stream
    assert_eq!(des.per_stream_quarantined.len(), 2);
    assert_eq!(des.per_stream_quarantined[0], 0);
    assert!(des.per_stream_quarantined[1] > 0);
    for s in 0..2 {
        assert_eq!(
            des.per_stream_quarantined[s], rt.stream_health[s].frames_quarantined,
            "stream {s} quarantine totals diverge"
        );
    }
    assert!(rt.stream_health[1].quarantined);
    assert!(rt.stream_health[0].healthy());
}

/// Determinism under fixed seeds: preparing the same stream twice yields
/// bit-identical traces and thresholds, and the DES engine reproduces the
/// same schedule.
#[test]
fn fixed_seeds_make_runs_deterministic() {
    let opts = PrepareOptions {
        train_frames: 800,
        eval_frames: 400,
        bank: quick_bank_opts(),
        ..Default::default()
    };
    let a = prepare_stream(workloads::test_tiny(ObjectClass::Car, 0.35, 11), &opts);
    let b = prepare_stream(workloads::test_tiny(ObjectClass::Car, 0.35, 11), &opts);

    assert_eq!(a.delta_diff.to_bits(), b.delta_diff.to_bits());
    assert_eq!(a.c_low.to_bits(), b.c_low.to_bits());
    assert_eq!(a.c_high.to_bits(), b.c_high.to_bits());
    assert_eq!(a.traces.len(), b.traces.len());
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.seq, tb.seq);
        assert_eq!(ta.sdd_distance.to_bits(), tb.sdd_distance.to_bits());
        assert_eq!(ta.snm_prob.to_bits(), tb.snm_prob.to_bits());
        assert_eq!(ta.tyolo_count, tb.tyolo_count);
        assert_eq!(ta.reference_count, tb.reference_count);
    }

    let sys = FfsVaConfig::default();
    let r1 = Engine::new(sys, Mode::Online, vec![a.input(&sys)]).run();
    let r2 = Engine::new(sys, Mode::Online, vec![b.input(&sys)]).run();
    assert_eq!(r1.makespan_us.to_bits(), r2.makespan_us.to_bits());
    assert_eq!(r1.stage_executed, r2.stage_executed);
    assert_eq!(r1.stage_dropped, r2.stage_dropped);
    assert_eq!(r1.throughput_fps.to_bits(), r2.throughput_fps.to_bits());
}

/// Offline speedup: with a real trained cascade at moderate TOR, the
/// filtering system finishes the clip faster than YOLOv2-on-2-GPUs (the
/// paper reports 3× at TOR ≈ 0.1; at TOR 0.3 the margin is smaller but the
/// cascade must still win).
#[test]
fn offline_cascade_beats_baseline_throughput() {
    let ps = prepared();
    let sys = FfsVaConfig::default();
    let r = Engine::new(sys, Mode::Offline, vec![ps.input(&sys)]).run();
    let b = run_baseline(1, ps.traces.len(), Mode::Offline, 30, 2);
    assert!(
        r.throughput_fps > 1.2 * b.throughput_fps,
        "cascade {:.1} FPS vs baseline {:.1} FPS",
        r.throughput_fps,
        b.throughput_fps
    );
    // the cascade cut the reference load: most frames never reach YOLOv2
    assert!(r.stage_executed[3] < r.total_frames);
}

/// Online admission over real traces: the controller admits streams while
/// the shared T-YOLO shows spare capacity, refuses once the instance would
/// miss real time, and the accepted load stays real-time.
#[test]
fn admission_fills_instance_then_rejects_on_real_traces() {
    let ps = prepared();
    let sys = FfsVaConfig::default();
    let mut ctl = AdmissionController::new(sys, 1);
    let mut admitted = 0usize;
    let mut rejected = false;
    for i in 0..40 {
        match ctl.try_admit(ps.input_rotated(&sys, i * 97)) {
            Placement::Admitted { instance } => {
                assert_eq!(instance, 0);
                admitted += 1;
            }
            Placement::Rejected => {
                rejected = true;
                break;
            }
        }
    }
    assert!(rejected, "instance never saturated within 40 streams");
    assert!(admitted >= 2, "implausibly low capacity: {}", admitted);

    let load = ctl.into_instances().remove(0);
    let r = Engine::new(sys, Mode::Online, load).run();
    assert!(r.realtime(sys.online_fps), "admitted load is not real-time");
}

/// FFSV1 round trip feeds the cascade: a recorded clip read back from disk
/// produces bit-identical decision traces — storage is lossless end to end.
#[test]
fn ffsv1_clip_roundtrip_preserves_cascade_decisions() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut camera = VideoStream::new(0, workloads::test_tiny(ObjectClass::Car, 0.4, 23));
    let training = camera.clip(900);
    let mut bank = FilterBank::build(&training, ObjectClass::Car, &quick_bank_opts(), &mut rng);
    let clip = camera.clip(200);

    let dir = std::env::temp_dir().join("ffsva_e2e_roundtrip");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("clip.ffsv");
    ffs_va::video::write_clip(&path, &clip, 30).expect("write clip");
    let restored = ffs_va::video::read_clip(&path).expect("read clip");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(restored.len(), clip.len());
    let original = bank.trace_clip(&clip);
    let reread = bank.trace_clip(&restored);
    for (a, b) in original.iter().zip(&reread) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.pts_ms, b.pts_ms);
        assert_eq!(a.sdd_distance.to_bits(), b.sdd_distance.to_bits());
        assert_eq!(a.snm_prob.to_bits(), b.snm_prob.to_bits());
        assert_eq!(a.tyolo_count, b.tyolo_count);
        assert_eq!(a.truth_count, b.truth_count);
    }
}

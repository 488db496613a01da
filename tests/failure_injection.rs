//! Failure-injection tests (DESIGN.md §6): the feedback mechanism under a
//! stalled stage, overload detection, stream re-forwarding, and degenerate
//! configurations.

use ffs_va::core::instance::{
    balance_instances_from, has_spare_capacity, is_overloaded, AdmissionController, Placement,
};
use ffs_va::core::{Engine, FfsVaConfig, Mode, StreamInput, StreamThresholds};
use ffs_va::models::snm::SnmTrainOptions;
use ffs_va::prelude::{
    run_multi_pipeline_rt, BankOptions, BatchPolicy, DegradePolicy, FaultPlan, FaultStage,
    FilterBank, FrameTrace, LabeledFrame, ObjectClass, RtEngine, SourceFault, SourceFaultPlan,
    StageFault, VideoStream,
};
use ffs_va::sched::{
    spawn_filter_stage, spawn_stage_pool, FeedbackQueue, PoolPolicy, PoolSlot, PoolTelemetry,
};
use ffs_va::video::workloads;
use proptest::prelude::*;
use rand::SeedableRng;
use std::time::Duration;

/// Synthetic decision trace: every `target_every`-th frame is a target.
fn synthetic_input(n: usize, target_every: usize) -> StreamInput {
    let traces = (0..n)
        .map(|i| {
            let target = target_every > 0 && i % target_every == 0;
            FrameTrace {
                seq: i as u64,
                pts_ms: (i as u64) * 33,
                sdd_distance: if target { 0.01 } else { 0.0001 },
                snm_prob: if target { 0.9 } else { 0.05 },
                tyolo_count: u16::from(target),
                reference_count: u16::from(target),
                truth_count: u16::from(target),
                truth_complete: u16::from(target),
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

/// Failure injection #1: a deliberately stalled T-YOLO stage. The bounded
/// feedback queues must cap upstream growth and propagate backpressure all
/// the way to the source — the paper's feedback mechanism (§4.3.1) — and no
/// frame may be lost or reordered once the stall is released.
#[test]
fn stalled_tyolo_stage_bounds_upstream_queues_via_feedback() {
    let cfg = FfsVaConfig::default();
    let q_src: FeedbackQueue<u64> = FeedbackQueue::new(cfg.sdd_queue_depth);
    let q_snm: FeedbackQueue<u64> = FeedbackQueue::new(cfg.snm_queue_depth);
    let q_tyolo: FeedbackQueue<u64> = FeedbackQueue::new(cfg.tyolo_queue_depth);
    let q_ref: FeedbackQueue<u64> = FeedbackQueue::new(1024);

    let h_sdd = spawn_filter_stage("sdd", q_src.clone(), q_snm.clone(), Some);
    let snm_pool = spawn_stage_pool(
        "snm",
        PoolPolicy {
            workers: 1,
            restart_budget: 0,
            backoff: Duration::ZERO,
        },
        vec![PoolSlot::plain(
            q_snm.clone(),
            q_tyolo.clone(),
            Some(BatchPolicy::Dynamic { size: 10 }),
            |batch: Vec<u64>, _: &mut ()| batch,
        )],
        vec![()],
        PoolTelemetry::noop(),
    );
    // the injected fault: T-YOLO takes 20 ms per frame instead of ~5 ms
    let h_tyolo = spawn_filter_stage("tyolo-stalled", q_tyolo.clone(), q_ref.clone(), |x: u64| {
        std::thread::sleep(Duration::from_millis(20));
        Some(x)
    });

    // A 30-FPS camera worth of frames offered as fast as possible.
    let q_in = q_src.clone();
    let producer = std::thread::spawn(move || {
        for i in 0..500u64 {
            if q_in.push(i).is_err() {
                break;
            }
        }
    });

    // Let the stall develop.
    std::thread::sleep(Duration::from_millis(400));

    // Bounded growth at every stage, and feedback reached the source: the
    // producer is blocked long before its 500 frames enter the pipeline.
    assert!(q_src.stats().max_depth <= cfg.sdd_queue_depth);
    assert!(q_snm.stats().max_depth <= cfg.snm_queue_depth);
    assert!(q_tyolo.stats().max_depth <= cfg.tyolo_queue_depth);
    let entered = q_src.stats().pushed;
    assert!(
        entered < 200,
        "feedback failed: {} frames entered a stalled pipeline",
        entered
    );
    assert!(
        q_src.stats().backpressure_events > 0,
        "producer never hit backpressure"
    );

    // Release: stop offering frames; everything in flight must drain through
    // the slow stage without loss or reordering.
    q_src.close();
    producer.join().unwrap();
    let mut received = Vec::new();
    while let Some(v) = q_ref.pop() {
        received.push(v);
    }
    h_sdd.join().unwrap();
    assert!(!snm_pool.join()[0].gave_up());
    h_tyolo.join().unwrap();

    let entered_total = q_src.stats().pushed;
    assert_eq!(
        received.len() as u64,
        entered_total,
        "frames lost in the stalled pipeline"
    );
    assert_eq!(
        received,
        (0..entered_total).collect::<Vec<u64>>(),
        "stall reordered frames"
    );
}

/// Failure injection #2: a burst of cameras lands on one instance and
/// overloads it. Re-forwarding (§4.3.1) must move streams to instances with
/// spare capacity until every instance is real-time again.
#[test]
fn stream_overload_triggers_reforwarding_to_spare_instances() {
    let cfg = FfsVaConfig::default();
    let streams: Vec<StreamInput> = (0..12).map(|_| synthetic_input(300, 2)).collect();

    // Everything on instance 0 — provably overloaded on its own.
    let all_on_zero = vec![0usize; streams.len()];
    let packed: Vec<StreamInput> = streams.clone();
    let r0 = Engine::new(cfg, Mode::Online, packed).run();
    assert!(
        is_overloaded(&r0, &cfg),
        "12 heavy streams should overload one instance"
    );

    let out = balance_instances_from(&cfg, &streams, 3, 48, all_on_zero);
    assert!(
        out.reforwarded >= 2,
        "only {} streams re-forwarded",
        out.reforwarded
    );
    assert!(
        out.all_realtime,
        "assignment {:?} not real-time",
        out.assignment
    );
    let still_on_zero = out.assignment.iter().filter(|&&a| a == 0).count();
    assert!(
        still_on_zero < streams.len(),
        "nothing left the overloaded instance"
    );
    // the relieved instance really is healthy now
    let relieved: Vec<StreamInput> = out
        .assignment
        .iter()
        .enumerate()
        .filter(|(_, &a)| a == 0)
        .map(|(i, _)| streams[i].clone())
        .collect();
    let r1 = Engine::new(cfg, Mode::Online, relieved).run();
    assert!(!is_overloaded(&r1, &cfg));
}

/// Failure injection #3: offered load beyond capacity must be *refused* at
/// admission, never silently degraded — and the overload signals must read
/// consistently.
#[test]
fn admission_refuses_streams_beyond_capacity() {
    let cfg = FfsVaConfig::default();

    let light = Engine::new(cfg, Mode::Online, vec![synthetic_input(300, 10)]).run();
    assert!(has_spare_capacity(&light, &cfg));
    assert!(!is_overloaded(&light, &cfg));

    let mut ctl = AdmissionController::new(cfg, 1);
    let mut admitted = 0usize;
    let mut rejected = false;
    for _ in 0..40 {
        match ctl.try_admit(synthetic_input(300, 2)) {
            Placement::Admitted { .. } => admitted += 1,
            Placement::Rejected => {
                rejected = true;
                break;
            }
        }
    }
    assert!(rejected, "controller admitted 40 heavy streams");
    assert!(admitted >= 1);
    // what was admitted still runs in real time
    let load = ctl.into_instances().remove(0);
    let r = Engine::new(cfg, Mode::Online, load).run();
    assert!(r.realtime(cfg.online_fps));
}

/// Degenerate configuration: minimal queue depths and an awkward static
/// batch size must not deadlock or drop frames — every frame is disposed
/// exactly once (the §6 "degenerate batch sizes, minimal queue depths"
/// clause).
#[test]
fn degenerate_config_minimal_queues_still_drains_every_frame() {
    let cfg = FfsVaConfig {
        sdd_queue_depth: 1,
        snm_queue_depth: 1,
        tyolo_queue_depth: 1,
        reference_queue_depth: 1,
        batch_policy: BatchPolicy::Static { size: 7 },
        ..FfsVaConfig::default()
    };
    let n = 123usize;
    let r = Engine::new(cfg, Mode::Offline, vec![synthetic_input(n, 3)]).run();
    assert_eq!(r.total_frames, n as u64);
    assert_eq!(r.stage_executed[0], n as u64, "SDD must see every frame");
    // disposition conservation: executed by reference + dropped somewhere = all
    let dropped: u64 = r.stage_dropped.iter().sum();
    assert_eq!(r.stage_executed[3] + dropped, n as u64);
    // every 3rd frame passes the whole cascade: 0, 3, …, 120 → 41 frames
    assert_eq!(r.stage_executed[3], 41);
}

// ---------------------------------------------------------------------------
// supervision & graceful degradation (DESIGN.md §7)

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

/// Two independent streams with real trained banks. Rebuilding from the same
/// seeds yields bit-identical banks, so two calls produce runs whose cascade
/// decisions can be compared frame for frame.
fn two_rt_streams() -> Vec<(Vec<LabeledFrame>, FilterBank)> {
    let mut out = Vec::new();
    for seed in [41u64, 42] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
        let vcfg = workloads::test_tiny(ObjectClass::Car, 0.3, seed);
        let mut cam = VideoStream::new(seed as u32, vcfg);
        let training = cam.clip(1200);
        let bank = FilterBank::build(&training, ObjectClass::Car, &fast_bank_opts(), &mut rng);
        let clip = cam.clip(400);
        out.push((clip, bank));
    }
    out
}

/// Failure injection #4 (supervision tentpole): one stream's SNM panics
/// persistently at frame 50. The supervisor must restart it, exhaust the
/// budget, quarantine that stream — and the sibling stream's survivor set
/// must be bit-identical to an unfaulted run, with every offered frame of
/// the quarantined stream disposed exactly once.
#[test]
fn snm_panic_quarantines_stream_and_isolates_siblings() {
    let cfg = FfsVaConfig {
        restart_budget: 1,
        restart_backoff_ms: 1,
        ..FfsVaConfig::default()
    };
    let clean = run_multi_pipeline_rt(two_rt_streams(), &cfg);
    assert!(clean.stream_health.iter().all(|h| h.healthy()));

    let plan = FaultPlan::new().with(1, FaultStage::Snm, StageFault::PanicAtFrame(50));
    let faulted = RtEngine::new(cfg, two_rt_streams())
        .with_fault_plan(&plan)
        .run();

    // the faulted stream is quarantined, after burning its restart budget
    assert!(
        faulted.stream_health[0].healthy(),
        "sibling was quarantined"
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
    assert_eq!(snap.counter("rt.supervisor.stream0.snm.give_ups"), 0);

    // sibling isolation: stream 0's survivors are bit-identical
    let clean0: Vec<u64> = clean.survivors[0].iter().map(|f| f.seq).collect();
    let faulted0: Vec<u64> = faulted.survivors[0].iter().map(|f| f.seq).collect();
    assert_eq!(clean0, faulted0, "fault on stream 1 leaked into stream 0");

    // conservation on the quarantined stream: survivors + dropped +
    // quarantined account for all 400 offered frames, exactly once each
    let survivors1 = faulted.survivors[1].len() as u64;
    let mut dropped = 0u64;
    let mut quarantined = 0u64;
    for stage in ["sdd", "snm", "tyolo", "reference"] {
        dropped += snap.counter(&format!("stream1.{stage}.frames_dropped"));
        quarantined += snap.counter(&format!("stream1.{stage}.frames_quarantined"));
    }
    assert_eq!(
        survivors1 + dropped + quarantined,
        400,
        "frames lost or double-disposed under quarantine"
    );
    assert!(quarantined > 0, "no frame was quarantined");
    assert_eq!(faulted.stream_health[1].frames_quarantined, quarantined);
    // everything from the fault point on died before T-YOLO
    assert!(faulted.survivors[1].iter().all(|f| f.seq < 50));
    // the stream's SDD kept draining its feeder: no frame stuck upstream
    assert_eq!(
        snap.counter("stream1.sdd.frames_in") + snap.counter("stream1.sdd.frames_quarantined"),
        400
    );
}

/// Failure injection #5 (watchdog + degrade policy): the shared T-YOLO
/// stalls for 2.5 s. Under `Block` the stall propagates into multi-second
/// end-to-end latencies; under `ShedOldest` the watchdog keeps evicting
/// over-age frames so p99 stays bounded near `max_lag_ms`.
#[test]
fn watchdog_shed_oldest_bounds_e2e_latency_under_stall() {
    let stall = StageFault::StallFor {
        at_frame: 0,
        dur_us: 2_500_000,
    };
    let plan = FaultPlan::new().with(0, FaultStage::TYolo, stall);
    // Deep T-YOLO queues so in-flight frames wait at the stalled stage
    // (where ShedOldest can see them) instead of backing up the pipeline.
    let base = FfsVaConfig {
        tyolo_queue_depth: 64,
        watchdog_deadline_ms: 100,
        ..FfsVaConfig::default()
    };

    let blocked = RtEngine::new(
        FfsVaConfig {
            degrade_policy: DegradePolicy::Block,
            ..base
        },
        two_rt_streams(),
    )
    .with_fault_plan(&plan)
    .run();
    let shed = RtEngine::new(
        FfsVaConfig {
            degrade_policy: DegradePolicy::ShedOldest { max_lag_ms: 500 },
            ..base
        },
        two_rt_streams(),
    )
    .with_fault_plan(&plan)
    .run();

    let p99 = |r: &ffs_va::prelude::MultiRtResult| {
        r.telemetry.histograms["latency.e2e_us"].quantile(0.99)
    };
    assert!(
        p99(&blocked) > 1e6,
        "Block should let the stall blow past 1 s e2e, got p99 {} µs",
        p99(&blocked)
    );
    assert!(
        p99(&shed) <= 1e6,
        "ShedOldest{{max_lag_ms:500}} must bound e2e p99 to ~1 s, got {} µs",
        p99(&shed)
    );
    assert!(shed.shed_frames > 0, "watchdog never shed a frame");
    assert!(
        shed.telemetry.counter("rt.watchdog.trips") > 0,
        "watchdog never tripped"
    );
    assert_eq!(blocked.shed_frames, 0, "Block must not shed");
    // shedding disposes frames, it never loses them: survivors + dropped +
    // shed + quarantined == offered
    let snap = &shed.telemetry;
    let mut disposed = shed.shed_frames;
    for s in 0..2 {
        disposed += shed.survivors[s].len() as u64;
        for stage in ["sdd", "snm", "tyolo", "reference"] {
            disposed += snap.counter(&format!("stream{s}.{stage}.frames_dropped"));
            disposed += snap.counter(&format!("stream{s}.{stage}.frames_quarantined"));
        }
    }
    assert_eq!(disposed, 800, "ShedOldest lost or double-disposed frames");
}

// Failure injection #6: random fault plans thrown at the DES engine must
// never lose or double-dispose a frame — survivors + drops + quarantines
// always account for the whole offer, and identical plans reproduce
// identical counters.
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
    #[test]
    fn random_fault_plans_conserve_every_frame_in_des(
        faults in proptest::collection::vec((0usize..2, 0u8..9, 0u64..200), 0..6)
    ) {
        let mut plan = FaultPlan::new();
        for (stream, kind, at) in faults {
            let (stage, fault) = match kind {
                0 => (FaultStage::Sdd, StageFault::PanicAtFrame(at)),
                1 => (FaultStage::Snm, StageFault::PanicAtFrame(at)),
                2 => (FaultStage::Sdd, StageFault::StallFor { at_frame: at, dur_us: 5_000 }),
                3 => (FaultStage::Snm, StageFault::StallFor { at_frame: at, dur_us: 5_000 }),
                4 => (FaultStage::TYolo, StageFault::StallFor { at_frame: at, dur_us: 5_000 }),
                5 => (FaultStage::Reference, StageFault::StallFor { at_frame: at, dur_us: 5_000 }),
                6 => (FaultStage::Sdd, StageFault::FailNextPush { at_frame: at }),
                7 => (FaultStage::Snm, StageFault::FailNextPush { at_frame: at }),
                _ => (FaultStage::TYolo, StageFault::FailNextPush { at_frame: at }),
            };
            plan = plan.with(stream, stage, fault);
        }
        prop_assert!(plan.validate().is_ok());

        let n = 150usize;
        let run = || {
            Engine::new(
                FfsVaConfig::default(),
                Mode::Offline,
                vec![synthetic_input(n, 3), synthetic_input(n, 4)],
            )
            .with_fault_plan(&plan)
            .run()
        };
        let r = run();
        prop_assert_eq!(r.total_frames, 2 * n as u64);
        // conservation: every frame is disposed exactly once
        let dropped: u64 = r.stage_dropped.iter().sum();
        let quarantined: u64 = r.per_stream_quarantined.iter().sum();
        prop_assert_eq!(
            r.stage_executed[3] + dropped + quarantined,
            2 * n as u64,
            "lost/double-disposed frames under plan {:?}",
            plan
        );
        // determinism: the same plan reproduces the same counters
        let r2 = run();
        prop_assert_eq!(
            r.telemetry.frames_counters(),
            r2.telemetry.frames_counters()
        );
        prop_assert_eq!(r.per_stream_quarantined, r2.per_stream_quarantined);
    }
}

// Failure injection #7 (ingest robustness): random source-fault plans thrown
// at the DES ingest layer must classify every unique source frame exactly
// once — delivered, dropped, or quarantined — and identical plans must
// reproduce identical counters. Outages beyond the retry budget's coverage
// (~2.5 s at the default policy) degrade the stream to SourceLost instead of
// losing the run, and the dropped tail still counts toward conservation.
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
    #[test]
    fn random_source_plans_conserve_every_frame_in_des(
        faults in proptest::collection::vec((0usize..2, 0u8..5, 0u64..200, 1u64..8), 1..6)
    ) {
        let mut plan = SourceFaultPlan::new();
        for (stream, kind, at, k) in faults {
            let fault = match kind {
                0 => SourceFault::DropRange { from: at, to: at + k },
                1 => SourceFault::CorruptAt { at_frame: at },
                // displacement up to 21 overflows the default reorder buffer
                // of 8, so late-frame eviction is exercised too
                2 => SourceFault::ReorderAt { at_frame: at, by: k * 3 },
                3 => SourceFault::DuplicateAt { at_frame: at },
                // outages from "one retry" to "budget exhausted" (SourceLost)
                _ => SourceFault::DisconnectAt { at_frame: at, dur_ms: 600 * k },
            };
            plan = plan.with(stream, fault);
        }
        prop_assert!(plan.validate().is_ok());

        let n = 150usize;
        let run = || {
            Engine::new(
                FfsVaConfig::default(),
                Mode::Offline,
                vec![synthetic_input(n, 3), synthetic_input(n, 4)],
            )
            .with_source_plan(&plan)
            .run()
        };
        let r = run();
        for s in 0..2 {
            let t = &r.telemetry;
            prop_assert_eq!(t.counter(&format!("stream{s}.src.frames_in")), n as u64);
            prop_assert_eq!(
                t.counter(&format!("stream{s}.src.frames_out"))
                    + t.counter(&format!("stream{s}.src.frames_dropped"))
                    + t.counter(&format!("stream{s}.src.frames_quarantined")),
                n as u64,
                "lost/double-disposed source frames under plan {:?}",
                plan
            );
        }
        // determinism: the same plan reproduces the same counters
        let r2 = run();
        prop_assert_eq!(
            r.telemetry.frames_counters(),
            r2.telemetry.frames_counters()
        );
        prop_assert_eq!(r.per_stream_source_lost.clone(), r2.per_stream_source_lost);
    }
}

//! Auto-tuning + drift-recalibration battery (DESIGN.md §15): the tuner
//! must be deterministic (same inputs → byte-identical report), its winner
//! must replay on the real-model engine with exactly the accuracy and
//! forwarding it promised, and online recalibration must not lose scenes
//! the static pipeline would have caught on a day→night drifting clip.

use ffs_va::core::{
    drift_ablation, scene_miss_from_survivors, tune, DriftConfig, TuneInput, TuneOptions,
};
use ffs_va::prelude::*;
use ffs_va::video::BackgroundKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Seed of the bank-training RNG; [`twin_bank`] replays it to reproduce the
/// tracing bank bit-identically.
const BANK_SEED: u64 = 5;

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

/// Shared calibration material: pixels are generated and the SNM trained
/// once per test binary.
struct TuneCtx {
    training: Vec<LabeledFrame>,
    calib: Vec<LabeledFrame>,
    input: TuneInput,
    target: ObjectClass,
}

fn ctx() -> &'static TuneCtx {
    static CTX: OnceLock<TuneCtx> = OnceLock::new();
    CTX.get_or_init(|| {
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.3, 42);
        let target = cfg.target;
        let mut camera = VideoStream::new(0, cfg);
        let training = camera.clip(1200);
        let mut rng = StdRng::seed_from_u64(BANK_SEED);
        let mut bank = FilterBank::build(&training, target, &quick_bank_opts(), &mut rng);
        let calib = camera.clip(700);
        let input = TuneInput {
            workload: "tiny-car".into(),
            traces_f32: bank.trace_clip(&calib),
            traces_int8: Some(bank.trace_clip_int8(&calib)),
            delta_diff: bank.sdd.delta_diff,
            c_low: bank.snm.c_low,
            c_high: bank.snm.c_high,
        };
        TuneCtx {
            training,
            calib,
            input,
            target,
        }
    })
}

/// A bank bit-identical to the one that traced the calibration clip:
/// `FilterBank::build` is a pure function of (clip, options, rng stream).
fn twin_bank() -> FilterBank {
    let c = ctx();
    let mut rng = StdRng::seed_from_u64(BANK_SEED);
    FilterBank::build(&c.training, c.target, &quick_bank_opts(), &mut rng)
}

fn small_opts() -> TuneOptions {
    TuneOptions {
        miss_rate_bound: 0.02,
        streams: 2,
        number_of_objects: 1,
        des_budget: 6,
        top_k: 5,
        snm_cost: None,
        seed: 0,
    }
}

/// Same input, same options → byte-identical report, and the winner is a
/// DES-priced feasible point at the top of a correctly sorted ranking.
#[test]
fn tune_is_deterministic_on_a_real_workload() {
    let c = ctx();
    let opts = small_opts();
    let a = tune(&c.input, &opts);
    let b = tune(&c.input, &opts);
    let ja = serde_json::to_string(&a).expect("serialize report");
    let jb = serde_json::to_string(&b).expect("serialize report");
    assert_eq!(ja, jb, "tune is not deterministic");

    let w = a
        .winner
        .as_ref()
        .expect("no feasible winner on the workload");
    assert!(w.feasible);
    assert!(w.scene_miss_rate < opts.miss_rate_bound);
    let w_fps = w.predicted_fps.expect("winner must be DES-priced");
    assert_eq!(a.ranked.first().map(|r| r.index), Some(w.index));
    let fps: Vec<f64> = a.ranked.iter().filter_map(|r| r.predicted_fps).collect();
    assert_eq!(fps.len(), a.ranked.len(), "unpriced candidate in ranking");
    assert!(fps.windows(2).all(|p| p[0] >= p[1]), "ranking not sorted");
    assert!(a.ranked.len() <= opts.top_k);

    let base_fps = a.baseline.predicted_fps.expect("baseline always priced");
    if a.baseline.feasible {
        assert!(
            w_fps >= base_fps,
            "winner ({:.0} fps) beaten by the untuned baseline ({:.0} fps)",
            w_fps,
            base_fps
        );
    }
    let cfg = a.config.as_ref().expect("winner implies blessable config");
    assert_eq!(cfg.filter_degree, w.knobs.filter_degree);
    assert_eq!(cfg.number_of_objects, w.thresholds.number_of_objects);
}

/// DES↔RT conformance for the blessed config: replaying the winner through
/// the real-model engine forwards exactly the frames the tuner scored and
/// holds the promised scene-miss rate.
#[test]
fn tuned_winner_replays_on_the_rt_engine_with_promised_accuracy() {
    let c = ctx();
    let opts = small_opts();
    let report = tune(&c.input, &opts);
    let w = report.winner.clone().expect("no feasible winner");
    let cfg = report.config.clone().expect("no blessable config");

    let mut bank = twin_bank();
    let reference = bank.reference.clone();
    // Eq. 2 agreement: the t_pre the tuner blessed must be bit-identical to
    // what the engine derives from the FilterDegree on the bank's own band.
    assert_eq!(
        bank.snm.t_pre(cfg.filter_degree).to_bits(),
        w.thresholds.t_pre.to_bits(),
        "blessed t_pre diverges from SnmModel::t_pre"
    );
    bank.sdd.delta_diff = w.thresholds.delta_diff;
    let rt = run_multi_pipeline_rt(vec![(c.calib.clone(), bank)], &cfg);
    let survivors = &rt.survivors[0];

    assert_eq!(
        survivors.len(),
        w.forwarded_frames,
        "RT engine forwarded a different frame count than the tuner scored"
    );
    let miss = scene_miss_from_survivors(
        &c.calib,
        survivors,
        &reference,
        c.target,
        opts.number_of_objects,
    );
    assert!(
        (miss - w.scene_miss_rate).abs() < 1e-12,
        "replayed scene miss {} != scored {}",
        miss,
        w.scene_miss_rate
    );
    assert!(
        miss < opts.miss_rate_bound,
        "blessed config misses {:.2}% of scenes on replay (bound {:.1}%)",
        miss * 100.0,
        opts.miss_rate_bound * 100.0
    );
}

/// The drift vehicle: a training clip filmed under static illumination and
/// 900 frames of the twin scene whose light descends to the cycle trough.
fn day_to_night() -> (Vec<LabeledFrame>, Vec<LabeledFrame>) {
    let day = workloads::test_tiny(ObjectClass::Car, 0.3, 11);
    let mut night = day.clone();
    night.background = BackgroundKind::Dynamic {
        period_frames: 1800, // trough lands at the end of the 900-frame eval
        amplitude: 0.8,
        drift_sigma: 0.0,
    };
    let training = VideoStream::new(0, day).clip(1200);
    let eval = VideoStream::new(0, night).clip(900);
    (training, eval)
}

/// A bank trained on the day clip; every call returns a bit-identical twin
/// (each pipeline run consumes its bank).
fn day_bank(training: &[LabeledFrame]) -> FilterBank {
    let mut rng = StdRng::seed_from_u64(BANK_SEED);
    FilterBank::build(training, ObjectClass::Car, &quick_bank_opts(), &mut rng)
}

const DRIFT: DriftConfig = DriftConfig {
    window: 60,
    ratio: 2.0,
    cooldown: 120,
    floor: 1e-4,
};

/// Day→night ablation: a bank trained under static illumination watches a
/// twin scene whose light descends to the cycle trough. The recalibrating
/// pipeline must notice the regime shift, rebuild its SDD reference, and
/// end no worse (within slack) than the static pipeline on scene recall.
#[test]
fn online_recalibration_survives_day_to_night_drift() {
    let (training, eval) = day_to_night();
    let cfg = FfsVaConfig::default();
    let ab = drift_ablation(&eval, day_bank(&training), day_bank(&training), &cfg, DRIFT);

    assert_eq!(ab.frames, 900);
    assert!(
        ab.detections >= 1,
        "day→night illumination shift never detected: {:?}",
        ab
    );
    assert_eq!(
        ab.sdd_rebuilds, ab.detections,
        "every detection must rebuild the SDD reference"
    );
    assert!(ab.snm_retunes <= ab.detections);
    assert!(
        ab.recal_miss_rate <= ab.static_miss_rate + 0.15,
        "recalibration lost scenes the static pipeline kept: {:?}",
        ab
    );
}

/// Recalibration is per stream: of two streams under one `with_drift`, the
/// static one is untouched — survivors bit-identical to a run without drift,
/// trained SDD reference in its checkpoint — while the day→night one detects
/// the shift and its checkpoint carries the rebuilt reference and the
/// lowered `t_pre` a resumed run must start from.
#[test]
fn drift_recalibrates_only_the_drifting_stream_and_reaches_its_checkpoint() {
    let c = ctx();
    let (training, night) = day_to_night();
    let streams = || {
        vec![
            (c.calib.clone(), twin_bank()),
            (night.clone(), day_bank(&training)),
        ]
    };
    let cfg = FfsVaConfig::default();
    // A floor over anything traffic does to the static stream's window means
    // (≤ 4e-3) and under where the night descent takes stream 1's (4e-2).
    let drift = DriftConfig {
        floor: 5e-3,
        ..DRIFT
    };
    let dir = std::env::temp_dir().join(format!("ffsva_tune_drift_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let plain = run_multi_pipeline_rt(streams(), &cfg);
    let recal = RtEngine::new(cfg, streams())
        .with_drift(drift)
        .with_checkpoint(CheckpointSpec::new(&dir, 256, false))
        .run();

    assert_eq!(recal.survivors[0], plain.survivors[0]);
    assert!(recal.telemetry.counter("drift.detections") >= 1);
    assert!(recal.telemetry.counter("drift.snm_retunes") >= 1);

    let ckpt = |s| {
        ffs_va::core::load_stream_checkpoint(&dir, s)
            .expect("readable checkpoint")
            .expect("checkpoint written")
    };
    let (still, drifted) = (ckpt(0), ckpt(1));
    assert_eq!(still.sdd, Some(twin_bank().sdd), "static stream rebuilt");
    let trained = day_bank(&training);
    assert_ne!(drifted.sdd, Some(trained.sdd), "reference not rebuilt");
    let t_pre = drifted.thresholds.expect("thresholds checkpointed").t_pre;
    assert!(
        t_pre < trained.snm.t_pre(cfg.filter_degree),
        "checkpointed t_pre {t_pre} was not lowered"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! End-to-end accuracy bound for the int8 quantized SNM path.
//!
//! Trains one per-stream cascade on the `test` workload substrate, traces
//! the same evaluation clip through the f32 and int8 SNM execution paths,
//! and bounds how much quantization may move the cascade's headline
//! accuracy number: the missed-scene rate may not degrade by more than
//! 2 percentage points. This test is the only holder of that bound.
//!
//! CI runs this file on both the scalar and `--features simd` builds; the
//! int8 kernels are exact on both (see tests/simd_conformance.rs), so the
//! measured delta is a property of the quantization scheme, not the CPU.

use ffs_va::models::snm::SnmTrainOptions;
use ffs_va::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRAIN_FRAMES: usize = 1200;
const EVAL_FRAMES: usize = 1500;
const MISS_DELTA_BOUND_PP: f64 = 2.0;

fn trained_bank_and_clip() -> (FilterBank, Vec<LabeledFrame>) {
    let cfg = workloads::test_tiny(ObjectClass::Car, 0.3, 7);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7E57);
    let mut stream = VideoStream::new(0, cfg);
    let train_clip: Vec<LabeledFrame> = stream.clip(TRAIN_FRAMES);
    let opts = BankOptions {
        snm: SnmTrainOptions {
            epochs: 10,
            batch_size: 16,
            lr: 0.08,
            train_frac: 0.7,
            max_samples: 300,
            restarts: 2,
        },
        ..Default::default()
    };
    let bank = FilterBank::build(&train_clip, ObjectClass::Car, &opts, &mut rng);
    let eval_clip = stream.clip(EVAL_FRAMES);
    (bank, eval_clip)
}

#[test]
fn int8_missed_scene_delta_within_two_points() {
    let (mut bank, eval_clip) = trained_bank_and_clip();
    let th = StreamThresholds {
        delta_diff: bank.sdd.delta_diff,
        t_pre: bank.snm.t_pre(0.5),
        number_of_objects: 1,
    };

    let traces_f32 = bank.trace_clip(&eval_clip);
    let traces_int8 = bank.trace_clip_int8(&eval_clip);
    assert_eq!(traces_f32.len(), traces_int8.len());

    // Only the SNM probability may differ between the two traces; every
    // other column comes from the same (pure) SDD/T-YOLO/reference
    // evaluation, which is what makes the accuracy diff below attributable
    // to quantization alone.
    let mut prob_delta_sum = 0.0f64;
    for (f, q) in traces_f32.iter().zip(traces_int8.iter()) {
        assert_eq!(f.seq, q.seq);
        assert_eq!(f.sdd_distance.to_bits(), q.sdd_distance.to_bits());
        assert_eq!(f.tyolo_count, q.tyolo_count);
        assert_eq!(f.reference_count, q.reference_count);
        assert_eq!(f.truth_count, q.truth_count);
        assert_eq!(f.truth_complete, q.truth_complete);
        prob_delta_sum += (f.snm_prob - q.snm_prob).abs() as f64;
    }
    let mean_prob_delta = prob_delta_sum / traces_f32.len() as f64;
    assert!(
        mean_prob_delta < 0.15,
        "mean |snm_prob(f32) - snm_prob(int8)| = {mean_prob_delta:.4} — quantization noise \
         is far larger than the scheme's design point"
    );

    let rep_f32 = evaluate_accuracy(&traces_f32, &th);
    let rep_int8 = evaluate_accuracy(&traces_int8, &th);
    let delta_pp = (rep_int8.scene_miss_rate - rep_f32.scene_miss_rate) * 100.0;
    assert!(
        delta_pp <= MISS_DELTA_BOUND_PP,
        "int8 missed-scene rate degraded by {delta_pp:.2}pp \
         (f32 {:.4}, int8 {:.4}); bound is {MISS_DELTA_BOUND_PP}pp",
        rep_f32.scene_miss_rate,
        rep_int8.scene_miss_rate,
    );
}

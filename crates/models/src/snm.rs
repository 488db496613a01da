//! SNM — the stream-specialized network model (§3.2.2, §4.1, §4.2.1).
//!
//! A three-layer CNN (CONV, CONV, FC) on 50×50 luminance inputs that
//! predicts the probability `c` that the stream's target object is in the
//! frame. Per §4.1, training data is auto-labeled by the reference model,
//! split into train/test, and the test split is used to pick the thresholds
//! `c_low` and `c_high`. At inference time the effective threshold is
//!
//! ```text
//! t_pre = (c_high − c_low) · FilterDegree + c_low        (Eq. 2)
//! ```

use crate::compress::QuantizedSequential;
use crate::filter::Verdict;
use crate::scratch::Scratch;
use ffsva_tensor::layers::{Activation, Conv2d, Dense, GlobalMaxPool};
use ffsva_tensor::ops::sigmoid_scalar;
use ffsva_tensor::prelude::*;
use ffsva_tensor::train::{self, TrainConfig};
use ffsva_video::resize::resize_frame_f32_into;
use ffsva_video::{Frame, LabeledFrame, ObjectClass};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Input side length the SNM operates at (paper: 50×50).
pub const SNM_SIZE: usize = 50;

/// Resize a frame to the SNM input and standardize it (zero mean, unit
/// variance per image). Zero-centering makes the small CNN trainable in few
/// epochs; standardizing against the *image's own* statistics makes the
/// features invariant to global illumination offset *and* contrast scaling
/// (day/night cycles, exposure drift — §5.5 "Scene Switch"), which would
/// otherwise shift the input distribution between training and serving.
pub fn snm_input(frame: &Frame) -> Vec<f32> {
    let mut v = Vec::new();
    snm_input_into(frame, &mut v);
    v
}

/// [`snm_input`] into a caller-owned buffer (resized and overwritten) — the
/// scratch-reusing entry point for RT pipeline workers.
pub fn snm_input_into(frame: &Frame, out: &mut Vec<f32>) {
    resize_frame_f32_into(frame, SNM_SIZE, SNM_SIZE, out);
    let n = out.len().max(1) as f32;
    let mean = out.iter().sum::<f32>() / n;
    let var = out.iter().map(|p| (p - mean) * (p - mean)).sum::<f32>() / n;
    let inv_std = 1.0 / var.sqrt().max(1e-3);
    for p in out.iter_mut() {
        // scaled down so pixel magnitudes stay O(0.1), like the raw inputs
        *p = (*p - mean) * inv_std * 0.25;
    }
}

/// A trained stream-specialized network model with its thresholds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnmModel {
    net: Sequential,
    /// Target class the model was specialized for.
    pub target: ObjectClass,
    /// Predictions below `c_low` are confidently negative.
    pub c_low: f32,
    /// Predictions above `c_high` are confidently positive.
    pub c_high: f32,
    /// Lazily-built int8 lowering of `net` (see DESIGN.md §12); rebuilt on
    /// demand and invalidated whenever the weights become mutable.
    #[serde(skip)]
    quantized: Option<QuantizedSequential>,
}

impl SnmModel {
    /// Build the paper's 3-layer architecture (CONV, CONV, FC) with fresh
    /// random weights.
    pub fn architecture(target: ObjectClass, rng: &mut impl Rng) -> Self {
        let net = Sequential::new()
            // 1×50×50 -> 8×25×25
            .push(LayerKind::Conv2d(Conv2d::new(1, 8, 5, 2, 2, rng)))
            .push(LayerKind::Activation(Activation::new(Act::Relu)))
            // 8×25×25 -> 16×13×13
            .push(LayerKind::Conv2d(Conv2d::new(8, 16, 3, 2, 1, rng)))
            .push(LayerKind::Activation(Activation::new(Act::Relu)))
            // strongest response per channel anywhere in the frame
            .push(LayerKind::GlobalMaxPool(GlobalMaxPool::new()))
            .push(LayerKind::Dense(Dense::new(16, 1, rng)));
        SnmModel {
            net,
            target,
            c_low: 0.3,
            c_high: 0.7,
            quantized: None,
        }
    }

    /// Predicted probability that the target object is present in a
    /// pre-resized 50×50 input.
    pub fn predict_small(&mut self, small: &[f32]) -> f32 {
        debug_assert_eq!(small.len(), SNM_SIZE * SNM_SIZE);
        let x = Tensor::from_vec(&[1, 1, SNM_SIZE, SNM_SIZE], small.to_vec());
        let logit = self.net.forward(&x, false);
        sigmoid_scalar(logit.data()[0])
    }

    /// Predicted probability for a full-resolution frame.
    pub fn predict(&mut self, frame: &Frame) -> f32 {
        self.predict_small(&snm_input(frame))
    }

    /// Batched prediction over many pre-resized inputs (how the GPU runs it):
    /// the whole batch goes through ONE network forward, so each conv layer
    /// does one im2col and one GEMM for all `n` images.
    pub fn predict_batch(&mut self, smalls: &[Vec<f32>]) -> Vec<f32> {
        if smalls.is_empty() {
            return Vec::new();
        }
        let n = smalls.len();
        let mut data = Vec::with_capacity(n * SNM_SIZE * SNM_SIZE);
        for s in smalls {
            data.extend_from_slice(s);
        }
        self.forward_batch(n, data).0
    }

    /// Batched prediction straight from frames, resizing into caller-owned
    /// scratch — the RT SNM stage's entry point for a drained batch. The
    /// batched conv lowering preserves per-output-element accumulation order,
    /// so results are bit-identical to per-frame [`Self::predict`] at any
    /// batch size (which keeps DES and RT survivor sets identical).
    pub fn predict_batch_frames(&mut self, frames: &[&Frame], scratch: &mut Scratch) -> Vec<f32> {
        if frames.is_empty() {
            return Vec::new();
        }
        let n = frames.len();
        let mut flat = std::mem::take(&mut scratch.batch);
        flat.clear();
        flat.reserve(n * SNM_SIZE * SNM_SIZE);
        for frame in frames {
            snm_input_into(frame, &mut scratch.resized);
            flat.extend_from_slice(&scratch.resized);
        }
        let (probs, recycled) = self.forward_batch(n, flat);
        scratch.batch = recycled;
        probs
    }

    /// One shared forward for every batched entry point; returns the
    /// probabilities and hands the input buffer back for recycling.
    fn forward_batch(&mut self, n: usize, flat: Vec<f32>) -> (Vec<f32>, Vec<f32>) {
        let x = Tensor::from_vec(&[n, 1, SNM_SIZE, SNM_SIZE], flat);
        let logits = self.net.forward(&x, false);
        let probs = logits.data().iter().map(|&z| sigmoid_scalar(z)).collect();
        (probs, x.into_vec())
    }

    /// Build (or reuse) the int8 lowering of the network. Cheap after the
    /// first call; invalidated by [`Self::network_mut`].
    fn ensure_quantized(&mut self) -> &mut QuantizedSequential {
        if self.quantized.is_none() {
            self.quantized = Some(
                QuantizedSequential::from_sequential(&self.net)
                    .expect("SNM architecture is int8-quantizable"),
            );
        }
        self.quantized.as_mut().expect("just built")
    }

    /// Int8 prediction for a pre-resized 50×50 input: per-sample dynamic
    /// activation quantization + exact i8×i8→i32 kernels, sigmoid outside
    /// the net exactly like the f32 path.
    pub fn predict_small_int8(&mut self, small: &[f32]) -> f32 {
        debug_assert_eq!(small.len(), SNM_SIZE * SNM_SIZE);
        let logits = self
            .ensure_quantized()
            .forward_nchw(1, 1, SNM_SIZE, SNM_SIZE, small);
        sigmoid_scalar(logits[0])
    }

    /// Int8 prediction for a full-resolution frame.
    pub fn predict_int8(&mut self, frame: &Frame) -> f32 {
        self.predict_small_int8(&snm_input(frame))
    }

    /// Int8 batched prediction straight from frames — the quantized twin of
    /// [`Self::predict_batch_frames`]. Per-sample activation scales keep
    /// this bit-identical to per-frame [`Self::predict_int8`] at any batch
    /// size, so switching `snm_precision` never breaks the DES↔RT
    /// survivor-set conformance (both engines just agree on the *int8*
    /// probabilities instead of the f32 ones).
    pub fn predict_batch_frames_int8(
        &mut self,
        frames: &[&Frame],
        scratch: &mut Scratch,
    ) -> Vec<f32> {
        if frames.is_empty() {
            return Vec::new();
        }
        let n = frames.len();
        let mut flat = std::mem::take(&mut scratch.batch);
        flat.clear();
        flat.reserve(n * SNM_SIZE * SNM_SIZE);
        for frame in frames {
            snm_input_into(frame, &mut scratch.resized);
            flat.extend_from_slice(&scratch.resized);
        }
        let logits = self
            .ensure_quantized()
            .forward_nchw(n, 1, SNM_SIZE, SNM_SIZE, &flat);
        scratch.batch = flat;
        logits.iter().map(|&z| sigmoid_scalar(z)).collect()
    }

    /// Effective filtering threshold for a FilterDegree in `[0, 1]` (Eq. 2).
    pub fn t_pre(&self, filter_degree: f32) -> f32 {
        let fd = filter_degree.clamp(0.0, 1.0);
        (self.c_high - self.c_low) * fd + self.c_low
    }

    /// Filter decision at a given FilterDegree.
    pub fn check(&mut self, frame: &Frame, filter_degree: f32) -> Verdict {
        if self.predict(frame) >= self.t_pre(filter_degree) {
            Verdict::Pass
        } else {
            Verdict::Drop
        }
    }

    /// Number of scalar parameters (paper: ~200 KB of GPU memory).
    pub fn num_params(&mut self) -> usize {
        self.net.num_params()
    }

    /// Mutable access to the underlying network (compression, inspection).
    /// Drops the cached int8 lowering: the caller may change the weights,
    /// and a stale quantization must never serve predictions.
    pub fn network_mut(&mut self) -> &mut Sequential {
        self.quantized = None;
        &mut self.net
    }
}

/// Training report returned by [`train_snm`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnmReport {
    /// Per-epoch training loss.
    pub losses: Vec<f32>,
    /// Accuracy on the held-out test split.
    pub test_accuracy: f32,
    /// Chosen thresholds.
    pub c_low: f32,
    pub c_high: f32,
    /// Training set size (positives, negatives).
    pub positives: usize,
    pub negatives: usize,
}

/// Options for [`train_snm`].
#[derive(Debug, Clone, Copy)]
pub struct SnmTrainOptions {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Fraction of labeled data used for training (rest selects thresholds).
    pub train_frac: f32,
    /// Cap on the number of labeled frames used (balanced sampling).
    pub max_samples: usize,
    /// Number of independently-initialized candidate models trained; the one
    /// with the best held-out accuracy wins (§2.1: "determine the best one
    /// from these architectures").
    pub restarts: usize,
}

impl Default for SnmTrainOptions {
    fn default() -> Self {
        SnmTrainOptions {
            epochs: 16,
            batch_size: 24,
            lr: 0.08,
            train_frac: 0.7,
            max_samples: 1000,
            restarts: 3,
        }
    }
}

/// Train an SNM for one stream per §4.1: frames are labeled by ground truth
/// (standing in for YOLOv2 auto-labeling), the training split fits the CNN,
/// and the test split selects `c_low`/`c_high`.
pub fn train_snm(
    clip: &[LabeledFrame],
    target: ObjectClass,
    opts: &SnmTrainOptions,
    rng: &mut impl Rng,
) -> (SnmModel, SnmReport) {
    // Balanced sampling: alternate positives and negatives up to the cap.
    // Labels mirror what YOLOv2 auto-labeling (§4.1) would produce: a frame
    // is positive when a target object is visible enough for the reference
    // model to detect it (including *partial* appearances — YOLOv2 catches
    // the head of a vehicle, §3.3); frames with only sub-detectable slivers
    // are ambiguous and excluded.
    const DETECTABLE_VISIBLE_FRAC: f32 = 0.12; // ReferenceConfig::min_visible
    let mut pos: Vec<&LabeledFrame> = Vec::new();
    let mut neg: Vec<&LabeledFrame> = Vec::new();
    for lf in clip {
        let detectable = lf
            .truth
            .objects
            .iter()
            .any(|o| o.class == target && o.visible_frac >= DETECTABLE_VISIBLE_FRAC);
        if detectable {
            pos.push(lf);
        } else if !lf.truth.has(target) {
            neg.push(lf);
        }
    }
    let per_class = (opts.max_samples / 2).max(1);
    let stride = |v: &Vec<&LabeledFrame>| (v.len() / per_class).max(1);
    let pos_s = stride(&pos);
    let neg_s = stride(&neg);

    // Horizontal-flip augmentation doubles appearance coverage for free
    // (traffic flows both ways past a fixed camera).
    fn hflip(v: &[f32]) -> Vec<f32> {
        let mut out = v.to_vec();
        for row in out.chunks_mut(SNM_SIZE) {
            row.reverse();
        }
        out
    }
    let mut data = Dataset::new(&[1, SNM_SIZE, SNM_SIZE]);
    let mut i = 0usize;
    let mut j = 0usize;
    while i < pos.len() || j < neg.len() {
        if i < pos.len() {
            let v = snm_input(&pos[i].frame);
            data.push(hflip(&v), 1.0);
            data.push(v, 1.0);
            i += pos_s;
        }
        if j < neg.len() {
            let v = snm_input(&neg[j].frame);
            data.push(hflip(&v), 0.0);
            data.push(v, 0.0);
            j += neg_s;
        }
        if data.len() >= opts.max_samples {
            break;
        }
    }

    let (train_set, test_set) = data.split(opts.train_frac);
    let cfg = TrainConfig {
        epochs: opts.epochs,
        batch_size: opts.batch_size,
        lr_decay: 0.92,
        sgd: ffsva_tensor::Sgd {
            lr: opts.lr,
            momentum: 0.9,
            weight_decay: 1e-4,
        },
    };

    // Train several independently-initialized candidates and keep the best.
    // Restarts cycle through learning-rate multipliers so a single unlucky
    // (init, lr) pairing cannot sink the stream's model — §2.1's "determine
    // the best one from these architectures" selection.
    const LR_CYCLE: [f32; 3] = [1.0, 0.5, 1.6];
    let mut model = SnmModel::architecture(target, rng);
    let mut losses = train::train_binary_classifier(&mut model.net, &train_set, &cfg, rng);
    let mut test_accuracy = train::eval_binary_classifier(&mut model.net, &test_set);
    for k in 1..opts.restarts.max(1) {
        if test_accuracy >= 0.97 {
            break; // good enough; skip remaining restarts
        }
        let mut cand_cfg = cfg;
        cand_cfg.sgd.lr = opts.lr * LR_CYCLE[k % LR_CYCLE.len()];
        let mut cand = SnmModel::architecture(target, rng);
        let cand_losses = train::train_binary_classifier(&mut cand.net, &train_set, &cand_cfg, rng);
        let cand_acc = train::eval_binary_classifier(&mut cand.net, &test_set);
        if cand_acc > test_accuracy {
            model = cand;
            losses = cand_losses;
            test_accuracy = cand_acc;
        }
    }

    // Threshold selection on the test split: c_low passes ~98 % of positives
    // (few false negatives below it); c_high rejects ~98 % of negatives.
    let mut pos_scores = Vec::new();
    let mut neg_scores = Vec::new();
    let idx: Vec<usize> = (0..test_set.len()).collect();
    for chunk in idx.chunks(64) {
        let (x, y) = test_set.batch(chunk);
        let logits = model.net.forward(&x, false);
        for (&z, &t) in logits.data().iter().zip(y.data().iter()) {
            let p = sigmoid_scalar(z);
            if t >= 0.5 {
                pos_scores.push(p);
            } else {
                neg_scores.push(p);
            }
        }
    }
    pos_scores.sort_by(f32::total_cmp);
    neg_scores.sort_by(f32::total_cmp);
    let quantile = |v: &[f32], q: f32, default: f32| -> f32 {
        if v.is_empty() {
            default
        } else {
            let i = ((v.len() as f32) * q).floor() as usize;
            v[i.min(v.len() - 1)]
        }
    };
    // The band endpoints: almost no positive scores below q02(pos), almost
    // no negative scores above q98(neg). For an overlapping classifier the
    // band [q02(pos), q98(neg)] is the uncertain zone; for a well-separated
    // one the order flips and the band is the free margin between the two
    // score clouds. Either way t_pre sweeps from "pass everything plausible"
    // (FilterDegree 0) to "pass only high-credibility frames" (1), which is
    // exactly the §4.2.1 trade-off.
    let a = quantile(&pos_scores, 0.02, 0.25);
    let b = quantile(&neg_scores, 0.98, 0.75);
    let (mut c_low, mut c_high) = if a <= b { (a, b) } else { (b, a) };
    c_low = c_low.clamp(1e-4, 0.9899);
    c_high = c_high.clamp(c_low + 1e-3, 0.999);
    model.c_low = c_low;
    model.c_high = c_high;

    let report = SnmReport {
        losses,
        test_accuracy,
        c_low,
        c_high,
        positives: pos_scores.len(),
        negatives: neg_scores.len(),
    };
    (model, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsva_video::prelude::*;
    use ffsva_video::workloads;
    use rand::SeedableRng;

    fn quick_opts() -> SnmTrainOptions {
        SnmTrainOptions {
            epochs: 18,
            batch_size: 16,
            lr: 0.08,
            train_frac: 0.7,
            max_samples: 500,
            restarts: 3,
        }
    }

    #[test]
    fn t_pre_interpolates_eq2() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        m.c_low = 0.2;
        m.c_high = 0.8;
        assert!((m.t_pre(0.0) - 0.2).abs() < 1e-6);
        assert!((m.t_pre(1.0) - 0.8).abs() < 1e-6);
        assert!((m.t_pre(0.5) - 0.5).abs() < 1e-6);
        // clamped outside [0,1] (§4.2.1 forbids t_pre outside [c_low, c_high])
        assert!((m.t_pre(2.0) - 0.8).abs() < 1e-6);
        assert!((m.t_pre(-1.0) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn snm_memory_footprint_is_small() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        // paper: about 200 KB; ours is of the same order (< 100 K floats)
        assert!(m.num_params() < 100_000, "params {}", m.num_params());
    }

    #[test]
    fn trained_snm_separates_target_from_background() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.4, 77);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(2500);
        let (mut model, report) = train_snm(&clip, ObjectClass::Car, &quick_opts(), &mut rng);
        assert!(
            report.test_accuracy > 0.85,
            "test accuracy {}",
            report.test_accuracy
        );
        assert!(report.c_low < report.c_high);

        // fresh evaluation clip: a later segment of the same stream (the SNM
        // is stream-specialized; see `scene_switch_degrades_accuracy`)
        let eval = s.clip(800);
        let mut correct = 0usize;
        let mut total = 0usize;
        for lf in &eval {
            // skip ambiguous partial frames
            let complete = lf.truth.count_complete(ObjectClass::Car) > 0;
            let empty = !lf.truth.has(ObjectClass::Car);
            if !(complete || empty) {
                continue;
            }
            let p = model.predict(&lf.frame);
            if (p >= 0.5) == complete {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f32 / total as f32;
        assert!(acc > 0.8, "generalization accuracy {}", acc);
    }

    /// §5.5 "Scene Switch": a model trained on one camera's scene does not
    /// transfer to a different scene — the specialization is real.
    #[test]
    fn scene_switch_degrades_accuracy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.4, 77);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(2500);
        let (mut model, report) = train_snm(&clip, ObjectClass::Car, &quick_opts(), &mut rng);
        assert!(report.test_accuracy > 0.85);

        // A different camera: new seed → new background texture and scenes.
        let other = workloads::test_tiny(ObjectClass::Car, 0.4, 12345);
        let mut s2 = VideoStream::new(1, other);
        let eval = s2.clip(800);
        let mut correct = 0usize;
        let mut total = 0usize;
        for lf in &eval {
            let complete = lf.truth.count_complete(ObjectClass::Car) > 0;
            let empty = !lf.truth.has(ObjectClass::Car);
            if !(complete || empty) {
                continue;
            }
            if (model.predict(&lf.frame) >= 0.5) == complete {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f32 / total as f32;
        assert!(
            acc < report.test_accuracy - 0.1,
            "scene switch should hurt: {} vs {}",
            acc,
            report.test_accuracy
        );
    }

    #[test]
    fn batch_prediction_matches_single() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        let inputs: Vec<Vec<f32>> = (0..3)
            .map(|k| {
                (0..SNM_SIZE * SNM_SIZE)
                    .map(|i| ((i + k) % 7) as f32 / 7.0)
                    .collect()
            })
            .collect();
        let batch = m.predict_batch(&inputs);
        for (i, inp) in inputs.iter().enumerate() {
            let single = m.predict_small(inp);
            assert!((batch[i] - single).abs() < 1e-5);
        }
    }

    /// The batched-frames path (one forward per batch, scratch-resident
    /// buffers) must be bit-identical to per-frame prediction — the invariant
    /// that keeps DES and RT survivor sets identical when RT batches.
    #[test]
    fn predict_batch_frames_is_bit_identical_to_predict() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.4, 21);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(12);
        let frames: Vec<&Frame> = clip.iter().map(|lf| &lf.frame).collect();
        let mut scratch = Scratch::new();
        let batched = m.predict_batch_frames(&frames, &mut scratch);
        // a second batch through the now-dirty scratch must also agree
        let again = m.predict_batch_frames(&frames, &mut scratch);
        for (i, f) in frames.iter().enumerate() {
            let single = m.predict(f);
            assert_eq!(batched[i].to_bits(), single.to_bits(), "frame {}", i);
            assert_eq!(again[i].to_bits(), single.to_bits(), "frame {} reuse", i);
        }
    }

    /// Drain a real RT batching stage into `predict_batch_frames` and check
    /// the survivor probabilities match per-frame prediction bit-for-bit —
    /// the end-to-end version of `batch_prediction_matches_single`.
    #[test]
    fn rt_batch_stage_matches_per_frame_prediction() {
        use ffsva_sched::{
            spawn_stage_pool, BatchPolicy, FeedbackQueue, PoolPolicy, PoolSlot, PoolTelemetry,
        };

        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.4, 55);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(24);

        let input: FeedbackQueue<(u64, Frame)> = FeedbackQueue::new(64);
        let output: FeedbackQueue<(u64, f32)> = FeedbackQueue::new(64);
        let mut worker = m.clone();
        let pool = spawn_stage_pool(
            "snm-test",
            PoolPolicy {
                workers: 1,
                restart_budget: 0,
                backoff: std::time::Duration::ZERO,
            },
            vec![PoolSlot::plain(
                input.clone(),
                output.clone(),
                Some(BatchPolicy::Static { size: 8 }),
                move |batch: Vec<(u64, Frame)>, scratch: &mut Scratch| {
                    let frames: Vec<&Frame> = batch.iter().map(|(_, f)| f).collect();
                    let probs = worker.predict_batch_frames(&frames, scratch);
                    batch
                        .iter()
                        .zip(probs)
                        .map(|(&(idx, _), p)| (idx, p))
                        .collect()
                },
            )],
            vec![Scratch::new()],
            PoolTelemetry::noop(),
        );
        for (i, lf) in clip.iter().enumerate() {
            input.push((i as u64, lf.frame.clone())).unwrap();
        }
        input.close();
        let outcomes = pool.join();
        assert!(!outcomes[0].gave_up(), "snm stage");
        assert_eq!(outcomes[0].processed(), clip.len() as u64);

        let mut got = Vec::new();
        while let Some(pair) = output.pop() {
            got.push(pair);
        }
        got.sort_by_key(|&(idx, _)| idx);
        assert_eq!(got.len(), clip.len());
        for (idx, p) in got {
            let single = m.predict(&clip[idx as usize].frame);
            assert_eq!(p.to_bits(), single.to_bits(), "frame {}", idx);
        }
    }

    /// The standardized SNM input is invariant to affine photometric
    /// changes — the property that makes the model survive day/night drift.
    #[test]
    fn snm_input_is_photometric_invariant() {
        let base: Vec<u8> = (0..64 * 48).map(|i| (40 + (i * 7) % 150) as u8).collect();
        let bright: Vec<u8> = base
            .iter()
            .map(|&p| ((p as f32) * 0.7 + 30.0).round().clamp(0.0, 255.0) as u8)
            .collect();
        let f1 = Frame::gray8(0, 0, 0, 64, 48, base);
        let f2 = Frame::gray8(0, 0, 0, 64, 48, bright);
        let a = snm_input(&f1);
        let b = snm_input(&f2);
        let max_diff = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 0.02,
            "standardization should cancel gain/offset: {}",
            max_diff
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        assert!(m.predict_batch(&[]).is_empty());
        let mut scratch = Scratch::new();
        assert!(m.predict_batch_frames_int8(&[], &mut scratch).is_empty());
    }

    /// Int8 batching invariance: the quantized twin of
    /// `predict_batch_frames_is_bit_identical_to_predict`.
    #[test]
    fn predict_batch_frames_int8_is_bit_identical_to_predict_int8() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.4, 21);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(12);
        let frames: Vec<&Frame> = clip.iter().map(|lf| &lf.frame).collect();
        let mut scratch = Scratch::new();
        let batched = m.predict_batch_frames_int8(&frames, &mut scratch);
        let again = m.predict_batch_frames_int8(&frames, &mut scratch);
        for (i, f) in frames.iter().enumerate() {
            let single = m.predict_int8(f);
            assert_eq!(batched[i].to_bits(), single.to_bits(), "frame {}", i);
            assert_eq!(again[i].to_bits(), single.to_bits(), "frame {} reuse", i);
        }
    }

    /// The int8 probabilities must stay behaviourally close to f32 on real
    /// frames (the end-to-end missed-scene bound lives in
    /// tests/int8_accuracy.rs; this is the cheap unit-level guard).
    #[test]
    fn int8_probabilities_track_f32() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.4, 77);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(2500);
        let (mut model, _) = train_snm(&clip, ObjectClass::Car, &quick_opts(), &mut rng);
        let eval = s.clip(60);
        let mut max_diff = 0.0f32;
        for lf in &eval {
            let pf = model.predict(&lf.frame);
            let pq = model.predict_int8(&lf.frame);
            max_diff = max_diff.max((pf - pq).abs());
        }
        assert!(max_diff < 0.25, "int8 drifted from f32 by {}", max_diff);
    }

    /// Mutating the network must invalidate the cached quantization.
    #[test]
    fn network_mut_invalidates_quantized_cache() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut m = SnmModel::architecture(ObjectClass::Car, &mut rng);
        let input: Vec<f32> = (0..SNM_SIZE * SNM_SIZE)
            .map(|i| ((i % 11) as f32 - 5.0) * 0.05)
            .collect();
        let before = m.predict_small_int8(&input);
        // zero every weight: the quantized path must see the change
        for p in m.network_mut().params_mut() {
            for v in p.value.data_mut() {
                *v = 0.0;
            }
        }
        let after = m.predict_small_int8(&input);
        assert_eq!(after, 0.5, "all-zero net must emit logit 0 → p=0.5");
        assert_ne!(before.to_bits(), after.to_bits());
    }
}

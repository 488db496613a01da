//! SDD — the stream-specialized difference detector (§3.2.1).
//!
//! The SDD holds a reference background image (the average of dozens of
//! known-background frames) and measures the distance between each incoming
//! frame and the reference. Frames closer than a threshold δ_diff are
//! background and are dropped. All three distance metrics named in the paper
//! (MSE, NRMSE, SAD) are implemented, on 100×100 luminance inputs.

use crate::filter::Verdict;
use crate::scratch::Scratch;
use ffsva_video::resize::{resize_frame_f32, resize_frame_f32_into};
use ffsva_video::Frame;
use serde::{Deserialize, Serialize};

/// Input side length the SDD operates at (paper: 100×100).
pub const SDD_SIZE: usize = 100;

/// Distance under `metric` between two equal-length images via the
/// runtime-dispatched reduction kernels. The scalar kernels accumulate
/// left-to-right exactly like the historical inline loops, so on a
/// scalar build (or non-AVX2 CPU) this is bit-identical to the old code;
/// with `--features simd` on AVX2 the result is ULP-close (see
/// `ffsva_tensor::simd` for the bound).
#[inline]
fn metric_distance(metric: DistanceMetric, a: &[f32], b: &[f32], range: f32) -> f32 {
    let n = a.len() as f32;
    match metric {
        DistanceMetric::Mse => ffsva_tensor::simd::sum_sq_diff(a, b) / n,
        DistanceMetric::Nrmse => (ffsva_tensor::simd::sum_sq_diff(a, b) / n).sqrt() / range,
        DistanceMetric::Sad => ffsva_tensor::simd::sum_abs_diff(a, b) / n,
    }
}

/// [`metric_distance`] pinned to the scalar kernels — the conformance
/// reference for the SIMD path, available on every build.
#[inline]
fn metric_distance_scalar(metric: DistanceMetric, a: &[f32], b: &[f32], range: f32) -> f32 {
    let n = a.len() as f32;
    match metric {
        DistanceMetric::Mse => ffsva_tensor::simd::sum_sq_diff_scalar(a, b) / n,
        DistanceMetric::Nrmse => (ffsva_tensor::simd::sum_sq_diff_scalar(a, b) / n).sqrt() / range,
        DistanceMetric::Sad => ffsva_tensor::simd::sum_abs_diff_scalar(a, b) / n,
    }
}

/// Distance metric between a frame and the reference image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceMetric {
    /// Mean square error.
    Mse,
    /// Root-mean-square error normalized by the reference dynamic range.
    Nrmse,
    /// Mean of absolute differences.
    Sad,
}

/// Stream-specialized difference detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SddFilter {
    /// Averaged background, `SDD_SIZE`², values in `[0, 1]`.
    reference: Vec<f32>,
    /// Reference dynamic range (max − min), used by NRMSE.
    ref_range: f32,
    pub metric: DistanceMetric,
    /// Distance threshold δ_diff; frames at or below it are background.
    pub delta_diff: f32,
}

impl SddFilter {
    /// Build the reference image by averaging background frames (frames the
    /// operator knows contain no activity).
    ///
    /// # Panics
    /// Panics if `background_frames` is empty.
    pub fn from_background(
        background_frames: &[Frame],
        metric: DistanceMetric,
        delta_diff: f32,
    ) -> Self {
        assert!(
            !background_frames.is_empty(),
            "SDD needs at least one background frame"
        );
        let mut reference = vec![0.0f32; SDD_SIZE * SDD_SIZE];
        for f in background_frames {
            let small = resize_frame_f32(f, SDD_SIZE, SDD_SIZE);
            for (r, s) in reference.iter_mut().zip(small.iter()) {
                *r += s;
            }
        }
        let n = background_frames.len() as f32;
        for r in reference.iter_mut() {
            *r /= n;
        }
        let mx = reference.iter().copied().fold(f32::MIN, f32::max);
        let mn = reference.iter().copied().fold(f32::MAX, f32::min);
        SddFilter {
            reference,
            ref_range: (mx - mn).max(1e-6),
            metric,
            delta_diff,
        }
    }

    /// Distance between a (pre-resized, normalized) 100×100 image and the
    /// reference under the configured metric (runtime-dispatched kernels).
    pub fn distance_small(&self, small: &[f32]) -> f32 {
        debug_assert_eq!(small.len(), self.reference.len());
        metric_distance(self.metric, small, &self.reference, self.ref_range)
    }

    /// [`Self::distance_small`] forced onto the scalar kernels — the SIMD
    /// conformance reference. Identical to `distance_small` on scalar builds.
    pub fn distance_small_scalar(&self, small: &[f32]) -> f32 {
        debug_assert_eq!(small.len(), self.reference.len());
        metric_distance_scalar(self.metric, small, &self.reference, self.ref_range)
    }

    /// Distance of a full-resolution frame (resizes internally).
    pub fn distance(&self, frame: &Frame) -> f32 {
        let small = resize_frame_f32(frame, SDD_SIZE, SDD_SIZE);
        self.distance_small(&small)
    }

    /// [`Self::distance`] resizing into caller-owned scratch — the RT
    /// pipeline's per-frame entry point (no plane is allocated after warm-up).
    pub fn distance_with(&self, frame: &Frame, scratch: &mut Scratch) -> f32 {
        resize_frame_f32_into(frame, SDD_SIZE, SDD_SIZE, &mut scratch.resized);
        self.distance_small(&scratch.resized)
    }

    /// Filter decision for a frame: `Pass` when the content differs from the
    /// background by more than δ_diff.
    pub fn check(&self, frame: &Frame) -> Verdict {
        if self.distance(frame) > self.delta_diff {
            Verdict::Pass
        } else {
            Verdict::Drop
        }
    }

    /// Rebuild the reference image in place from pre-resized, normalized
    /// `SDD_SIZE`² luminance images — typically the low-distance half of a
    /// recent frame window that a drift detector collected after an
    /// illumination regime shift. The metric and δ_diff are kept; the
    /// reference and its dynamic range are recomputed exactly as
    /// [`Self::from_background`] computes them, so a rebuilt filter is
    /// indistinguishable from one trained on those frames.
    ///
    /// # Panics
    /// Panics if `smalls` is empty or any image is not `SDD_SIZE`².
    pub fn rebuild_reference_from_smalls(&mut self, smalls: &[&[f32]]) {
        assert!(!smalls.is_empty(), "SDD rebuild needs at least one frame");
        let len = SDD_SIZE * SDD_SIZE;
        self.reference.clear();
        self.reference.resize(len, 0.0);
        for s in smalls {
            assert_eq!(s.len(), len, "resized frame has wrong size");
            for (r, v) in self.reference.iter_mut().zip(s.iter()) {
                *r += v;
            }
        }
        let n = smalls.len() as f32;
        for r in self.reference.iter_mut() {
            *r /= n;
        }
        let mx = self.reference.iter().copied().fold(f32::MIN, f32::max);
        let mn = self.reference.iter().copied().fold(f32::MAX, f32::min);
        self.ref_range = (mx - mn).max(1e-6);
    }

    /// Calibrate δ_diff from labeled data (§4.1): choose the largest
    /// threshold that still passes at least `target_recall` of the
    /// target-object frames, then relax it (§3.3 "set the real filtering
    /// threshold slightly below the target threshold") by `relax` (e.g. 0.9).
    ///
    /// `distances_target` are SDD distances of frames known to contain the
    /// target; `distances_background` of known background frames. Returns the
    /// chosen δ_diff and installs it.
    pub fn calibrate(
        &mut self,
        distances_target: &[f32],
        distances_background: &[f32],
        target_recall: f32,
        relax: f32,
    ) -> f32 {
        assert!((0.0..=1.0).contains(&target_recall));
        let delta = if distances_target.is_empty() {
            // No positives: put the threshold above the background noise.
            let mut bg = distances_background.to_vec();
            bg.sort_by(f32::total_cmp);
            let idx = ((bg.len() as f32) * 0.99) as usize;
            bg.get(idx.min(bg.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0.0)
        } else {
            let mut tg = distances_target.to_vec();
            tg.sort_by(f32::total_cmp);
            // pass target_recall of targets => threshold at the (1-recall)
            // quantile of target distances
            let idx = ((tg.len() as f32) * (1.0 - target_recall)).floor() as usize;
            tg[idx.min(tg.len() - 1)]
        };
        self.delta_diff = delta * relax;
        self.delta_diff
    }
}

/// SDD variant that differences against the *previous frame* instead of a
/// background reference (the other classic difference detector, used by
/// NoScope's difference filters). Catches motion rather than presence: a
/// parked target object stops triggering it after one frame, which is
/// exactly why FFS-VA's reference-image SDD is the default — but for
/// high-churn scenes the previous-frame mode needs no calibration clip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameDiffSdd {
    previous: Option<Vec<f32>>,
    pub metric: DistanceMetric,
    pub delta_diff: f32,
}

impl FrameDiffSdd {
    pub fn new(metric: DistanceMetric, delta_diff: f32) -> Self {
        FrameDiffSdd {
            previous: None,
            metric,
            delta_diff,
        }
    }

    /// Distance between this frame and the previous one (0 for the first).
    pub fn distance_and_update(&mut self, frame: &Frame) -> f32 {
        let small = resize_frame_f32(frame, SDD_SIZE, SDD_SIZE);
        let d = match self.previous.as_ref() {
            None => 0.0,
            // range 1.0: the frame-diff NRMSE has no reference dynamic
            // range to normalize by (same semantics as the old inline loop)
            Some(prev) => metric_distance(self.metric, &small, prev, 1.0),
        };
        self.previous = Some(small);
        d
    }

    /// Filter decision: pass frames whose content *changed*.
    pub fn check(&mut self, frame: &Frame) -> Verdict {
        if self.distance_and_update(frame) > self.delta_diff {
            Verdict::Pass
        } else {
            Verdict::Drop
        }
    }
}

/// SDD with an adaptive background: frames classified as background are
/// folded into the reference with an exponential moving average, so slow
/// scene changes (dawn, dusk, weather — §3.2.1's "background with changing
/// light color and intensity") track automatically instead of inflating the
/// distance until δ_diff misfires. Frames classified as content leave the
/// reference untouched, so a parked car does not get absorbed immediately.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveSdd {
    inner: SddFilter,
    /// EMA factor applied when a background frame updates the reference.
    pub alpha: f32,
    /// Frames absorbed into the background so far.
    updates: u64,
}

impl AdaptiveSdd {
    /// Wrap a calibrated SDD with background adaptation.
    pub fn new(inner: SddFilter, alpha: f32) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha in [0,1]");
        AdaptiveSdd {
            inner,
            alpha,
            updates: 0,
        }
    }

    /// The wrapped static filter.
    pub fn inner(&self) -> &SddFilter {
        &self.inner
    }

    /// Background updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Classify a frame and adapt the reference: background frames are
    /// absorbed at `alpha`; passing frames at `alpha / 20` (very slow), the
    /// classic two-rate scheme that keeps a parked object from vanishing
    /// instantly while still recovering if the whole scene shifts past
    /// δ_diff (otherwise the reference would freeze the moment everything
    /// starts passing and never re-lock onto the background).
    pub fn check_and_adapt(&mut self, frame: &Frame) -> Verdict {
        let small = resize_frame_f32(frame, SDD_SIZE, SDD_SIZE);
        let d = self.inner.distance_small(&small);
        let (verdict, a) = if d > self.inner.delta_diff {
            (Verdict::Pass, self.alpha / 20.0)
        } else {
            self.updates += 1;
            (Verdict::Drop, self.alpha)
        };
        for (r, s) in self.inner.reference.iter_mut().zip(small.iter()) {
            *r = (1.0 - a) * *r + a * s;
        }
        verdict
    }

    /// Distance of a frame against the current (adapted) reference.
    pub fn distance(&self, frame: &Frame) -> f32 {
        self.inner.distance(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsva_video::prelude::*;
    use ffsva_video::workloads;

    fn clips() -> (Vec<LabeledFrame>, Vec<Frame>) {
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.4, 42);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(1500);
        let bg: Vec<Frame> = clip
            .iter()
            .filter(|lf| lf.truth.objects.is_empty())
            .take(30)
            .map(|lf| lf.frame.clone())
            .collect();
        (clip, bg)
    }

    #[test]
    fn background_frames_score_below_object_frames() {
        let (clip, bg) = clips();
        let sdd = SddFilter::from_background(&bg, DistanceMetric::Mse, 0.0);
        let mut bg_d = Vec::new();
        let mut tg_d = Vec::new();
        for lf in &clip {
            let d = sdd.distance(&lf.frame);
            if lf.truth.count_complete(ObjectClass::Car) > 0 {
                tg_d.push(d);
            } else if lf.truth.objects.is_empty() {
                bg_d.push(d);
            }
        }
        let mean_bg: f32 = bg_d.iter().sum::<f32>() / bg_d.len() as f32;
        let mean_tg: f32 = tg_d.iter().sum::<f32>() / tg_d.len() as f32;
        assert!(
            mean_tg > mean_bg * 3.0,
            "target {} vs background {}",
            mean_tg,
            mean_bg
        );
    }

    #[test]
    fn calibrated_threshold_separates() {
        let (clip, bg) = clips();
        let mut sdd = SddFilter::from_background(&bg, DistanceMetric::Mse, 0.0);
        let mut bg_d = Vec::new();
        let mut tg_d = Vec::new();
        for lf in &clip {
            let d = sdd.distance(&lf.frame);
            if lf.truth.has(ObjectClass::Car) {
                tg_d.push(d);
            } else if lf.truth.objects.is_empty() {
                bg_d.push(d);
            }
        }
        sdd.calibrate(&tg_d, &bg_d, 0.98, 0.9);
        // target frames overwhelmingly pass
        let pass_t = tg_d.iter().filter(|&&d| d > sdd.delta_diff).count();
        assert!(pass_t as f32 / tg_d.len() as f32 > 0.95);
        // a decent share of pure-background frames is dropped
        let drop_b = bg_d.iter().filter(|&&d| d <= sdd.delta_diff).count();
        assert!(
            drop_b as f32 / bg_d.len() as f32 > 0.5,
            "dropped {}/{}",
            drop_b,
            bg_d.len()
        );
    }

    #[test]
    fn distance_with_scratch_is_bit_identical_to_allocating_path() {
        let (clip, bg) = clips();
        let sdd = SddFilter::from_background(&bg, DistanceMetric::Mse, 0.0);
        let mut scratch = Scratch::new();
        for lf in clip.iter().take(25) {
            let a = sdd.distance(&lf.frame);
            let b = sdd.distance_with(&lf.frame, &mut scratch);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Dispatched vs scalar distance: bit-identical on scalar builds, and
    /// within the documented relative bound when the SIMD path is active.
    #[test]
    fn distance_small_dispatched_matches_scalar_reference() {
        let (clip, bg) = clips();
        for metric in [
            DistanceMetric::Mse,
            DistanceMetric::Nrmse,
            DistanceMetric::Sad,
        ] {
            let sdd = SddFilter::from_background(&bg, metric, 0.0);
            for lf in clip.iter().take(20) {
                let small = resize_frame_f32(&lf.frame, SDD_SIZE, SDD_SIZE);
                let fast = sdd.distance_small(&small);
                let reference = sdd.distance_small_scalar(&small);
                if ffsva_tensor::simd_active() {
                    assert!(
                        (fast - reference).abs() <= 1e-5 * reference.abs().max(1e-3),
                        "{:?}: {} vs {}",
                        metric,
                        fast,
                        reference
                    );
                } else {
                    assert_eq!(fast.to_bits(), reference.to_bits(), "{:?}", metric);
                }
            }
        }
    }

    #[test]
    fn metrics_are_zero_on_reference_itself() {
        let (_, bg) = clips();
        for metric in [
            DistanceMetric::Mse,
            DistanceMetric::Nrmse,
            DistanceMetric::Sad,
        ] {
            let sdd = SddFilter::from_background(&bg[..1], metric, 0.0);
            let d = sdd.distance(&bg[0]);
            assert!(d < 1e-6, "{:?} distance {}", metric, d);
        }
    }

    #[test]
    fn nrmse_is_sqrt_mse_over_range() {
        let (clip, bg) = clips();
        let mse = SddFilter::from_background(&bg, DistanceMetric::Mse, 0.0);
        let nrmse = SddFilter::from_background(&bg, DistanceMetric::Nrmse, 0.0);
        let f = &clip[100].frame;
        let m = mse.distance(f);
        let n = nrmse.distance(f);
        assert!((n - m.sqrt() / nrmse.ref_range).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "background")]
    fn empty_background_panics() {
        let _ = SddFilter::from_background(&[], DistanceMetric::Mse, 0.0);
    }

    #[test]
    fn rebuilt_reference_matches_from_background() {
        // Rebuilding from pre-resized frames must be indistinguishable from
        // training a fresh filter on those same frames — the guarantee the
        // online drift-recalibration path leans on.
        let (clip, bg) = clips();
        let mut sdd = SddFilter::from_background(&bg[..10], DistanceMetric::Mse, 0.05);
        let late: Vec<Vec<f32>> = clip
            .iter()
            .rev()
            .take(12)
            .map(|lf| resize_frame_f32(&lf.frame, SDD_SIZE, SDD_SIZE))
            .collect();
        let smalls: Vec<&[f32]> = late.iter().map(|v| v.as_slice()).collect();
        sdd.rebuild_reference_from_smalls(&smalls);
        let frames: Vec<Frame> = clip
            .iter()
            .rev()
            .take(12)
            .map(|lf| lf.frame.clone())
            .collect();
        let fresh = SddFilter::from_background(&frames, DistanceMetric::Mse, 0.05);
        let probe = &clip[50].frame;
        assert_eq!(
            sdd.distance(probe).to_bits(),
            fresh.distance(probe).to_bits()
        );
        // threshold survives the rebuild untouched
        assert_eq!(sdd.delta_diff, 0.05);
    }

    #[test]
    fn frame_diff_sdd_fires_on_motion_not_presence() {
        // A car that enters and then parks: the previous-frame SDD fires
        // while it moves and goes quiet once it stops; the reference SDD
        // keeps firing as long as the car is present.
        let (clip, bg) = clips();
        let mut ref_sdd = SddFilter::from_background(&bg, DistanceMetric::Mse, 0.0);
        let mut d_t = Vec::new();
        let mut d_b = Vec::new();
        for lf in &clip {
            let d = ref_sdd.distance(&lf.frame);
            if lf.truth.count_complete(ObjectClass::Car) > 0 {
                d_t.push(d);
            } else if lf.truth.objects.is_empty() {
                d_b.push(d);
            }
        }
        ref_sdd.calibrate(&d_t, &d_b, 0.98, 0.9);

        // The diff mode measures *motion*, a much smaller signal than
        // presence, so it gets its own calibration: threshold above the
        // background-only frame-to-frame noise.
        let mut probe = FrameDiffSdd::new(DistanceMetric::Mse, 0.0);
        let mut bg_diffs = Vec::new();
        for lf in &clip {
            let d = probe.distance_and_update(&lf.frame);
            if lf.truth.objects.is_empty() {
                bg_diffs.push(d);
            }
        }
        bg_diffs.sort_by(f32::total_cmp);
        let diff_threshold = bg_diffs[(bg_diffs.len() as f32 * 0.95) as usize];
        let mut diff_sdd = FrameDiffSdd::new(DistanceMetric::Mse, diff_threshold);

        // moving-car frames: both should mostly pass
        let mut moving_ref = 0usize;
        let mut moving_diff = 0usize;
        let mut n = 0usize;
        for lf in &clip {
            let diff_v = diff_sdd.check(&lf.frame);
            if lf.truth.count_complete(ObjectClass::Car) > 0 {
                n += 1;
                if ref_sdd.check(&lf.frame) == Verdict::Pass {
                    moving_ref += 1;
                }
                if diff_v == Verdict::Pass {
                    moving_diff += 1;
                }
            }
        }
        assert!(n > 100);
        assert!(moving_ref as f64 / n as f64 > 0.9);
        assert!(
            moving_diff as f64 / n as f64 > 0.5,
            "moving diff pass {}",
            moving_diff as f64 / n as f64
        );

        // a parked car: synthesize by repeating one target frame
        let parked = clip
            .iter()
            .find(|lf| lf.truth.count_complete(ObjectClass::Car) > 0)
            .expect("target frame");
        let mut fresh_diff = FrameDiffSdd::new(DistanceMetric::Mse, diff_threshold);
        let mut parked_diff_passes = 0usize;
        for _ in 0..20 {
            if fresh_diff.check(&parked.frame) == Verdict::Pass {
                parked_diff_passes += 1;
            }
        }
        // previous-frame mode goes quiet on a static scene...
        assert_eq!(parked_diff_passes, 0, "identical frames have zero diff");
        // ...while the reference mode keeps flagging the parked car
        assert_eq!(ref_sdd.check(&parked.frame), Verdict::Pass);
    }

    #[test]
    fn adaptive_sdd_tracks_slow_illumination_drift() {
        use ffsva_video::BackgroundKind;
        // A scene whose illumination dims over time: the static reference
        // drifts out of date, the adaptive one follows.
        let mut cfg = workloads::test_tiny(ObjectClass::Car, 0.0, 99);
        cfg.background = BackgroundKind::Dynamic {
            period_frames: 1200, // fast dusk for the test
            amplitude: 0.8,
            drift_sigma: 0.0,
        };
        cfg.ambient_blobs = 0;
        let mut s = VideoStream::new(0, cfg);
        let early = s.clip(60);
        let bg: Vec<Frame> = early.iter().take(24).map(|lf| lf.frame.clone()).collect();
        let mut static_sdd = SddFilter::from_background(&bg, DistanceMetric::Mse, 0.0);
        // threshold above the sensor noise floor
        let noise_floor: f32 = early
            .iter()
            .map(|lf| static_sdd.distance(&lf.frame))
            .fold(0.0, f32::max);
        static_sdd.delta_diff = noise_floor * 6.0;
        let mut adaptive = AdaptiveSdd::new(static_sdd.clone(), 0.2);

        // advance into dusk (illumination falls substantially); the adaptive
        // filter sees every frame so its reference can track the change,
        // and only the dusk window counts toward the comparison
        let mut static_drops = 0usize;
        let mut adaptive_drops = 0usize;
        let mut total = 0usize;
        let clip = s.clip(540);
        for (i, lf) in clip.iter().enumerate() {
            let sv = static_sdd.check(&lf.frame);
            let av = adaptive.check_and_adapt(&lf.frame);
            if i >= 300 {
                total += 1;
                if sv == Verdict::Drop {
                    static_drops += 1;
                }
                if av == Verdict::Drop {
                    adaptive_drops += 1;
                }
            }
        }
        // all frames are pure background; adaptive keeps dropping them while
        // the static reference false-alarms on the dimmed scene
        assert!(adaptive.updates() > 0);
        assert!(
            adaptive_drops > static_drops,
            "adaptive {} vs static {} of {}",
            adaptive_drops,
            static_drops,
            total
        );
        assert!(
            adaptive_drops as f64 / total as f64 > 0.8,
            "adaptive drop rate {}",
            adaptive_drops as f64 / total as f64
        );
    }

    #[test]
    fn adaptive_sdd_does_not_absorb_content_frames() {
        let (clip, bg) = clips();
        let mut sdd = SddFilter::from_background(&bg, DistanceMetric::Mse, 0.0);
        let mut d_target = Vec::new();
        let mut d_bg = Vec::new();
        for lf in &clip {
            let d = sdd.distance(&lf.frame);
            if lf.truth.count_complete(ObjectClass::Car) > 0 {
                d_target.push(d);
            } else if lf.truth.objects.is_empty() {
                d_bg.push(d);
            }
        }
        sdd.calibrate(&d_target, &d_bg, 0.98, 0.9);
        let mut adaptive = AdaptiveSdd::new(sdd.clone(), 0.1);
        let before = adaptive.inner().reference.clone();
        // feed only frames the filter passes (content): no reference update
        let mut fed = 0usize;
        for lf in clip
            .iter()
            .filter(|lf| {
                lf.truth.count_complete(ObjectClass::Car) > 0
                    && sdd.distance(&lf.frame) > sdd.delta_diff
            })
            .take(50)
        {
            let v = adaptive.check_and_adapt(&lf.frame);
            assert_eq!(v, Verdict::Pass);
            fed += 1;
        }
        assert!(fed > 10, "need passing content frames, got {}", fed);
        // no fast (background) updates happened...
        assert_eq!(adaptive.updates(), 0);
        // ...and the slow-absorption leak stayed tiny
        let max_delta = adaptive
            .inner()
            .reference
            .iter()
            .zip(before.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_delta < 0.15, "reference drifted by {}", max_delta);
    }
}

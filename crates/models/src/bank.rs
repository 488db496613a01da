//! Per-stream filter bank: builds (trains + calibrates) the full cascade for
//! one video stream and evaluates frames into [`FrameTrace`] records.
//!
//! Filter *decisions* depend only on the frame pixels and each filter's
//! threshold — not on batch sizes or queue states. Evaluating a clip once
//! into a trace lets the scheduling engines sweep FilterDegree,
//! NumberofObjects, batch policies and stream counts without re-running the
//! pixel models, exactly as the paper sweeps one knob at a time.

use crate::reference::ReferenceModel;
use crate::scratch::Scratch;
use crate::sdd::{DistanceMetric, SddFilter};
use crate::snm::{train_snm, SnmModel, SnmReport, SnmTrainOptions};
use crate::tyolo::TinyYolo;
use ffsva_video::{Frame, LabeledFrame, ObjectClass};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which quantized execution paths a trace evaluates, mirroring the
/// engines' `snm_precision` / `tyolo_precision` dispatch: each flag swaps
/// exactly one model onto its int8 path while every other column stays
/// identical, so diffing traces isolates each quantization effect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// Run the SNM through [`crate::compress::QuantizedSequential`].
    pub snm_int8: bool,
    /// Run T-YOLO through the integer detection pipeline
    /// ([`TinyYolo::count_quantized_with`]).
    pub tyolo_int8: bool,
}

/// Raw filter measurements for one frame.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FrameTrace {
    /// Per-stream sequence number.
    pub seq: u64,
    /// Presentation timestamp (ms).
    pub pts_ms: u64,
    /// SDD distance against the stream's background reference.
    pub sdd_distance: f32,
    /// SNM predicted target probability `c`.
    pub snm_prob: f32,
    /// Number of target objects T-YOLO detects.
    pub tyolo_count: u16,
    /// Number of target objects the reference model (YOLOv2 stand-in) finds.
    pub reference_count: u16,
    /// Visible target objects in the generator's ground truth.
    pub truth_count: u16,
    /// Complete (≥95 % visible) target objects in the ground truth.
    pub truth_complete: u16,
}

/// All models of one stream's cascade, trained and calibrated.
pub struct FilterBank {
    pub target: ObjectClass,
    pub sdd: SddFilter,
    pub snm: SnmModel,
    pub tyolo: TinyYolo,
    pub reference: ReferenceModel,
    /// Training diagnostics.
    pub snm_report: SnmReport,
}

/// Options controlling [`FilterBank::build`].
#[derive(Debug, Clone, Copy)]
pub struct BankOptions {
    pub snm: SnmTrainOptions,
    /// SDD recall target during calibration.
    pub sdd_recall: f32,
    /// SDD threshold relaxation factor (§3.3).
    pub sdd_relax: f32,
    /// Number of background frames averaged into the SDD reference.
    pub background_frames: usize,
}

impl Default for BankOptions {
    fn default() -> Self {
        BankOptions {
            snm: SnmTrainOptions::default(),
            sdd_recall: 0.99,
            sdd_relax: 0.85,
            background_frames: 24,
        }
    }
}

impl FilterBank {
    /// Build the full cascade for a stream from a labeled training clip,
    /// following §4.1: frames are labeled by the reference model, SDD gets a
    /// background reference and a calibrated δ_diff, SNM is trained and its
    /// thresholds selected on a held-out split.
    pub fn build(
        training_clip: &[LabeledFrame],
        target: ObjectClass,
        opts: &BankOptions,
        rng: &mut impl Rng,
    ) -> Self {
        let reference = ReferenceModel::default();

        // Background frames: nothing detected at all (not even distractors).
        let background: Vec<Frame> = training_clip
            .iter()
            .filter(|lf| reference.detect(&lf.truth).is_empty())
            .take(opts.background_frames.max(1))
            .map(|lf| lf.frame.clone())
            .collect();
        let background = if background.is_empty() {
            // Degenerate stream (always busy): fall back to the first frame.
            vec![training_clip
                .first()
                .expect("non-empty training clip")
                .frame
                .clone()]
        } else {
            background
        };
        let mut sdd = SddFilter::from_background(&background, DistanceMetric::Mse, 0.0);

        // Calibrate δ_diff from reference-labeled frames.
        // Calibration positives are frames with a *complete* target object;
        // partial slivers at scene boundaries genuinely look like background
        // and would drive δ_diff below the noise floor.
        let mut d_target = Vec::new();
        let mut d_background = Vec::new();
        for lf in training_clip {
            let d = sdd.distance(&lf.frame);
            if lf.truth.count_complete(target) > 0 {
                d_target.push(d);
            } else if reference.detect(&lf.truth).is_empty() {
                d_background.push(d);
            }
        }
        sdd.calibrate(&d_target, &d_background, opts.sdd_recall, opts.sdd_relax);

        let (snm, snm_report) = train_snm(training_clip, target, &opts.snm, rng);

        FilterBank {
            target,
            sdd,
            snm,
            tyolo: TinyYolo::default(),
            reference,
            snm_report,
        }
    }

    /// Evaluate one labeled frame into a trace record.
    pub fn trace_frame(&mut self, lf: &LabeledFrame) -> FrameTrace {
        let p = self.snm.predict(&lf.frame);
        self.trace_with_prob(lf, p)
    }

    /// [`Self::trace_frame`] with the SNM probability computed on the int8
    /// quantized execution path ([`crate::compress::QuantizedSequential`]).
    /// Every other column (SDD distance, T-YOLO count, reference counts) is
    /// identical to [`Self::trace_frame`], so diffing the two traces
    /// isolates exactly the quantization effect on the cascade.
    pub fn trace_frame_int8(&mut self, lf: &LabeledFrame) -> FrameTrace {
        let p = self.snm.predict_int8(&lf.frame);
        self.trace_with_prob(lf, p)
    }

    /// Evaluate one labeled frame with per-model precision selection
    /// ([`TraceOptions`]); `scratch` backs the T-YOLO resize so clip-scale
    /// tracing stays allocation-free across frames.
    pub fn trace_frame_opts(
        &mut self,
        lf: &LabeledFrame,
        opts: TraceOptions,
        scratch: &mut Scratch,
    ) -> FrameTrace {
        let p = if opts.snm_int8 {
            self.snm.predict_int8(&lf.frame)
        } else {
            self.snm.predict(&lf.frame)
        };
        let tyolo_count = if opts.tyolo_int8 {
            self.tyolo
                .count_quantized_with(&lf.frame, self.target, scratch)
        } else {
            self.tyolo.count_with(&lf.frame, self.target, scratch)
        };
        self.trace_fields(lf, p, tyolo_count)
    }

    fn trace_with_prob(&mut self, lf: &LabeledFrame, snm_prob: f32) -> FrameTrace {
        let tyolo_count = self.tyolo.count(&lf.frame, self.target);
        self.trace_fields(lf, snm_prob, tyolo_count)
    }

    fn trace_fields(&self, lf: &LabeledFrame, snm_prob: f32, tyolo_count: usize) -> FrameTrace {
        FrameTrace {
            seq: lf.frame.seq,
            pts_ms: lf.frame.pts_ms,
            sdd_distance: self.sdd.distance(&lf.frame),
            snm_prob,
            tyolo_count: tyolo_count.min(u16::MAX as usize) as u16,
            reference_count: self
                .reference
                .count(&lf.truth, self.target)
                .min(u16::MAX as usize) as u16,
            truth_count: lf.truth.count(self.target).min(u16::MAX as usize) as u16,
            truth_complete: lf.truth.count_complete(self.target).min(u16::MAX as usize) as u16,
        }
    }

    /// Evaluate a whole clip.
    pub fn trace_clip(&mut self, clip: &[LabeledFrame]) -> Vec<FrameTrace> {
        clip.iter().map(|lf| self.trace_frame(lf)).collect()
    }

    /// Evaluate a whole clip on the int8 SNM path.
    pub fn trace_clip_int8(&mut self, clip: &[LabeledFrame]) -> Vec<FrameTrace> {
        clip.iter().map(|lf| self.trace_frame_int8(lf)).collect()
    }

    /// Evaluate a whole clip with per-model precision selection. With both
    /// flags off the scratch-backed paths produce the same counts as
    /// [`Self::trace_clip`] (the conformance suites pin scratch vs
    /// allocating equality), so this is the superset entry point the
    /// engines' precision dispatch routes through.
    pub fn trace_clip_opts(
        &mut self,
        clip: &[LabeledFrame],
        opts: TraceOptions,
    ) -> Vec<FrameTrace> {
        let mut scratch = Scratch::new();
        clip.iter()
            .map(|lf| self.trace_frame_opts(lf, opts, &mut scratch))
            .collect()
    }
}

impl FrameTrace {
    /// SDD verdict at the bank's calibrated threshold.
    pub fn sdd_pass(&self, delta_diff: f32) -> bool {
        self.sdd_distance > delta_diff
    }

    /// SNM verdict at a given t_pre.
    pub fn snm_pass(&self, t_pre: f32) -> bool {
        self.snm_prob >= t_pre
    }

    /// T-YOLO verdict at a given NumberofObjects.
    ///
    /// `number_of_objects == 0` is the *any-motion* query: the count stage
    /// imposes no requirement, so every frame that reached T-YOLO passes and
    /// SDD/SNM remain the only gates. (Historically 0 was silently clamped
    /// to 1, turning "any motion" into "≥ 1 object".)
    pub fn tyolo_pass(&self, number_of_objects: usize) -> bool {
        (self.tyolo_count as usize) >= number_of_objects
    }

    /// Whether the reference model flags this frame as a target frame. Under
    /// the any-motion query (`number_of_objects == 0`) every frame is
    /// trivially a target frame — the cascade is then judged against full
    /// capture, consistent with [`Self::tyolo_pass`].
    pub fn is_reference_target(&self, number_of_objects: usize) -> bool {
        (self.reference_count as usize) >= number_of_objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsva_video::prelude::*;
    use ffsva_video::workloads;
    use rand::SeedableRng;

    fn small_opts() -> BankOptions {
        BankOptions {
            snm: SnmTrainOptions {
                epochs: 16,
                batch_size: 16,
                lr: 0.08,
                train_frac: 0.7,
                max_samples: 500,
                restarts: 3,
            },
            ..Default::default()
        }
    }

    #[test]
    fn bank_builds_and_filters_sensibly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.35, 55);
        let mut s = VideoStream::new(0, cfg.clone());
        let train_clip = s.clip(2000);
        let mut bank = FilterBank::build(&train_clip, ObjectClass::Car, &small_opts(), &mut rng);

        // Evaluate on a *later* segment of the same stream: the SDD reference
        // is specialized to this camera's fixed viewpoint.
        let eval = s.clip(1000);
        let traces = bank.trace_clip(&eval);
        assert_eq!(traces.len(), eval.len());

        // Cascade sanity: most reference-target frames survive SDD, and a
        // fair share of background frames is dropped by SDD.
        let delta = bank.sdd.delta_diff;
        let t_pre = bank.snm.t_pre(0.5);
        let mut complete_frames = 0usize;
        let mut complete_sdd_pass = 0usize;
        let mut bg_frames = 0usize;
        let mut bg_drop = 0usize;
        let mut cascade_pass_of_complete = 0usize;
        for (tr, lf) in traces.iter().zip(eval.iter()) {
            if lf.truth.count_complete(ObjectClass::Car) > 0 {
                complete_frames += 1;
                if tr.sdd_pass(delta) {
                    complete_sdd_pass += 1;
                }
                if tr.sdd_pass(delta) && tr.snm_pass(t_pre) && tr.tyolo_pass(1) {
                    cascade_pass_of_complete += 1;
                }
            } else if lf.truth.objects.is_empty() {
                bg_frames += 1;
                if !tr.sdd_pass(delta) {
                    bg_drop += 1;
                }
            }
        }
        assert!(complete_frames > 100, "complete frames {}", complete_frames);
        assert!(
            complete_sdd_pass as f64 / complete_frames as f64 > 0.9,
            "sdd recall {}",
            complete_sdd_pass as f64 / complete_frames as f64
        );
        assert!(
            bg_drop as f64 / bg_frames.max(1) as f64 > 0.5,
            "sdd background drop {}",
            bg_drop as f64 / bg_frames.max(1) as f64
        );
        // Frames with a complete target overwhelmingly survive the cascade
        // (partial-appearance frames are allowed to be dropped, §3.3/§5.3).
        assert!(
            cascade_pass_of_complete as f64 / complete_frames as f64 > 0.7,
            "cascade recall on complete frames {}",
            cascade_pass_of_complete as f64 / complete_frames as f64
        );
    }

    #[test]
    fn trace_opts_default_matches_trace_clip_and_tyolo_int8_touches_one_column() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.35, 55);
        let mut s = VideoStream::new(0, cfg);
        let train_clip = s.clip(800);
        let mut bank = FilterBank::build(&train_clip, ObjectClass::Car, &small_opts(), &mut rng);
        let eval = s.clip(200);

        let base = bank.trace_clip(&eval);
        let opts_default = bank.trace_clip_opts(&eval, TraceOptions::default());
        for (a, b) in base.iter().zip(opts_default.iter()) {
            assert_eq!(a.tyolo_count, b.tyolo_count);
            assert_eq!(a.snm_prob, b.snm_prob);
            assert_eq!(a.sdd_distance, b.sdd_distance);
        }

        let ty8 = bank.trace_clip_opts(
            &eval,
            TraceOptions {
                snm_int8: false,
                tyolo_int8: true,
            },
        );
        let mut count_match = 0usize;
        for (a, b) in base.iter().zip(ty8.iter()) {
            // every non-T-YOLO column is untouched by the tyolo knob
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.snm_prob, b.snm_prob);
            assert_eq!(a.sdd_distance, b.sdd_distance);
            assert_eq!(a.reference_count, b.reference_count);
            if a.tyolo_count == b.tyolo_count {
                count_match += 1;
            }
        }
        // the integer detector agrees with f32 on the vast majority of
        // frames (the tyolo conformance test pins the exact rate bound)
        assert!(
            count_match as f64 / base.len() as f64 > 0.8,
            "tyolo int8 count agreement {}/{}",
            count_match,
            base.len()
        );
    }

    /// What the cascade reads off live workload frames, for a bank built
    /// from a fixed seed. The constants were printed by this test at the
    /// parent of the resize-kernel rewrite and hold every consumer of a
    /// resized plane to that commit: the calibrated δ_diff, SDD distances,
    /// the standardized SNM input and T-YOLO counts. Scalar kernels only:
    /// the SIMD distance is within ULPs of these, not equal.
    #[test]
    fn golden_cascade_scores_on_live_frames() {
        use ffsva_video::checksum::{fnv1a, frame_checksum};

        // δ_diff bits, then per frame: index, source frame checksum,
        // distance bits, snm_input digest, T-YOLO count
        type Row = (usize, u64, u32, u64, usize);
        const JACKSON_SEED_1: (u32, [Row; 3]) = (
            0x3b7a5623,
            [
                (0, 0x6b221b6e5cad5aed, 0x38f9252f, 0x719f990396931902, 0),
                (450, 0xdd51402aee189388, 0x3a16725d, 0x6434be1991627e7e, 0),
                (899, 0x418b8f088d0452d5, 0x39d6f0b6, 0x1fbb1dc8c75a94da, 0),
            ],
        );
        const CORAL_SEED_5: (u32, [Row; 3]) = (
            0x3976f371,
            [
                (0, 0xecfa5a771726d884, 0x38bfb0ab, 0xf9c5e0406adeb662, 4),
                (450, 0xe62c8d468a171adb, 0x3aba3451, 0x4f2415da1930060d, 6),
                (899, 0xc90fbe1321c5b86d, 0x3a0d2120, 0x429ffb2114ec9024, 1),
            ],
        );
        if ffsva_tensor::simd_active() {
            eprintln!("SIMD kernels active: scalar golden scores not compared");
            return;
        }
        let opts = BankOptions {
            snm: SnmTrainOptions {
                epochs: 1,
                max_samples: 32,
                restarts: 1,
                ..small_opts().snm
            },
            ..Default::default()
        };
        for (name, cfg, (delta_diff, golden)) in [
            (
                "jackson/1",
                workloads::jackson().with_seed(1),
                JACKSON_SEED_1,
            ),
            ("coral/5", workloads::coral().with_seed(5), CORAL_SEED_5),
        ] {
            let target = cfg.target;
            let clip = VideoStream::new(0, cfg).clip(900);
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x7E57);
            let bank = FilterBank::build(&clip[..300], target, &opts, &mut rng);
            println!("{name}: delta_diff {:#010x}", bank.sdd.delta_diff.to_bits());
            for (i, source, distance, snm, count) in golden {
                let f = &clip[i].frame;
                let input = crate::snm::snm_input(f);
                let bytes: Vec<u8> = input
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
                    .collect();
                let got = (
                    i,
                    frame_checksum(f),
                    bank.sdd.distance(f).to_bits(),
                    fnv1a(&bytes),
                    bank.tyolo.count(f, target),
                );
                println!(
                    "{name}: ({i}, {:#018x}, {:#010x}, {:#018x}, {}),",
                    got.1, got.2, got.3, got.4
                );
                if got.1 != source {
                    // filmed with another `rand` than the offline stand-in
                    // the constants were taken with: nothing to compare
                    eprintln!("{name} frame {i}: source frame differs, scores not compared");
                    continue;
                }
                assert_eq!(
                    bank.sdd.delta_diff.to_bits(),
                    delta_diff,
                    "{name} delta_diff"
                );
                assert_eq!(got, (i, source, distance, snm, count), "{name} frame {i}");
            }
        }
    }

    #[test]
    fn trace_thresholds_behave_monotonically() {
        let tr = FrameTrace {
            seq: 0,
            pts_ms: 0,
            sdd_distance: 0.01,
            snm_prob: 0.6,
            tyolo_count: 2,
            reference_count: 3,
            truth_count: 3,
            truth_complete: 3,
        };
        assert!(tr.sdd_pass(0.005));
        assert!(!tr.sdd_pass(0.02));
        assert!(tr.snm_pass(0.5));
        assert!(!tr.snm_pass(0.7));
        assert!(tr.tyolo_pass(2));
        assert!(!tr.tyolo_pass(3));
        assert!(tr.is_reference_target(3));
        assert!(!tr.is_reference_target(4));
    }

    #[test]
    fn zero_objects_is_the_any_motion_query() {
        // A frame where neither T-YOLO nor the reference model found
        // anything: under n_obj = 0 the count stages impose no requirement,
        // so both verdicts hold vacuously instead of being clamped to "≥ 1".
        let tr = FrameTrace {
            seq: 0,
            pts_ms: 0,
            sdd_distance: 0.01,
            snm_prob: 0.6,
            tyolo_count: 0,
            reference_count: 0,
            truth_count: 0,
            truth_complete: 0,
        };
        assert!(tr.tyolo_pass(0));
        assert!(tr.is_reference_target(0));
        // n_obj ≥ 1 still requires actual detections
        assert!(!tr.tyolo_pass(1));
        assert!(!tr.is_reference_target(1));
    }
}

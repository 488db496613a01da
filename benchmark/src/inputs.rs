//! Inputs: the cameras every run films (clip, filter bank, decision trace)
//! and what `--seed` makes of them for each engine.
//!
//! A natural clip's cost is set by how far its frames travel down the
//! cascade, and that differs from camera to camera by far more than any
//! regression bound: over camera seeds 1–12 a jackson SDD stopped anything
//! from 34 % to 98 % of 1500 natural frames, and three of the twelve cameras
//! missed the accuracy target under the fast training budget. The driver
//! holds the spread *across `--seed` values* against the bounds, so the
//! cameras are a fixed set and `--seed` decides where in its film each stream
//! starts: every stream's clip is the camera's natural clip rotated by a
//! seeded offset, ISSUE 11's own device for the DES fleet ("non-overlapping
//! clips of the same video", §5.1). Composition is exactly the same for every
//! seed; which streams are busy at the same moment is not.

use crate::spans::Spans;
use ffsva_core::accuracy::cascade_pass;
use ffsva_core::{evaluate_accuracy, AccuracyReport, FfsVaConfig, StreamInput, StreamThresholds};
use ffsva_models::bank::{BankOptions, FilterBank};
use ffsva_models::snm::SnmTrainOptions;
use ffsva_models::FrameTrace;
use ffsva_video::{workloads, LabeledFrame, ObjectClass, StreamConfig, VideoStream};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const TRAIN_FRAMES: usize = 900;
/// Stream `k` of a workload takes its rotation from `seed + k · STREAM_SEED_STRIDE`.
pub const STREAM_SEED_STRIDE: u64 = 0x9E37_79B9;
/// Evaluation frames are filmed and traced this many at a time, so a camera
/// whose pixels no engine needs never holds more than one chunk of them.
const FILM_CHUNK: usize = 300;

/// The two camera archetypes of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    /// `workloads::jackson()`: 300×200 render, large sparse vehicles, TOR 0.08.
    Sparse,
    /// `workloads::coral()`: 320×180 render, small dense persons, TOR 0.5.
    Dense,
}

impl Scene {
    pub fn config(self) -> StreamConfig {
        match self {
            Scene::Sparse => workloads::jackson(),
            Scene::Dense => workloads::coral(),
        }
    }

    /// Seed of the scene's `k`-th camera. The rule that chose them: counting
    /// up from 1, the first two seeds whose 1500-frame evaluation clip, under
    /// `bank_options()`, meets the accuracy target and sends at least ten
    /// frames out of every exit of the cascade (stopped by SDD, by SNM, by
    /// T-YOLO, surviving). Measured at the parent commit, frames leaving at
    /// sdd/snm/tyolo/survive: jackson 1 → 1377/43/13/67, jackson 2 →
    /// 1368/12/49/71, coral 5 → 497/40/42/921, coral 7 → 556/28/18/898.
    /// Every run prints what it measured.
    pub fn camera_seed(self, k: usize) -> u64 {
        match self {
            Scene::Sparse => [1, 2][k],
            Scene::Dense => [5, 7][k],
        }
    }
}

/// The last filter a frame reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Sdd,
    Snm,
    TYolo,
    Survive,
}

pub fn fate(tr: &FrameTrace, th: &StreamThresholds) -> Fate {
    if !tr.sdd_pass(th.delta_diff) {
        Fate::Sdd
    } else if !tr.snm_pass(th.t_pre) {
        Fate::Snm
    } else if !tr.tyolo_pass(th.number_of_objects) {
        Fate::TYolo
    } else {
        Fate::Survive
    }
}

/// One camera after set-up: its trained cascade and its natural evaluation
/// clip with the decision trace of every frame.
pub struct Camera {
    pub scene: Scene,
    pub seed: u64,
    pub target: ObjectClass,
    pub bank: FilterBank,
    pub thresholds: StreamThresholds,
    /// The first `pixel_frames` evaluation frames, in natural order,
    /// numbered from 0.
    pub clip: Vec<LabeledFrame>,
    /// Every evaluation frame's trace, in natural order, numbered from 0.
    pub traces: Vec<FrameTrace>,
    /// Over `traces`: the frames every engine is then timed on.
    pub accuracy: AccuracyReport,
}

/// The CLI's `--fast` training budget.
pub fn bank_options() -> BankOptions {
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

pub fn clone_bank(bank: &FilterBank) -> FilterBank {
    FilterBank {
        target: bank.target,
        sdd: bank.sdd.clone(),
        snm: bank.snm.clone(),
        tyolo: bank.tyolo.clone(),
        reference: bank.reference.clone(),
        snm_report: bank.snm_report.clone(),
    }
}

/// 30 FPS stamps, as the generator writes them.
fn pts_ms(seq: u64) -> u64 {
    seq * 1000 / 30
}

/// Film and train camera `k` of `scene` as stream `id`, then film and trace
/// `eval_frames` more, keeping the pixels of the first `pixel_frames` of
/// them. The evaluation clip is numbered as a video of its own, from 0.
pub fn set_up_camera(
    scene: Scene,
    k: usize,
    id: u32,
    eval_frames: usize,
    pixel_frames: usize,
    sys: &FfsVaConfig,
    spans: &mut Spans,
) -> Camera {
    let span = spans.enter("setup.camera", id);
    let seed = scene.camera_seed(k);
    let cfg = scene.config().with_seed(seed);
    let target = cfg.target;
    let mut video = VideoStream::new(id, cfg);
    let mut bank = {
        let training = spans.time("video.generate_clip", id, || video.clip(TRAIN_FRAMES));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E57);
        spans.time("models.bank_build", id, || {
            FilterBank::build(&training, target, &bank_options(), &mut rng)
        })
    };

    let (mut clip, mut traces) = (Vec::with_capacity(pixel_frames), Vec::new());
    while traces.len() < eval_frames {
        let n = FILM_CHUNK.min(eval_frames - traces.len());
        let chunk = spans.time("video.generate_clip", id, || video.clip(n));
        traces.extend(spans.time("models.trace_clip", id, || bank.trace_clip(&chunk)));
        let keep = pixel_frames.saturating_sub(clip.len());
        clip.extend(chunk.into_iter().take(keep));
    }
    for (j, tr) in traces.iter_mut().enumerate() {
        (tr.seq, tr.pts_ms) = (j as u64, pts_ms(j as u64));
    }
    renumber(&mut clip);

    let thresholds = StreamThresholds {
        delta_diff: bank.sdd.delta_diff,
        t_pre: bank.snm.t_pre(sys.filter_degree),
        number_of_objects: sys.number_of_objects,
    };
    let accuracy = evaluate_accuracy(&traces, &thresholds);
    spans.exit(span);
    Camera {
        scene,
        seed,
        target,
        bank,
        thresholds,
        clip,
        traces,
        accuracy,
    }
}

impl Camera {
    /// Evaluation frames whose last filter is `fate`.
    pub fn count(&self, fate_wanted: Fate) -> usize {
        self.traces
            .iter()
            .filter(|tr| fate(tr, &self.thresholds) == fate_wanted)
            .count()
    }

    pub fn input(&self) -> StreamInput {
        StreamInput {
            traces: self.traces.clone(),
            thresholds: self.thresholds,
        }
    }
}

/// SplitMix64's output function: the seed's bits spread over the word, so
/// neighbouring seeds give unrelated offsets.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where in a film of `len` frames stream `k` of a run seeded `seed` starts.
pub fn start_offset(seed: u64, k: usize, len: usize) -> usize {
    (mix(seed.wrapping_add(k as u64 * STREAM_SEED_STRIDE)) % len.max(1) as u64) as usize
}

/// `items` started `offset` places later and wrapped around — a
/// "non-overlapping clip" of the same video (§5.1).
pub fn rotate<T: Clone>(items: &[T], offset: usize) -> Vec<T> {
    let off = offset % items.len().max(1);
    let mut out = Vec::with_capacity(items.len());
    out.extend_from_slice(&items[off..]);
    out.extend_from_slice(&items[..off]);
    out
}

/// Number `clip` as one continuous video from 0. The RT engine reports
/// survivors by sequence number, and a feeder's frames count upwards.
pub fn renumber(clip: &mut [LabeledFrame]) {
    for (j, lf) in clip.iter_mut().enumerate() {
        (lf.frame.seq, lf.frame.pts_ms) = (j as u64, pts_ms(j as u64));
    }
}

/// `traces` numbered like `renumber` numbers their frames.
pub fn renumbered(mut traces: Vec<FrameTrace>) -> Vec<FrameTrace> {
    for (j, tr) in traces.iter_mut().enumerate() {
        (tr.seq, tr.pts_ms) = (j as u64, pts_ms(j as u64));
    }
    traces
}

/// Sequence numbers the cascade must let through, in stream order: the
/// DES↔RT invariant says both engines' survivor sets equal the trace math.
pub fn expected_survivors(traces: &[FrameTrace], th: &StreamThresholds) -> Vec<u64> {
    traces
        .iter()
        .filter(|tr| cascade_pass(tr, th))
        .map(|tr| tr.seq)
        .collect()
}

/// Frames whose verdict differs between `expected` and `got`: 0 when the
/// two sequences are identical, otherwise the size of their symmetric
/// difference (at least 1, so a pure reordering still counts).
pub fn survivor_diff(expected: &[u64], got: &[u64]) -> usize {
    if expected == got {
        return 0;
    }
    let (mut e, mut g) = (expected.to_vec(), got.to_vec());
    e.sort_unstable();
    g.sort_unstable();
    let (mut i, mut j, mut diff) = (0, 0, 0);
    while i < e.len() && j < g.len() {
        match e[i].cmp(&g[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    (diff + (e.len() - i) + (g.len() - j)).max(1)
}

/// Rotation step between neighbouring fleet streams.
pub const ROTATE_STEP: usize = 97;

/// A fleet of `n` trace-driven streams tiled from one sparse and one dense
/// source stream: every `dense_every`-th stream is dense, stream `k` starts
/// `base + 97 · k` frames into its source. Sequence numbers travel with
/// their frames, as in `PreparedStream::input_rotated`.
pub fn tile_fleet(
    sparse: &StreamInput,
    dense: &StreamInput,
    n: usize,
    dense_every: usize,
    base: usize,
) -> Vec<StreamInput> {
    (0..n)
        .map(|k| {
            let src = if k % dense_every == dense_every - 1 {
                dense
            } else {
                sparse
            };
            StreamInput {
                traces: rotate(&src.traces, base + ROTATE_STEP * k),
                thresholds: src.thresholds,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seq: u64, sdd: f32, snm: f32, tyolo: u16) -> FrameTrace {
        FrameTrace {
            seq,
            pts_ms: pts_ms(seq),
            sdd_distance: sdd,
            snm_prob: snm,
            tyolo_count: tyolo,
            reference_count: tyolo,
            truth_count: tyolo,
            truth_complete: tyolo,
        }
    }

    const TH: StreamThresholds = StreamThresholds {
        delta_diff: 0.5,
        t_pre: 0.5,
        number_of_objects: 1,
    };

    #[test]
    fn fate_is_the_last_filter_reached() {
        assert_eq!(fate(&trace(0, 0.1, 0.9, 3), &TH), Fate::Sdd);
        assert_eq!(fate(&trace(0, 0.9, 0.1, 3), &TH), Fate::Snm);
        assert_eq!(fate(&trace(0, 0.9, 0.9, 0), &TH), Fate::TYolo);
        assert_eq!(fate(&trace(0, 0.9, 0.9, 1), &TH), Fate::Survive);
    }

    #[test]
    fn rotation_wraps_and_keeps_sequence_numbers_with_their_frames() {
        let tr: Vec<FrameTrace> = (0..10).map(|i| trace(i, 0.0, 0.0, 0)).collect();
        let r = rotate(&tr, 3);
        let seqs: Vec<u64> = r.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6, 7, 8, 9, 0, 1, 2]);
        assert_eq!(rotate(&tr, 13)[0].seq, 3, "offsets wrap");
        assert_eq!(rotate(&tr, 0)[0].seq, 0);
        assert!(rotate::<u8>(&[], 5).is_empty());
        // renumbering gives the rotated clip the stamps of a video of its own
        let again = renumbered(r);
        assert_eq!(again[0].seq, 0);
        assert_eq!((again[9].seq, again[9].pts_ms), (9, 300));
    }

    #[test]
    fn start_offsets_follow_the_seed_and_the_stream() {
        let len = 1500;
        let of = |seed, k| start_offset(seed, k, len);
        assert_eq!(of(7, 0), of(7, 0), "the same seed gives the same inputs");
        assert!((0..64).all(|s| of(s, 0) < len && of(s, 1) < len));
        assert_ne!(of(7, 0), of(7, 1));
        assert_ne!(of(7, 0), of(8, 0));
        // stream k of seed s is stream 0 of seed s + k·stride
        assert_eq!(of(7, 1), of(7 + STREAM_SEED_STRIDE, 0));
        let distinct: std::collections::BTreeSet<usize> = (1..=10).map(|s| of(s, 0)).collect();
        assert_eq!(distinct.len(), 10, "neighbouring seeds start apart");
    }

    #[test]
    fn tiling_mixes_sources_and_steps_the_rotation() {
        let sparse = StreamInput {
            traces: (0..300).map(|i| trace(i, 0.0, 0.0, 0)).collect(),
            thresholds: TH,
        };
        let dense = StreamInput {
            traces: (0..300).map(|i| trace(1000 + i, 0.9, 0.9, 2)).collect(),
            thresholds: StreamThresholds { t_pre: 0.25, ..TH },
        };
        let fleet = tile_fleet(&sparse, &dense, 10, 5, 0);
        assert_eq!(fleet.len(), 10);
        let dense_ids: Vec<usize> = (0..10)
            .filter(|&k| fleet[k].traces[0].seq >= 1000)
            .collect();
        assert_eq!(dense_ids, vec![4, 9]);
        assert_eq!(fleet[4].thresholds.t_pre, 0.25);
        assert_eq!(fleet[0].traces[0].seq, 0);
        assert_eq!(fleet[1].traces[0].seq, 97);
        assert_eq!(fleet[3].traces[0].seq, 291);
        assert_eq!(fleet[5].traces[0].seq, (5 * 97) % 300);
        assert!(fleet.iter().all(|s| s.traces.len() == 300));
        // the seed's base offset moves every stream alike
        let shifted = tile_fleet(&sparse, &dense, 10, 5, 40);
        assert_eq!(shifted[0].traces[0].seq, 40);
        assert_eq!(shifted[1].traces[0].seq, 137);
    }

    #[test]
    fn survivor_diff_counts_missing_extra_and_reordered() {
        assert_eq!(survivor_diff(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(survivor_diff(&[], &[]), 0);
        assert_eq!(survivor_diff(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(survivor_diff(&[1, 3], &[1, 2, 3, 4]), 2);
        assert_eq!(survivor_diff(&[1, 2, 3], &[4, 5]), 5);
        assert_eq!(
            survivor_diff(&[1, 2, 3], &[3, 2, 1]),
            1,
            "order is part of the verdict"
        );
    }

    #[test]
    fn expected_survivors_follow_the_trace_math() {
        let tr = vec![
            trace(0, 0.1, 0.9, 3),
            trace(1, 0.9, 0.9, 1),
            trace(2, 0.9, 0.4, 1),
            trace(3, 0.9, 0.9, 2),
        ];
        assert_eq!(expected_survivors(&tr, &TH), vec![1, 3]);
    }
}

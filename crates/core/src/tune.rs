//! `ffsva tune` — cost-based cascade auto-tuning and online drift
//! recalibration.
//!
//! The tuner searches the cascade's knob space — δ_diff scale, FilterDegree
//! (Eq. 2), T-YOLO relax, SNM batch size, `num_tyolo`, SNM precision —
//! against one calibration clip's decision traces. Accuracy is scored
//! directly on the traces ([`crate::accuracy::evaluate_relaxed`], cheap);
//! predicted throughput comes from the discrete-event engine on the
//! calibrated (or measured, `snm_cost_override`) device substrate, which is
//! why the search can afford hundreds of candidates without touching a GPU.
//! The search is exhaustive over a fixed coarse grid followed by a local
//! refinement around the incumbent — no randomness anywhere, so the same
//! input yields a byte-identical [`TuneReport`].
//!
//! The second half closes the loop online: a windowed [`DriftDetector`]
//! watches SDD distances for illumination regime shifts (day → night), and
//! [`RtEngine::with_drift`] re-derives the SDD reference and SNM threshold
//! live when it fires. [`drift_ablation`] measures the accuracy effect of
//! recalibration on a drifting clip.

use crate::accuracy::evaluate_relaxed;
use crate::config::{FfsVaConfig, Precision, StreamThresholds};
use crate::rt_engine::{RtEngine, SurvivingFrame};
use crate::sim::{Engine, Mode, StreamInput};
use ffsva_models::bank::FilterBank;
use ffsva_models::{CostSpec, FrameTrace, ReferenceModel};
use ffsva_sched::BatchPolicy;
use ffsva_telemetry::{Telemetry, TelemetrySnapshot};
use ffsva_video::{LabeledFrame, ObjectClass};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Bumped whenever [`TuneReport`]'s serialized shape changes.
pub const TUNE_SCHEMA_VERSION: u32 = 1;

// The coarse search grid. Fixed arrays iterated in order — enumeration
// order is part of the determinism contract (it breaks ranking ties).
const DELTA_SCALES: &[f32] = &[0.6, 0.8, 1.0, 1.25, 1.6];
const FILTER_DEGREES: &[f32] = &[0.0, 0.25, 0.5, 0.75, 1.0];
const RELAXES: &[usize] = &[0, 1];
const BATCH_SIZES: &[usize] = &[1, 10, 30];
const NUM_TYOLOS: &[usize] = &[4, 8, 16];

/// Calibration material the tuner searches against: one clip's decision
/// traces plus the trained anchors the knobs scale from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneInput {
    /// Workload label carried into the report.
    pub workload: String,
    /// Full-precision decision traces of the calibration clip.
    pub traces_f32: Vec<FrameTrace>,
    /// Int8 traces of the same clip; enables the `snm_precision` axis.
    pub traces_int8: Option<Vec<FrameTrace>>,
    /// The bank's calibrated δ_diff — `delta_scale` multiplies this.
    pub delta_diff: f32,
    /// The trained SNM's confidence band; FilterDegree maps into it (Eq. 2).
    pub c_low: f32,
    pub c_high: f32,
}

impl TuneInput {
    fn traces(&self, prec: Precision) -> &[FrameTrace] {
        match prec {
            Precision::F32 => &self.traces_f32,
            Precision::Int8 => self
                .traces_int8
                .as_deref()
                .expect("int8 candidate without int8 traces"),
        }
    }

    fn precisions(&self) -> Vec<Precision> {
        if self.traces_int8.is_some() {
            vec![Precision::F32, Precision::Int8]
        } else {
            vec![Precision::F32]
        }
    }
}

/// One point of the knob space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuneKnobs {
    /// Multiplier on the calibrated δ_diff.
    pub delta_scale: f32,
    /// FilterDegree in `[0, 1]` (Eq. 2 resolves it to t_pre).
    pub filter_degree: f32,
    /// T-YOLO count-requirement relaxation (§5.3).
    pub relax: usize,
    /// SNM dynamic batch size.
    pub batch_size: usize,
    /// Frames T-YOLO drains per stream per cycle.
    pub num_tyolo: usize,
    /// SNM inference precision.
    pub snm_precision: Precision,
}

impl TuneKnobs {
    /// The untuned system: paper defaults, calibrated δ_diff as-is.
    pub fn baseline() -> Self {
        let d = FfsVaConfig::default();
        TuneKnobs {
            delta_scale: 1.0,
            filter_degree: d.filter_degree,
            relax: 0,
            batch_size: d.batch_policy.size(),
            num_tyolo: d.num_tyolo,
            snm_precision: Precision::F32,
        }
    }
}

/// One evaluated candidate: knobs, the engine thresholds they resolve to,
/// measured accuracy on the calibration traces, and (when the DES budget
/// reached it) the predicted aggregate throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneCandidate {
    /// Position in the deterministic enumeration (ranking tie-break).
    pub index: usize,
    pub knobs: TuneKnobs,
    /// Thresholds as the *engines* consume them: `number_of_objects` here is
    /// the effective requirement (query minus relax), since neither engine
    /// has a relax knob. Accuracy below is still scored against the full
    /// query requirement.
    pub thresholds: StreamThresholds,
    pub scene_miss_rate: f64,
    pub error_rate: f64,
    pub forwarded_frames: usize,
    /// Whether the candidate met the miss-rate bound.
    pub feasible: bool,
    /// DES-predicted aggregate FPS; `None` when the DES budget excluded it.
    pub predicted_fps: Option<f64>,
}

/// Search parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TuneOptions {
    /// Feasibility bound on `scene_miss_rate` (paper headline: < 2 %).
    pub miss_rate_bound: f64,
    /// Streams replicated into each DES run.
    pub streams: usize,
    /// The operator's query requirement (NumberofObjects).
    pub number_of_objects: usize,
    /// Max DES runs spent on the coarse grid (refinement runs are extra).
    pub des_budget: usize,
    /// Candidates kept in the report's ranked list.
    pub top_k: usize,
    /// Measured SNM cost curve for the DES (from `fit_batch_curve_checked`);
    /// `None` keeps the paper-calibrated costs.
    pub snm_cost: Option<CostSpec>,
    /// Recorded in the report for provenance. The search itself is
    /// seed-independent — it uses no randomness.
    pub seed: u64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            miss_rate_bound: 0.02,
            streams: 4,
            number_of_objects: 1,
            des_budget: 64,
            top_k: 10,
            snm_cost: None,
            seed: 0,
        }
    }
}

/// The tuner's output: every candidate's accuracy, the DES-ranked feasible
/// set, the winner, and a blessable engine config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneReport {
    pub schema_version: u32,
    pub workload: String,
    /// Calibration-clip length (f32 traces).
    pub frames: usize,
    pub streams: usize,
    pub miss_rate_bound: f64,
    pub seed: u64,
    /// Candidates evaluated for accuracy (grid + refinement).
    pub evaluated: usize,
    /// Candidates meeting the miss-rate bound.
    pub feasible: usize,
    /// DES runs spent.
    pub des_runs: usize,
    /// The untuned default, always DES-priced for comparison.
    pub baseline: TuneCandidate,
    /// Best feasible candidate by predicted FPS.
    pub winner: Option<TuneCandidate>,
    /// Top feasible candidates by predicted FPS (length ≤ `top_k`).
    pub ranked: Vec<TuneCandidate>,
    /// Blessable engine config realizing the winner (`None` when nothing
    /// was feasible). Pair with `winner.thresholds` for per-stream specs.
    pub config: Option<FfsVaConfig>,
    /// `tune.*` counters of the search itself.
    pub telemetry: TelemetrySnapshot,
}

/// Resolve a knob point into the engine config and per-stream thresholds
/// that realize it. `number_of_objects` in both is the *effective*
/// requirement (query minus relax): the engines have no relax knob, so the
/// relaxation is folded into the count they enforce.
pub fn config_for(
    knobs: &TuneKnobs,
    input: &TuneInput,
    opts: &TuneOptions,
) -> (FfsVaConfig, StreamThresholds) {
    let fd = knobs.filter_degree.clamp(0.0, 1.0);
    // Eq. 2, bit-identical to `SnmModel::t_pre` on the same c_low/c_high
    let t_pre = (input.c_high - input.c_low) * fd + input.c_low;
    let effective = opts.number_of_objects.saturating_sub(knobs.relax);
    let mut cfg = FfsVaConfig::default()
        .with_filter_degree(fd)
        .with_number_of_objects(effective)
        .with_batch_policy(BatchPolicy::Dynamic {
            size: knobs.batch_size,
        })
        .with_snm_precision(knobs.snm_precision);
    cfg.num_tyolo = knobs.num_tyolo;
    if let Some(spec) = opts.snm_cost {
        cfg = cfg.with_snm_cost(spec);
    }
    let th = StreamThresholds {
        delta_diff: input.delta_diff * knobs.delta_scale,
        t_pre,
        number_of_objects: effective,
    };
    (cfg, th)
}

/// Score one knob point's accuracy on the calibration traces. The ground
/// truth uses the full query requirement; the cascade verdict uses the
/// relaxed one — exactly `evaluate_relaxed` semantics.
fn score(knobs: &TuneKnobs, input: &TuneInput, opts: &TuneOptions) -> (f64, f64, usize) {
    let (_, th) = config_for(knobs, input, opts);
    let score_th = StreamThresholds {
        number_of_objects: opts.number_of_objects,
        ..th
    };
    let rep = evaluate_relaxed(input.traces(knobs.snm_precision), &score_th, knobs.relax);
    (rep.scene_miss_rate, rep.error_rate, rep.forwarded_frames)
}

fn des_fps(knobs: &TuneKnobs, input: &TuneInput, opts: &TuneOptions) -> f64 {
    let (cfg, th) = config_for(knobs, input, opts);
    let traces = input.traces(knobs.snm_precision);
    let inputs: Vec<StreamInput> = (0..opts.streams.max(1))
        .map(|_| StreamInput {
            traces: traces.to_vec(),
            thresholds: th,
        })
        .collect();
    Engine::new(cfg, Mode::Offline, inputs).run().throughput_fps
}

fn candidate(
    index: usize,
    knobs: TuneKnobs,
    input: &TuneInput,
    opts: &TuneOptions,
) -> TuneCandidate {
    let (_, th) = config_for(&knobs, input, opts);
    let (miss, err, fwd) = score(&knobs, input, opts);
    TuneCandidate {
        index,
        knobs,
        thresholds: th,
        scene_miss_rate: miss,
        error_rate: err,
        forwarded_frames: fwd,
        feasible: miss < opts.miss_rate_bound,
        predicted_fps: None,
    }
}

/// Rank feasible, DES-priced candidates: predicted FPS descending, then
/// miss rate ascending, then enumeration order. Returns indices into
/// `cands`.
fn rank(cands: &[TuneCandidate]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..cands.len())
        .filter(|&i| cands[i].feasible && cands[i].predicted_fps.is_some())
        .collect();
    idx.sort_by(|&a, &b| {
        let (ca, cb) = (&cands[a], &cands[b]);
        cb.predicted_fps
            .unwrap_or(0.0)
            .total_cmp(&ca.predicted_fps.unwrap_or(0.0))
            .then(ca.scene_miss_rate.total_cmp(&cb.scene_miss_rate))
            .then(ca.index.cmp(&cb.index))
    });
    idx
}

/// Search the knob space for the fastest configuration that keeps the
/// scene miss rate under `opts.miss_rate_bound`.
///
/// Deterministic by construction: a fixed grid enumerated in a fixed order,
/// accuracy scored on the traces, the DES (itself a virtual-time machine)
/// pricing the most promising `des_budget` feasible candidates — fewest
/// forwarded frames first, since forwarding dominates the shared stages —
/// followed by one local refinement pass around the incumbent. Same input,
/// same options ⇒ byte-identical report.
pub fn tune(input: &TuneInput, opts: &TuneOptions) -> TuneReport {
    let tel = Telemetry::new();
    let c_cand = tel.counter("tune.candidates");
    let c_feas = tel.counter("tune.feasible");
    let c_infeas = tel.counter("tune.infeasible");
    let c_des = tel.counter("tune.des_runs");
    let c_skip = tel.counter("tune.des_skipped");
    let c_refined = tel.counter("tune.refined");

    // --- coarse grid ---
    let mut cands: Vec<TuneCandidate> = Vec::new();
    for &ds in DELTA_SCALES {
        for &fd in FILTER_DEGREES {
            for &relax in RELAXES {
                for prec in input.precisions() {
                    // accuracy is independent of the scheduling knobs, so
                    // score once per accuracy point and share it
                    let probe = TuneKnobs {
                        delta_scale: ds,
                        filter_degree: fd,
                        relax,
                        batch_size: BATCH_SIZES[0],
                        num_tyolo: NUM_TYOLOS[0],
                        snm_precision: prec,
                    };
                    let (miss, err, fwd) = score(&probe, input, opts);
                    for &bs in BATCH_SIZES {
                        for &nt in NUM_TYOLOS {
                            let knobs = TuneKnobs {
                                batch_size: bs,
                                num_tyolo: nt,
                                ..probe
                            };
                            let (_, th) = config_for(&knobs, input, opts);
                            let feasible = miss < opts.miss_rate_bound;
                            cands.push(TuneCandidate {
                                index: cands.len(),
                                knobs,
                                thresholds: th,
                                scene_miss_rate: miss,
                                error_rate: err,
                                forwarded_frames: fwd,
                                feasible,
                                predicted_fps: None,
                            });
                            c_cand.inc();
                            if feasible {
                                c_feas.inc();
                            } else {
                                c_infeas.inc();
                            }
                        }
                    }
                }
            }
        }
    }

    // --- DES pricing under budget ---
    // Pre-rank feasible candidates by forwarded frames (fewer survivors ⇒
    // less shared-stage load ⇒ likelier fast), enumeration order breaking
    // ties; spend the budget on that prefix, always including the baseline.
    let baseline_knobs = TuneKnobs::baseline();
    let baseline_idx = cands
        .iter()
        .position(|c| c.knobs == baseline_knobs)
        .expect("baseline knobs lie on the coarse grid");
    let mut pre: Vec<usize> = (0..cands.len()).filter(|&i| cands[i].feasible).collect();
    pre.sort_by_key(|&i| (cands[i].forwarded_frames, cands[i].index));
    let mut priced: Vec<usize> = pre.iter().copied().take(opts.des_budget).collect();
    c_skip.add(pre.len().saturating_sub(priced.len()) as u64);
    if !priced.contains(&baseline_idx) {
        priced.push(baseline_idx);
    }
    for &i in &priced {
        cands[i].predicted_fps = Some(des_fps(&cands[i].knobs, input, opts));
        c_des.inc();
    }
    // The baseline is priced even when infeasible, so the report can always
    // show what the untuned default costs.
    if cands[baseline_idx].predicted_fps.is_none() {
        cands[baseline_idx].predicted_fps = Some(des_fps(&cands[baseline_idx].knobs, input, opts));
        c_des.inc();
    }

    // --- local refinement around the incumbent ---
    if let Some(&best) = rank(&cands).first() {
        let w = cands[best].knobs;
        let mut fresh: Vec<TuneKnobs> = Vec::new();
        for ds in [w.delta_scale * 0.9, w.delta_scale, w.delta_scale * 1.1] {
            for dfd in [-0.125f32, 0.0, 0.125] {
                let knobs = TuneKnobs {
                    delta_scale: ds,
                    filter_degree: (w.filter_degree + dfd).clamp(0.0, 1.0),
                    ..w
                };
                if cands.iter().all(|c| c.knobs != knobs) && !fresh.contains(&knobs) {
                    fresh.push(knobs);
                }
            }
        }
        for knobs in fresh {
            let mut cand = candidate(cands.len(), knobs, input, opts);
            c_cand.inc();
            c_refined.inc();
            if cand.feasible {
                c_feas.inc();
                cand.predicted_fps = Some(des_fps(&cand.knobs, input, opts));
                c_des.inc();
            } else {
                c_infeas.inc();
            }
            cands.push(cand);
        }
    }

    // --- final ranking ---
    let order = rank(&cands);
    let winner = order.first().map(|&i| cands[i].clone());
    let config = winner.as_ref().map(|w| config_for(&w.knobs, input, opts).0);
    let ranked: Vec<TuneCandidate> = order
        .iter()
        .take(opts.top_k.max(1))
        .map(|&i| cands[i].clone())
        .collect();
    let feasible = cands.iter().filter(|c| c.feasible).count();

    TuneReport {
        schema_version: TUNE_SCHEMA_VERSION,
        workload: input.workload.clone(),
        frames: input.traces_f32.len(),
        streams: opts.streams,
        miss_rate_bound: opts.miss_rate_bound,
        seed: opts.seed,
        evaluated: cands.len(),
        feasible,
        des_runs: tel.snapshot().counter("tune.des_runs") as usize,
        baseline: cands[baseline_idx].clone(),
        winner,
        ranked,
        config,
        telemetry: tel.snapshot(),
    }
}

// ---------------------------------------------------------------------------
// Online drift detection & recalibration
// ---------------------------------------------------------------------------

/// Parameters of the windowed shift detector.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Observations per window; the detector compares consecutive window
    /// means.
    pub window: usize,
    /// A window mean beyond `baseline × ratio` (or under `baseline ÷ ratio`)
    /// is a regime shift.
    pub ratio: f64,
    /// Observations ignored after a detection, letting the recalibrated
    /// pipeline settle before the detector re-arms.
    pub cooldown: usize,
    /// Floor applied to the baseline and the window mean before the ratio
    /// test, so near-zero levels (a perfectly clean background) don't turn
    /// sensor noise into detections.
    pub floor: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 240,
            ratio: 3.0,
            cooldown: 480,
            floor: 1e-4,
        }
    }
}

/// Windowed mean-shift detector over a telemetry series (the RT engine
/// feeds it per-frame SDD distances). Pure and allocation-free: feed
/// observations, get `true` on the window boundary where a regime shift is
/// declared. The baseline tracks benign drift with a slow EMA so gradual
/// change never fires; a step beyond `ratio` does.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    baseline: Option<f64>,
    sum: f64,
    count: usize,
    cooldown_left: usize,
    detections: u64,
}

impl DriftDetector {
    pub fn new(cfg: DriftConfig) -> Self {
        assert!(cfg.window > 0, "window must be positive");
        assert!(cfg.ratio > 1.0, "ratio must exceed 1");
        DriftDetector {
            cfg,
            baseline: None,
            sum: 0.0,
            count: 0,
            cooldown_left: 0,
            detections: 0,
        }
    }

    /// Regime shifts declared so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Feed one observation; `true` iff this observation completed a window
    /// whose mean sits beyond the ratio band around the baseline. On
    /// detection the baseline re-anchors to the shifted window's mean and
    /// the detector goes quiet for `cooldown` observations.
    pub fn observe(&mut self, value: f64) -> bool {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return false;
        }
        self.sum += value;
        self.count += 1;
        if self.count < self.cfg.window {
            return false;
        }
        let mean = self.sum / self.count as f64;
        self.sum = 0.0;
        self.count = 0;
        match self.baseline {
            None => {
                self.baseline = Some(mean);
                false
            }
            Some(base) => {
                // both sides of the ratio test are floored: two levels under
                // the floor are the same level, whatever their ratio
                let anchor = base.max(self.cfg.floor);
                let level = mean.max(self.cfg.floor);
                if level > anchor * self.cfg.ratio || level < anchor / self.cfg.ratio {
                    self.baseline = Some(mean);
                    self.cooldown_left = self.cfg.cooldown;
                    self.detections += 1;
                    true
                } else {
                    // benign drift: track it slowly instead of firing
                    self.baseline = Some(base * 0.9 + mean * 0.1);
                    false
                }
            }
        }
    }
}

/// Scene-level miss rate of an RT survivor set against a labeled clip,
/// using the same maximal-run scene definition as
/// [`crate::accuracy::evaluate_relaxed`]: scenes are runs of frames the
/// reference model flags (`count ≥ number_of_objects`; 0 = any-motion full
/// capture), a scene is significant when some frame carries that many
/// *complete* target objects, and a significant scene is missed when none
/// of its frames survived.
pub fn scene_miss_from_survivors(
    clip: &[LabeledFrame],
    survivors: &[SurvivingFrame],
    reference: &ReferenceModel,
    target: ObjectClass,
    number_of_objects: usize,
) -> f64 {
    let hit: HashSet<u64> = survivors.iter().map(|s| s.seq).collect();
    let mut significant = 0usize;
    let mut detected = 0usize;
    let mut in_scene = false;
    let mut scene_hit = false;
    let mut scene_sig = false;
    let mut close = |h: bool, s: bool, sig: &mut usize, det: &mut usize| {
        if s {
            *sig += 1;
            if h {
                *det += 1;
            }
        }
    };
    for lf in clip {
        let is_target = reference.count(&lf.truth, target) >= number_of_objects;
        if is_target {
            if !in_scene {
                in_scene = true;
                scene_hit = false;
                scene_sig = false;
            }
            if hit.contains(&lf.frame.seq) {
                scene_hit = true;
            }
            if lf.truth.count_complete(target) >= number_of_objects {
                scene_sig = true;
            }
        } else if in_scene {
            in_scene = false;
            close(scene_hit, scene_sig, &mut significant, &mut detected);
        }
    }
    if in_scene {
        close(scene_hit, scene_sig, &mut significant, &mut detected);
    }
    if significant == 0 {
        0.0
    } else {
        (significant - detected) as f64 / significant as f64
    }
}

/// Before/after accuracy of online recalibration on one (drifting) clip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftAblationReport {
    pub frames: usize,
    /// Regime shifts the recalibrating run declared.
    pub detections: u64,
    pub sdd_rebuilds: u64,
    pub snm_retunes: u64,
    pub static_survivors: usize,
    pub recal_survivors: usize,
    /// Scene miss rate of the static pipeline.
    pub static_miss_rate: f64,
    /// Scene miss rate with online recalibration ([`RtEngine::with_drift`]).
    pub recal_miss_rate: f64,
}

/// Run the same clip through the static pipeline and the recalibrating one
/// and score both against ground truth. The two banks must be identically
/// trained twins (same training clip, same-seeded RNG): each run consumes
/// its bank, so one bank cannot serve both.
pub fn drift_ablation(
    clip: &[LabeledFrame],
    bank_static: FilterBank,
    bank_recal: FilterBank,
    cfg: &FfsVaConfig,
    drift: DriftConfig,
) -> DriftAblationReport {
    assert_eq!(bank_static.target, bank_recal.target, "twin banks required");
    let target = bank_static.target;
    let reference = bank_static.reference.clone();
    let st = RtEngine::new(*cfg, vec![(clip.to_vec(), bank_static)]).run();
    let rc = RtEngine::new(*cfg, vec![(clip.to_vec(), bank_recal)])
        .with_drift(drift)
        .run();
    DriftAblationReport {
        frames: clip.len(),
        detections: rc.telemetry.counter("drift.detections"),
        sdd_rebuilds: rc.telemetry.counter("drift.sdd_rebuilds"),
        snm_retunes: rc.telemetry.counter("drift.snm_retunes"),
        static_survivors: st.survivors[0].len(),
        recal_survivors: rc.survivors[0].len(),
        static_miss_rate: scene_miss_from_survivors(
            clip,
            &st.survivors[0],
            &reference,
            target,
            cfg.number_of_objects,
        ),
        recal_miss_rate: scene_miss_from_survivors(
            clip,
            &rc.survivors[0],
            &reference,
            target,
            cfg.number_of_objects,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_traces(n: usize, target_prob: f32) -> Vec<FrameTrace> {
        (0..n)
            .map(|i| {
                let t = i % 10 == 0;
                FrameTrace {
                    seq: i as u64,
                    pts_ms: i as u64 * 33,
                    sdd_distance: if t { 0.02 } else { 2e-4 },
                    snm_prob: if t { target_prob } else { 0.15 },
                    tyolo_count: u16::from(t),
                    reference_count: u16::from(t),
                    truth_count: u16::from(t),
                    truth_complete: u16::from(t),
                }
            })
            .collect()
    }

    fn input(target_prob: f32) -> TuneInput {
        TuneInput {
            workload: "synth".into(),
            traces_f32: synth_traces(600, target_prob),
            traces_int8: None,
            delta_diff: 1e-3,
            c_low: 0.3,
            c_high: 0.7,
        }
    }

    fn small_opts() -> TuneOptions {
        TuneOptions {
            des_budget: 6,
            streams: 2,
            top_k: 5,
            ..Default::default()
        }
    }

    #[test]
    fn tuner_is_deterministic_and_picks_a_feasible_winner() {
        let inp = input(0.85);
        let opts = small_opts();
        let a = tune(&inp, &opts);
        let b = tune(&inp, &opts);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same input + options must produce a byte-identical report"
        );
        // target frames clear every grid threshold, so everything is
        // feasible and a winner exists
        let w = a.winner.expect("feasible winner");
        assert!(w.scene_miss_rate < opts.miss_rate_bound);
        assert!(w.predicted_fps.is_some());
        assert_eq!(a.evaluated, a.feasible);
        // budget respected on the grid (refinement runs are extra, ≤ 8)
        assert!(a.des_runs <= opts.des_budget + 8 + 1, "{}", a.des_runs);
        assert!(!a.ranked.is_empty() && a.ranked.len() <= opts.top_k);
        // ranked is sorted by predicted FPS
        for pair in a.ranked.windows(2) {
            assert!(pair[0].predicted_fps.unwrap() >= pair[1].predicted_fps.unwrap());
        }
        // the blessed config realizes the winner's knobs
        let cfg = a.config.expect("config for winner");
        assert_eq!(cfg.filter_degree, w.knobs.filter_degree);
        assert_eq!(cfg.batch_policy.size(), w.knobs.batch_size);
        assert_eq!(cfg.num_tyolo, w.knobs.num_tyolo);
        assert_eq!(cfg.snm_precision, w.knobs.snm_precision);
        assert_eq!(
            cfg.number_of_objects,
            opts.number_of_objects.saturating_sub(w.knobs.relax)
        );
        // baseline is always priced
        assert!(a.baseline.predicted_fps.is_some());
        assert_eq!(a.baseline.knobs, TuneKnobs::baseline());
        assert_eq!(a.telemetry.counter("tune.candidates"), a.evaluated as u64);
    }

    #[test]
    fn infeasible_points_are_excluded_from_the_ranking() {
        // target snm_prob 0.5: any FilterDegree above 0.5 resolves to
        // t_pre > 0.5 and drops every target frame ⇒ miss rate 1.0 there
        let inp = input(0.5);
        let opts = small_opts();
        let rep = tune(&inp, &opts);
        assert!(
            rep.feasible < rep.evaluated,
            "some points must be infeasible"
        );
        assert!(rep.feasible > 0, "low FilterDegrees stay feasible");
        let w = rep.winner.expect("winner among feasible");
        assert!(w.scene_miss_rate < opts.miss_rate_bound);
        assert!(w.knobs.filter_degree <= 0.5, "infeasible fd cannot win");
        for c in &rep.ranked {
            assert!(c.feasible);
        }
        assert_eq!(
            rep.telemetry.counter("tune.feasible") + rep.telemetry.counter("tune.infeasible"),
            rep.evaluated as u64
        );
    }

    #[test]
    fn int8_traces_open_the_precision_axis() {
        let mut inp = input(0.85);
        assert_eq!(inp.precisions(), vec![Precision::F32]);
        inp.traces_int8 = Some(inp.traces_f32.clone());
        assert_eq!(inp.precisions(), vec![Precision::F32, Precision::Int8]);
        let rep = tune(&inp, &small_opts());
        // both precisions enumerated: twice the accuracy points
        assert!(rep
            .ranked
            .iter()
            .all(|c| c.feasible && c.predicted_fps.is_some()));
        assert_eq!(
            rep.telemetry.counter("tune.candidates"),
            rep.evaluated as u64
        );
        // both precisions enumerated: twice the single-precision grid of 450
        assert!(rep.evaluated >= 900, "{} evaluated", rep.evaluated);
    }

    #[test]
    fn config_for_folds_relax_into_the_effective_requirement() {
        let inp = input(0.85);
        let opts = TuneOptions {
            number_of_objects: 2,
            ..Default::default()
        };
        let knobs = TuneKnobs {
            relax: 1,
            ..TuneKnobs::baseline()
        };
        let (cfg, th) = config_for(&knobs, &inp, &opts);
        assert_eq!(cfg.number_of_objects, 1);
        assert_eq!(th.number_of_objects, 1);
        // Eq. 2 at the default FilterDegree on the input's band
        assert!((th.t_pre - 0.5).abs() < 1e-6);
        assert!((th.delta_diff - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn drift_detector_ignores_stationary_noise_and_fires_on_steps() {
        let cfg = DriftConfig {
            window: 50,
            ratio: 3.0,
            cooldown: 100,
            floor: 1e-4,
        };
        // stationary: never fires
        let mut det = DriftDetector::new(cfg);
        for i in 0..400 {
            let v = 1e-3 * (1.0 + 0.05 * ((i % 7) as f64 - 3.0));
            assert!(!det.observe(v));
        }
        assert_eq!(det.detections(), 0);

        // a 10× step: exactly one detection, cooldown holds it quiet after
        let mut det = DriftDetector::new(cfg);
        let mut fired = 0;
        for _ in 0..200 {
            if det.observe(1e-3) {
                fired += 1;
            }
        }
        for _ in 0..400 {
            if det.observe(1e-2) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        assert_eq!(det.detections(), 1);
    }

    #[test]
    fn drift_detector_floor_suppresses_near_zero_chatter() {
        let cfg = DriftConfig {
            window: 20,
            ratio: 3.0,
            cooldown: 40,
            floor: 1e-4,
        };
        let mut det = DriftDetector::new(cfg);
        // both regimes sit far below the floor: 5× relative jump, absolute
        // noise — must not fire
        for _ in 0..100 {
            assert!(!det.observe(1e-7));
        }
        for _ in 0..100 {
            assert!(!det.observe(5e-7));
        }
        assert_eq!(det.detections(), 0);
    }

    #[test]
    fn drift_detector_tracks_benign_drift_without_firing() {
        let cfg = DriftConfig {
            window: 20,
            ratio: 3.0,
            cooldown: 40,
            floor: 1e-4,
        };
        let mut det = DriftDetector::new(cfg);
        // 1 % growth per window: each window mean stays well inside the
        // ratio band of the (EMA-tracked) baseline even as the level
        // eventually doubles
        let mut level = 1e-3f64;
        for i in 0..2000 {
            assert!(!det.observe(level), "fired at obs {}", i);
            if i % 20 == 19 {
                level *= 1.01;
            }
        }
        assert_eq!(det.detections(), 0);
    }
}

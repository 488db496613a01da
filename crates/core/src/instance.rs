//! Instance-level management (§4.3.1, final paragraphs): finding how many
//! live streams one FFS-VA instance sustains, admission of new streams when
//! the shared T-YOLO has spare capacity, and re-forwarding streams from an
//! overloaded instance to one with headroom.

use crate::config::FfsVaConfig;
use crate::sim::{Engine, Mode, SimResult, StreamInput};
use ffsva_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// Admission signal (§4.3.1): the instance has spare capacity when the
/// shared T-YOLO runs below the admission rate (e.g. 140 FPS) — it is not
/// receiving enough work to be the bottleneck.
pub fn has_spare_capacity(result: &SimResult, cfg: &FfsVaConfig) -> bool {
    result.tyolo_fps < cfg.admission_tyolo_fps && result.realtime(cfg.online_fps)
}

/// Overload signal: some stream could not be served in real time.
pub fn is_overloaded(result: &SimResult, cfg: &FfsVaConfig) -> bool {
    !result.realtime(cfg.online_fps)
}

/// Find the maximum number of concurrent online streams the instance
/// sustains in real time, by doubling then binary-searching over stream
/// counts.
///
/// `make_inputs` is invoked **exactly once**, with `upper_bound`, and every
/// probe at `n` simulates the first `n` of those inputs. This makes the
/// search deterministic for any builder — seeded, stateful, or otherwise:
/// the input set cannot drift between probe steps (the old behaviour
/// rebuilt inputs from scratch at every step, so a builder advancing an RNG
/// or counter across calls would hand different workloads to different
/// probes of the same search). It also means the builder must produce its
/// streams position-independently: input `i` is the same stream whether 3
/// or 300 are ultimately probed, which holds for every in-tree builder
/// (`tile_inputs` rotations depend only on the index).
pub fn find_max_online_streams(
    cfg: &FfsVaConfig,
    mut make_inputs: impl FnMut(usize) -> Vec<StreamInput>,
    upper_bound: usize,
) -> usize {
    if upper_bound == 0 {
        return 0;
    }
    let pool = make_inputs(upper_bound);
    max_sustained(upper_bound.min(pool.len()), |n| {
        Engine::new(*cfg, Mode::Online, pool[..n].to_vec())
            .run()
            .realtime(cfg.online_fps)
    })
}

/// The largest `n` in `1..=upper_bound` for which `ok(n)` holds (0 when not
/// even one stream does), for an `ok` that holds up to some capacity and
/// fails beyond it: doubling, then bisection.
pub(crate) fn max_sustained(upper_bound: usize, ok: impl Fn(usize) -> bool) -> usize {
    if upper_bound == 0 || !ok(1) {
        return 0;
    }
    let mut lo = 1usize;
    let mut hi = 2usize;
    while hi <= upper_bound && ok(hi) {
        lo = hi;
        hi *= 2;
    }
    let mut hi = hi.min(upper_bound + 1);
    // the capacity is in [lo, hi)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// OS threads one FFS-VA process can realistically dedicate to pipeline
/// stages before scheduler churn and stack memory dominate.
pub const DEFAULT_THREAD_BUDGET: usize = 256;

/// Workers per stage pool once a dedicated worker per stream no longer fits
/// [`DEFAULT_THREAD_BUDGET`].
const SHARED_STAGE_WORKERS: usize = 8;

/// Workers the RT engine gives its SDD pool, and its SNM pool, for `n`
/// streams: `n` — a dedicated worker per stream that blocks on its queue,
/// §3.1.2's thread per filter — while the dedicated demand `3 n + 1` (SDD
/// worker, SNM worker and reference thread per stream, plus the shared
/// T-YOLO) fits [`DEFAULT_THREAD_BUDGET`]; a fixed few sweeping every
/// stream's slot above that.
pub fn stage_workers(n: usize) -> usize {
    if 3 * n + 1 <= DEFAULT_THREAD_BUDGET {
        n
    } else {
        SHARED_STAGE_WORKERS
    }
}

/// Threads the RT engine needs to host `n` concurrent streams: the two stage
/// pools' workers, a reference-stage thread per stream, and the one shared
/// T-YOLO thread. Feeder/ingest threads are workload-shaped and left out of
/// the model.
pub fn threads_for_streams(n: usize) -> usize {
    2 * stage_workers(n) + n + 1
}

/// The largest stream count whose thread demand fits
/// [`DEFAULT_THREAD_BUDGET`] — the instance's structural stream ceiling.
pub fn max_streams_by_threads() -> usize {
    DEFAULT_THREAD_BUDGET - (2 * SHARED_STAGE_WORKERS + 1)
}

/// Where a newly offered stream ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Admitted onto the given instance.
    Admitted { instance: usize },
    /// No instance can serve it in real time; the operator must add capacity.
    Rejected,
}

/// How long a live T-YOLO measurement keeps steering admission before it
/// is considered stale and decisions fall back to simulation. A dead
/// instance stops reporting; its last-good reading must not keep admitting
/// streams onto it forever.
pub const DEFAULT_MEASUREMENT_MAX_AGE_S: f64 = 30.0;

/// A stateful admission controller over a fleet of FFS-VA instances
/// (§4.3.1): new streams are admitted onto an instance only when its shared
/// T-YOLO shows spare capacity *and* the instance stays real-time with the
/// newcomer; otherwise other instances are tried, and the stream is rejected
/// if none can take it.
pub struct AdmissionController {
    cfg: FfsVaConfig,
    instances: Vec<Vec<StreamInput>>,
    /// Live T-YOLO throughput per instance as `(fps, taken_at_s)` on the
    /// controller clock, fed from running-engine telemetry via
    /// [`AdmissionController::observe_telemetry`]. `None` means no live
    /// measurement yet; measurements older than `measurement_max_age_s`
    /// are ignored — either way decisions fall back to simulation.
    measured_tyolo_fps: Vec<Option<(f64, f64)>>,
    /// Instances currently accepting placements. A dead instance is
    /// skipped by every admission path until marked alive again.
    alive: Vec<bool>,
    /// The controller's notion of now (seconds); advanced by the owner via
    /// [`AdmissionController::advance_clock`] as real or virtual time
    /// passes. Measurement ages are computed against this clock.
    clock_s: f64,
    measurement_max_age_s: f64,
    /// Per instance, whether its streams alone leave spare capacity
    /// ([`has_spare_capacity`] of the resident-only simulation), once known
    /// for the current membership; `None` after any change to it.
    spare: Vec<Option<bool>>,
}

impl AdmissionController {
    /// A controller over `n_instances` instances. Zero instances is a valid
    /// (degenerate) fleet: every offer is rejected until capacity is added.
    pub fn new(cfg: FfsVaConfig, n_instances: usize) -> Self {
        AdmissionController {
            cfg,
            instances: vec![Vec::new(); n_instances],
            measured_tyolo_fps: vec![None; n_instances],
            alive: vec![true; n_instances],
            clock_s: 0.0,
            measurement_max_age_s: DEFAULT_MEASUREMENT_MAX_AGE_S,
            spare: vec![None; n_instances],
        }
    }

    /// Builder-style: override the staleness window for live measurements.
    pub fn with_measurement_max_age(mut self, max_age_s: f64) -> Self {
        self.measurement_max_age_s = max_age_s.max(0.0);
        self
    }

    /// Advance the controller clock (seconds of real or virtual time).
    pub fn advance_clock(&mut self, dt_s: f64) {
        if dt_s > 0.0 {
            self.clock_s += dt_s;
        }
    }

    /// The controller's current clock reading (seconds).
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Streams currently placed on each instance.
    pub fn loads(&self) -> Vec<usize> {
        self.instances.iter().map(|v| v.len()).collect()
    }

    /// Mark an instance dead (no placements, its measurements are void) or
    /// alive again. Out-of-range indices are ignored.
    pub fn set_alive(&mut self, instance: usize, alive: bool) {
        if instance < self.alive.len() {
            self.alive[instance] = alive;
            self.spare[instance] = None;
            if !alive {
                self.measured_tyolo_fps[instance] = None;
            }
        }
    }

    /// Whether an instance currently accepts placements.
    pub fn is_alive(&self, instance: usize) -> bool {
        self.alive.get(instance).copied().unwrap_or(false)
    }

    /// Replace the stream set the controller models for `instance` — the
    /// cluster control plane re-syncs each instance's *remaining* work
    /// every epoch so what-if probes price the future, not the past.
    pub fn set_streams(&mut self, instance: usize, streams: Vec<StreamInput>) {
        if instance < self.instances.len() {
            self.instances[instance] = streams;
            self.spare[instance] = None;
        }
    }

    /// Fold a live telemetry snapshot from `instance`'s running engine into
    /// admission decisions: the measured shared-T-YOLO rate replaces the
    /// simulated spare-capacity probe for that instance (§4.3.1's "T-YOLO
    /// speed" signal, measured rather than predicted). `wall_s` is the
    /// window the snapshot covers. The measurement is stamped with the
    /// controller clock and expires after `measurement_max_age_s`.
    pub fn observe_telemetry(&mut self, instance: usize, snap: &TelemetrySnapshot, wall_s: f64) {
        if instance >= self.measured_tyolo_fps.len() || wall_s <= 0.0 {
            return;
        }
        let tyolo_in = snap.stage_total("tyolo", "frames_in");
        self.measured_tyolo_fps[instance] = Some((tyolo_in as f64 / wall_s, self.clock_s));
    }

    /// The live T-YOLO rate still fresh enough to steer admission for one
    /// instance, if any.
    fn live_rate(&self, instance: usize) -> Option<f64> {
        let (fps, taken_at) = self.measured_tyolo_fps[instance]?;
        if self.clock_s - taken_at > self.measurement_max_age_s {
            return None;
        }
        Some(fps)
    }

    /// The live T-YOLO rates currently informing admission, per instance.
    /// Stale measurements show up as `None`, exactly as admission sees them.
    pub fn measured_rates(&self) -> Vec<Option<f64>> {
        (0..self.measured_tyolo_fps.len())
            .map(|i| self.live_rate(i))
            .collect()
    }

    fn simulate(&self, instance: usize, extra: Option<&StreamInput>) -> Option<SimResult> {
        let mut inputs = self.instances[instance].clone();
        if let Some(e) = extra {
            inputs.push(e.clone());
        }
        if inputs.is_empty() {
            return None;
        }
        Some(Engine::new(self.cfg, Mode::Online, inputs).run())
    }

    /// The what-if result of `instance` with `stream` added, when it could
    /// take it right now: alive, measured T-YOLO (if fresh) below the
    /// admission rate, spare capacity as it stands, and real-time with the
    /// newcomer.
    fn probe(&mut self, instance: usize, stream: &StreamInput) -> Option<SimResult> {
        if instance >= self.instances.len() || !self.alive[instance] {
            return None;
        }
        // Fast reject on live telemetry: an instance whose *measured*
        // shared T-YOLO already runs at or above the admission rate has no
        // spare capacity, whatever the simulation would predict. Stale
        // measurements no longer apply — a silent instance falls back to
        // the simulated probes below.
        if let Some(fps) = self.live_rate(instance) {
            if fps >= self.cfg.admission_tyolo_fps {
                return None;
            }
        }
        // Fast reject: if the instance already shows no spare capacity,
        // skip the what-if (§4.3.1's T-YOLO speed signal). Simulated once
        // per membership.
        if self.spare[instance].is_none() {
            let alone = self.simulate(instance, None);
            self.spare[instance] = Some(alone.is_none_or(|r| has_spare_capacity(&r, &self.cfg)));
        }
        if self.spare[instance] == Some(false) {
            return None;
        }
        // What-if: does the instance stay real-time with the newcomer?
        self.simulate(instance, Some(stream))
            .filter(|r| r.realtime(self.cfg.online_fps))
    }

    /// Whether `instance` could take `stream` right now. This is
    /// [`try_place`] without mutating the load model.
    ///
    /// [`try_place`]: AdmissionController::try_place
    pub fn can_place(&mut self, instance: usize, stream: &StreamInput) -> bool {
        self.probe(instance, stream).is_some()
    }

    /// Place `stream` on `instance` if it can take it right now (see
    /// [`can_place`]). The admitting what-if simulated exactly the new
    /// membership, so its verdict is that membership's spare capacity: the
    /// next probe of this instance does not simulate it again.
    ///
    /// [`can_place`]: AdmissionController::can_place
    pub fn try_place(&mut self, instance: usize, stream: &StreamInput) -> bool {
        let Some(r) = self.probe(instance, stream) else {
            return false;
        };
        self.instances[instance].push(stream.clone());
        self.spare[instance] = Some(has_spare_capacity(&r, &self.cfg));
        true
    }

    /// Record that `stream` now runs on `instance` (a directed placement
    /// the caller already decided).
    pub fn place(&mut self, instance: usize, stream: StreamInput) {
        if instance < self.instances.len() {
            self.instances[instance].push(stream);
            self.spare[instance] = None;
        }
    }

    /// Offer a new stream to the fleet. Live instances are tried in order
    /// of current load (least-loaded first, the natural spare-capacity
    /// probe); the first that remains real-time with the newcomer admits it.
    pub fn try_admit(&mut self, stream: StreamInput) -> Placement {
        let mut order: Vec<usize> = (0..self.instances.len())
            .filter(|&i| self.alive[i])
            .collect();
        order.sort_by_key(|&i| self.instances[i].len());
        match order.into_iter().find(|&i| self.try_place(i, &stream)) {
            Some(instance) => Placement::Admitted { instance },
            None => Placement::Rejected,
        }
    }

    /// Dismantle the controller into its per-instance stream sets.
    pub fn into_instances(self) -> Vec<Vec<StreamInput>> {
        self.instances
    }
}

/// Outcome of a multi-instance balancing pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BalanceOutcome {
    /// Stream → instance assignment after re-forwarding.
    pub assignment: Vec<usize>,
    /// Streams moved by re-forwarding.
    pub reforwarded: usize,
    /// Whether every instance ended up real-time.
    pub all_realtime: bool,
}

/// Distribute streams across `n_instances` FFS-VA instances and re-forward
/// streams away from overloaded instances to ones with spare capacity
/// (§4.3.1: "the corresponding video stream is re-forwarded to another
/// FFS-VA instance with spare capacity immediately").
pub fn balance_instances(
    cfg: &FfsVaConfig,
    streams: &[StreamInput],
    n_instances: usize,
    max_rounds: usize,
) -> BalanceOutcome {
    let initial: Vec<usize> = (0..streams.len()).map(|i| i % n_instances.max(1)).collect();
    balance_instances_from(cfg, streams, n_instances, max_rounds, initial)
}

/// Like [`balance_instances`], but starting from a given assignment — e.g.
/// the state after a burst of new cameras landed on one instance.
pub fn balance_instances_from(
    cfg: &FfsVaConfig,
    streams: &[StreamInput],
    n_instances: usize,
    max_rounds: usize,
    initial: Vec<usize>,
) -> BalanceOutcome {
    assert_eq!(initial.len(), streams.len(), "assignment arity");
    // Degenerate empty fleet: nothing to move streams between. Real-time
    // only in the vacuous no-streams case; with streams offered there is
    // nowhere to run them, which is an operator problem, not a panic.
    if n_instances == 0 {
        return BalanceOutcome {
            assignment: initial,
            reforwarded: 0,
            all_realtime: streams.is_empty(),
        };
    }
    let mut assignment = initial;
    let mut reforwarded = 0usize;

    let simulate = |assignment: &[usize], inst: usize| -> Option<SimResult> {
        let inputs: Vec<StreamInput> = assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == inst)
            .map(|(i, _)| streams[i].clone())
            .collect();
        if inputs.is_empty() {
            None
        } else {
            Some(Engine::new(*cfg, Mode::Online, inputs).run())
        }
    };
    let overloaded = |r: &Option<SimResult>| r.as_ref().is_some_and(|r| is_overloaded(r, cfg));
    // an empty instance is spare
    let spare = |r: &Option<SimResult>| r.as_ref().is_none_or(|r| has_spare_capacity(r, cfg));

    // Only the two ends of a move change, so each instance's result is
    // kept and re-simulated only when its stream set does.
    let mut results: Vec<Option<SimResult>> =
        (0..n_instances).map(|i| simulate(&assignment, i)).collect();
    for _ in 0..max_rounds {
        let Some(from) = results.iter().position(overloaded) else {
            break;
        };
        // The victim is the highest-pressure stream (largest backlog) on `from`.
        let r_from = results[from].as_ref().expect("overloaded => non-empty");
        let local: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == from)
            .map(|(i, _)| i)
            .collect();
        let worst_local = r_from
            .per_stream_max_backlog
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| b)
            .map(|(k, _)| k)
            .unwrap_or(0);
        let victim = local[worst_local.min(local.len() - 1)];
        // The target is the first instance that shows spare capacity and
        // stays real-time with the victim on it — the
        // what-if `AdmissionController::can_place` runs. Spare capacity
        // alone is not enough: below the T-YOLO admission rate it only says
        // "real-time now", which an instance at exactly its capacity is.
        let target = (0..n_instances)
            .filter(|&to| to != from && spare(&results[to]))
            .find_map(|to| {
                assignment[victim] = to;
                let r = simulate(&assignment, to).expect("holds the victim");
                r.realtime(cfg.online_fps).then_some((to, r))
            });
        let Some((to, with_victim)) = target else {
            assignment[victim] = from;
            break;
        };
        results[to] = Some(with_victim);
        results[from] = simulate(&assignment, from);
        reforwarded += 1;
    }

    BalanceOutcome {
        assignment,
        reforwarded,
        all_realtime: !results.iter().any(overloaded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamThresholds;
    use ffsva_models::FrameTrace;

    fn synthetic_input(n: usize, target_every: usize) -> StreamInput {
        let traces = (0..n)
            .map(|i| {
                let target = target_every > 0 && i % target_every == 0;
                FrameTrace {
                    seq: i as u64,
                    pts_ms: (i as u64) * 33,
                    sdd_distance: if target { 0.01 } else { 0.0001 },
                    snm_prob: if target { 0.9 } else { 0.05 },
                    tyolo_count: if target { 1 } else { 0 },
                    reference_count: if target { 1 } else { 0 },
                    truth_count: if target { 1 } else { 0 },
                    truth_complete: if target { 1 } else { 0 },
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

    #[test]
    fn max_streams_is_much_higher_at_low_tor() {
        let cfg = FfsVaConfig::default();
        let lo = find_max_online_streams(
            &cfg,
            |n| (0..n).map(|_| synthetic_input(400, 10)).collect(),
            64,
        );
        let hi = find_max_online_streams(
            &cfg,
            |n| (0..n).map(|_| synthetic_input(400, 1)).collect(),
            64,
        );
        assert!(lo >= 15, "low-TOR max streams {}", lo);
        assert!(hi <= 8, "TOR-1 max streams {}", hi);
        assert!(lo > 2 * hi, "lo {} hi {}", lo, hi);
    }

    #[test]
    fn spare_capacity_detected_on_light_load() {
        let cfg = FfsVaConfig::default();
        let r = Engine::new(cfg, Mode::Online, vec![synthetic_input(400, 10)]).run();
        assert!(has_spare_capacity(&r, &cfg));
        assert!(!is_overloaded(&r, &cfg));
    }

    #[test]
    fn admission_controller_fills_then_rejects() {
        let cfg = FfsVaConfig::default();
        // capacity of one instance for this synthetic workload
        let capacity = find_max_online_streams(
            &cfg,
            |n| (0..n).map(|_| synthetic_input(400, 3)).collect(),
            64,
        );
        assert!(capacity >= 2, "capacity {}", capacity);

        let mut ctl = AdmissionController::new(cfg, 1);
        let mut admitted = 0usize;
        let mut rejected = false;
        for _ in 0..capacity + 3 {
            match ctl.try_admit(synthetic_input(400, 3)) {
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
        assert!(rejected, "controller must eventually refuse");
        // the controller's what-if admission lands within one stream of the
        // binary-search capacity
        assert!(
            (admitted as i64 - capacity as i64).abs() <= 1,
            "admitted {} vs capacity {}",
            admitted,
            capacity
        );
    }

    #[test]
    fn admission_controller_spreads_over_instances() {
        let cfg = FfsVaConfig::default();
        let mut ctl = AdmissionController::new(cfg, 2);
        for _ in 0..6 {
            let p = ctl.try_admit(synthetic_input(300, 4));
            assert!(matches!(p, Placement::Admitted { .. }));
        }
        let loads = ctl.loads();
        assert_eq!(loads.iter().sum::<usize>(), 6);
        // least-loaded-first keeps the split even
        assert_eq!(loads[0], 3);
        assert_eq!(loads[1], 3);
    }

    #[test]
    fn find_max_is_deterministic_with_a_stateful_builder() {
        let cfg = FfsVaConfig::default();
        // A builder that would drift if invoked once per probe step: it
        // advances a counter across *calls*, so a second invocation would
        // produce different (heavier) streams. The search must call it
        // exactly once and probe prefixes of that one input set.
        let run = || {
            let mut calls = 0usize;
            let n_streams = find_max_online_streams(
                &cfg,
                |n| {
                    calls += 1;
                    // stream i is the same whatever n is (prefix-stable) …
                    (0..n)
                        .map(|_| synthetic_input(400, 3 + calls - 1))
                        .collect()
                    // … but a second call would use target_every=4, a
                    // different workload entirely.
                },
                64,
            );
            (n_streams, calls)
        };
        let (a, calls_a) = run();
        let (b, calls_b) = run();
        assert_eq!(calls_a, 1, "builder must be invoked exactly once");
        assert_eq!(calls_b, 1);
        assert_eq!(a, b, "same seed, same count: {} vs {}", a, b);
        assert!(a >= 1);
    }

    #[test]
    fn find_max_handles_degenerate_bounds() {
        let cfg = FfsVaConfig::default();
        assert_eq!(
            find_max_online_streams(
                &cfg,
                |n| (0..n).map(|_| synthetic_input(400, 10)).collect(),
                0
            ),
            0
        );
        // builder returning fewer inputs than requested clamps the search
        assert!(find_max_online_streams(&cfg, |_| vec![synthetic_input(400, 10)], 64) <= 1);
    }

    #[test]
    fn zero_instance_controller_rejects_without_panicking() {
        let cfg = FfsVaConfig::default();
        let mut ctl = AdmissionController::new(cfg, 0);
        assert!(ctl.loads().is_empty());
        assert_eq!(ctl.try_admit(synthetic_input(300, 4)), Placement::Rejected);
        assert!(ctl.into_instances().is_empty());
    }

    #[test]
    fn all_overloaded_fleet_rejects_newcomers() {
        let cfg = FfsVaConfig::default();
        let mut ctl = AdmissionController::new(cfg, 2);
        // Saturate both instances with TOR-1 streams (every frame matters),
        // then verify the next offer is refused by every instance.
        let mut rejected = false;
        for _ in 0..64 {
            if ctl.try_admit(synthetic_input(400, 1)) == Placement::Rejected {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "fleet must saturate within the offer budget");
        assert_eq!(ctl.try_admit(synthetic_input(400, 1)), Placement::Rejected);
        // both instances actually carry load — the rejection is a true
        // all-overloaded verdict, not an empty-fleet artifact
        assert!(
            ctl.loads().iter().all(|&l| l > 0),
            "loads {:?}",
            ctl.loads()
        );
    }

    #[test]
    fn live_telemetry_overrides_simulated_spare_capacity() {
        use ffsva_telemetry::Telemetry;

        let cfg = FfsVaConfig::default();
        let mut ctl = AdmissionController::new(cfg, 2);
        // One light stream per instance, so the fleet is tied on load and
        // the next offer would land on instance 0 by index order.
        assert_eq!(
            ctl.try_admit(synthetic_input(300, 10)),
            Placement::Admitted { instance: 0 }
        );
        assert_eq!(
            ctl.try_admit(synthetic_input(300, 10)),
            Placement::Admitted { instance: 1 }
        );
        // Live telemetry says instance 0's shared T-YOLO is already at the
        // admission rate: 1500 frames over 10 s ≥ 140 FPS.
        let tel = Telemetry::new();
        tel.counter("stream0.tyolo.frames_in").add(1500);
        ctl.observe_telemetry(0, &tel.snapshot(), 10.0);
        assert!(ctl.measured_rates()[0].unwrap() >= cfg.admission_tyolo_fps);
        let p = ctl.try_admit(synthetic_input(300, 10));
        assert_eq!(
            p,
            Placement::Admitted { instance: 1 },
            "measured overload must steer admission to the other instance"
        );
        // A fresh (cheap) measurement releases the instance again.
        let tel2 = Telemetry::new();
        tel2.counter("stream0.tyolo.frames_in").add(100);
        ctl.observe_telemetry(0, &tel2.snapshot(), 10.0);
        assert!(ctl.measured_rates()[0].unwrap() < cfg.admission_tyolo_fps);
        // out-of-range instance and zero wall are ignored, not panics
        ctl.observe_telemetry(99, &tel2.snapshot(), 10.0);
        ctl.observe_telemetry(0, &tel2.snapshot(), 0.0);
    }

    #[test]
    fn stale_measurements_expire_and_admission_falls_back_to_simulation() {
        use ffsva_telemetry::Telemetry;

        let cfg = FfsVaConfig::default();
        let mut ctl = AdmissionController::new(cfg, 1).with_measurement_max_age(5.0);
        // A hot reading pins the only instance shut even though simulation
        // would admit: the fleet rejects on live telemetry alone.
        let tel = Telemetry::new();
        tel.counter("stream0.tyolo.frames_in").add(1500);
        ctl.observe_telemetry(0, &tel.snapshot(), 10.0);
        assert!(ctl.measured_rates()[0].unwrap() >= cfg.admission_tyolo_fps);
        assert_eq!(ctl.try_admit(synthetic_input(300, 10)), Placement::Rejected);
        // Time passes with no fresh report (the engine died or went
        // silent): the measurement must expire, not steer forever.
        ctl.advance_clock(6.0);
        assert_eq!(ctl.clock_s(), 6.0);
        assert_eq!(ctl.measured_rates()[0], None, "stale reading must be void");
        assert_eq!(
            ctl.try_admit(synthetic_input(300, 10)),
            Placement::Admitted { instance: 0 },
            "with the stale reading expired, the simulated probe admits"
        );
        // A reading exactly at the window edge is still fresh.
        ctl.observe_telemetry(0, &tel.snapshot(), 10.0);
        ctl.advance_clock(5.0);
        assert!(ctl.measured_rates()[0].is_some());
        // negative clock advances are ignored
        ctl.advance_clock(-100.0);
        assert_eq!(ctl.clock_s(), 11.0);
    }

    #[test]
    fn dead_instances_take_no_placements_until_revived() {
        let cfg = FfsVaConfig::default();
        let mut ctl = AdmissionController::new(cfg, 2);
        ctl.set_alive(0, false);
        assert!(!ctl.is_alive(0));
        assert!(ctl.is_alive(1));
        for _ in 0..3 {
            match ctl.try_admit(synthetic_input(300, 10)) {
                Placement::Admitted { instance } => assert_eq!(instance, 1),
                Placement::Rejected => panic!("instance 1 has room"),
            }
        }
        assert_eq!(ctl.loads(), vec![0, 3]);
        assert!(!ctl.can_place(0, &synthetic_input(300, 10)));
        assert!(ctl.can_place(1, &synthetic_input(300, 10)));
        // revive and the instance serves again
        ctl.set_alive(0, true);
        assert!(ctl.can_place(0, &synthetic_input(300, 10)));
        assert_eq!(
            ctl.try_admit(synthetic_input(300, 10)),
            Placement::Admitted { instance: 0 }
        );
        // directed placement and load-model resync
        ctl.place(0, synthetic_input(300, 10));
        assert_eq!(ctl.loads(), vec![2, 3]);
        ctl.set_streams(1, vec![synthetic_input(300, 10)]);
        assert_eq!(ctl.loads(), vec![2, 1]);
        // out-of-range indices are ignored, not panics
        ctl.set_alive(9, false);
        ctl.place(9, synthetic_input(300, 10));
        ctl.set_streams(9, Vec::new());
        assert!(!ctl.can_place(9, &synthetic_input(300, 10)));
        assert!(!ctl.is_alive(9));
    }

    #[test]
    fn balance_handles_empty_fleet_gracefully() {
        let cfg = FfsVaConfig::default();
        // no instances, no streams: vacuously balanced
        let out = balance_instances_from(&cfg, &[], 0, 8, vec![]);
        assert!(out.all_realtime);
        assert_eq!(out.reforwarded, 0);
        assert!(out.assignment.is_empty());
        // no instances but streams offered: nowhere to run them
        let streams = vec![synthetic_input(200, 10)];
        let out = balance_instances_from(&cfg, &streams, 0, 8, vec![0]);
        assert!(!out.all_realtime);
        assert_eq!(out.reforwarded, 0);
        assert_eq!(out.assignment, vec![0]);
        let out = balance_instances(&cfg, &[], 0, 8);
        assert!(out.all_realtime);
    }

    #[test]
    fn balance_single_instance_never_reforwards() {
        let cfg = FfsVaConfig::default();
        // light load: one instance is balanced with itself
        let streams: Vec<StreamInput> = (0..2).map(|_| synthetic_input(200, 10)).collect();
        let out = balance_instances_from(&cfg, &streams, 1, 8, vec![0, 0]);
        assert!(out.all_realtime);
        assert_eq!(out.reforwarded, 0);
        assert_eq!(out.assignment, vec![0, 0]);
        // overload with nowhere to go: must terminate without moving
        let heavy: Vec<StreamInput> = (0..24).map(|_| synthetic_input(300, 1)).collect();
        let out = balance_instances_from(&cfg, &heavy, 1, 8, vec![0; 24]);
        assert_eq!(out.reforwarded, 0, "single instance has no target");
        assert!(out.assignment.iter().all(|&a| a == 0));
    }

    fn on_instance(streams: &[StreamInput], assignment: &[usize], inst: usize) -> Vec<StreamInput> {
        (0..streams.len())
            .filter(|&i| assignment[i] == inst)
            .map(|i| streams[i].clone())
            .collect()
    }

    #[test]
    fn pile_up_on_one_instance_converges_without_overloading_a_target() {
        let cfg = FfsVaConfig::default();
        // one instance serves 5 of these in real time, not 6: 12 piled on
        // instance 0 need 7 moves, and 5/5/2 is the first feasible split
        let streams: Vec<StreamInput> = (0..12).map(|_| synthetic_input(300, 2)).collect();
        let initial = vec![0usize; 12];
        let out = balance_instances_from(&cfg, &streams, 3, 48, initial.clone());
        assert!(out.reforwarded <= 10, "{} moves", out.reforwarded);
        assert!(out.all_realtime, "assignment {:?}", out.assignment);
        assert_eq!(out.assignment.len(), 12);
        // no stream is moved twice: every move is one assignment change
        let changed = (0..12).filter(|&i| out.assignment[i] != initial[i]).count();
        assert_eq!(changed, out.reforwarded);
        let mut placed = 0;
        for inst in 0..3 {
            let local = on_instance(&streams, &out.assignment, inst);
            placed += local.len();
            let r = Engine::new(cfg, Mode::Online, local).run();
            assert!(!is_overloaded(&r, &cfg), "instance {} overloaded", inst);
        }
        assert_eq!(placed, 12, "assignment {:?}", out.assignment);
    }

    #[test]
    fn no_feasible_target_moves_nothing() {
        let cfg = FfsVaConfig::default();
        // instance 0 is overloaded (7), instance 1 is real-time (5) and so
        // shows "spare capacity", but a sixth stream would overload it
        let streams: Vec<StreamInput> = (0..12).map(|_| synthetic_input(300, 2)).collect();
        let initial: Vec<usize> = (0..12).map(|i| usize::from(i >= 7)).collect();
        let full = Engine::new(cfg, Mode::Online, on_instance(&streams, &initial, 1)).run();
        assert!(has_spare_capacity(&full, &cfg));
        let out = balance_instances_from(&cfg, &streams, 2, 48, initial.clone());
        assert_eq!(out.reforwarded, 0);
        assert_eq!(out.assignment, initial);
        assert!(!out.all_realtime);
    }

    #[test]
    fn stage_workers_are_dedicated_while_they_fit_the_thread_budget() {
        // 3 n + 1 <= 256 up to n = 85: a worker per stream per stage
        assert_eq!(stage_workers(1), 1);
        assert_eq!(stage_workers(30), 30, "the paper's instance");
        assert_eq!(stage_workers(85), 85);
        assert_eq!(threads_for_streams(85), DEFAULT_THREAD_BUDGET);
        // above that, 8 + 8 shared workers and only the reference per stream
        assert_eq!(stage_workers(86), 8);
        let ceiling = max_streams_by_threads();
        assert_eq!(ceiling, 239);
        for n in 1..=ceiling {
            assert!(threads_for_streams(n) <= DEFAULT_THREAD_BUDGET, "n = {n}");
        }
        assert!(threads_for_streams(ceiling + 1) > DEFAULT_THREAD_BUDGET);
    }

    #[test]
    fn balancing_fixes_a_skewed_assignment() {
        let cfg = FfsVaConfig::default();
        // 12 heavy streams; one instance alone would be overloaded, three
        // instances can absorb them.
        let streams: Vec<StreamInput> = (0..12).map(|_| synthetic_input(300, 2)).collect();
        let out = balance_instances(&cfg, &streams, 3, 24);
        assert!(out.all_realtime, "assignment {:?}", out.assignment);
        // all three instances used
        for inst in 0..3 {
            assert!(out.assignment.contains(&inst));
        }
    }
}

//! The four workloads: set-up, one timed repetition of each engine, and the
//! correctness accounting every repetition feeds.

use crate::inputs::{
    clone_bank, expected_survivors, renumber, renumbered, rotate, set_up_camera, start_offset,
    survivor_diff, tile_fleet, Camera, Scene,
};
use crate::procfs::process_cpu_s;
use crate::spans::Spans;
use ffsva_core::{
    run_multi_pipeline_rt, Cluster, ClusterConfig, ClusterFaultPlan, ClusterReport, Engine,
    FfsVaConfig, Mode, MultiRtResult, SimResult, StreamInput, StreamOutcome,
};
use ffsva_video::LabeledFrame;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A stream's cascade may miss at most this share of significant scenes.
pub const MAX_SCENE_MISS_RATE: f64 = 0.02;
/// Pixel frames per stream per RT repetition.
pub const RT_FRAMES: usize = 1500;
/// Trace frames per stream in the DES fleet and the cluster.
pub const FLEET_FRAMES: usize = 3000;
pub const FLEET_STREAMS: usize = 30;
/// Every 5th fleet stream is dense: 24 sparse + 6 dense.
pub const FLEET_DENSE_EVERY: usize = 5;
pub const CLUSTER_STREAMS: usize = 12;
/// Every 4th cluster stream is dense: 9 sparse + 3 dense.
pub const CLUSTER_DENSE_EVERY: usize = 4;
pub const CLUSTER_INSTANCES: usize = 3;
pub const CLUSTER_EPOCH_FRAMES: u64 = 150;
/// Instance 0 dies half-way through its streams.
pub const CLUSTER_FAULT: &str = "instance0:crash@1500";
/// The one sparse and the one dense camera every trace-driven fleet is tiled
/// from, whichever workload asks: a traced `rt_dense` run prices the same
/// feasible fleet and cluster as `des_fleet` and `cluster_failover` do (twelve
/// dense offers would be refused admission).
const FLEET_CAMERAS: [(Scene, usize); 2] = [(Scene::Sparse, 0), (Scene::Dense, 0)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RtSparse,
    RtDense,
    DesFleet,
    ClusterFailover,
}

/// Which engine a workload times; `trace` drives all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Rt,
    Des,
    Cluster,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RtSparse,
        Workload::RtDense,
        Workload::DesFleet,
        Workload::ClusterFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RtSparse => "rt_sparse",
            Workload::RtDense => "rt_dense",
            Workload::DesFleet => "des_fleet",
            Workload::ClusterFailover => "cluster_failover",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Workload::RtSparse | Workload::RtDense => EngineKind::Rt,
            Workload::DesFleet => EngineKind::Des,
            Workload::ClusterFailover => EngineKind::Cluster,
        }
    }

    /// The two cameras whose pixels the workload's RT streams (and, in a
    /// traced run, the kernel and model probes) are cut from: scene and
    /// camera number.
    fn rt_cameras(self) -> [(Scene, usize); 2] {
        match self {
            Workload::RtSparse => [(Scene::Sparse, 0), (Scene::Sparse, 1)],
            Workload::RtDense => [(Scene::Dense, 0), (Scene::Dense, 1)],
            Workload::DesFleet | Workload::ClusterFailover => FLEET_CAMERAS,
        }
    }

    /// Timed repetitions in a run of `RUN_SECONDS`: fixed counts, so both
    /// sides of a comparison repeat the same work whatever their speed.
    /// Sized at the parent commit on a 2-core box to fill the run's seconds.
    fn base_reps(self) -> usize {
        match self {
            Workload::RtSparse => 30,
            Workload::RtDense => 12,
            Workload::DesFleet => 38,
            Workload::ClusterFailover => 16,
        }
    }

    /// Timed repetitions for a run of `seconds`: `base_reps` scaled, so
    /// `--seconds 36` gives the 30–45 s phase ISSUE 11 describes.
    pub fn reps(self, seconds: f64) -> usize {
        let scaled = self.base_reps() as f64 * seconds / crate::RUN_SECONDS;
        (scaled.round() as usize).max(3)
    }
}

/// Operations attempted and failed, with the first few failures spelled out.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    /// Account `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 16 {
            self.notes.push(format!("{} ({failed} failed)", what()));
        }
    }

    /// Account one pass/fail check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }
}

/// One pixel stream of an RT repetition.
pub struct RtStream {
    /// Index into `Prepared::cameras` of the camera that filmed it.
    pub camera: usize,
    pub clip: Vec<LabeledFrame>,
    pub expected: Vec<u64>,
}

/// Everything set-up hands to the timed phase. A plain run builds only what
/// its own engine takes; a traced run builds all three engines' inputs.
pub struct Prepared {
    pub sys: FfsVaConfig,
    /// The workload's RT cameras first, then any fleet camera not among them.
    pub cameras: Vec<Camera>,
    /// Each camera's natural clip from the seed's start offset.
    pub rt_streams: Vec<RtStream>,
    /// The DES fleet and what each stream must let through.
    pub fleet: Vec<StreamInput>,
    pub fleet_expected: Vec<Vec<u64>>,
    /// The cluster offers and what each must let through.
    pub offers: Vec<StreamInput>,
    pub offers_expected: Vec<Vec<u64>>,
}

/// Film and train the cameras the engines in `engines` need, then cut the
/// seed's clips for them. A camera that misses the accuracy target on its
/// evaluation clip is a failed operation; its streams still run.
pub fn set_up(
    workload: Workload,
    seed: u64,
    engines: &[EngineKind],
    spans: &mut Spans,
    ops: &mut Ops,
) -> Prepared {
    let sys = FfsVaConfig::default();
    let want = |e: EngineKind| engines.contains(&e);
    let wants_fleet = want(EngineKind::Des) || want(EngineKind::Cluster);
    let films_pixels =
        |c: &(Scene, usize)| want(EngineKind::Rt) && workload.rt_cameras().contains(c);
    let feeds_fleet = |c: &(Scene, usize)| wants_fleet && FLEET_CAMERAS.contains(c);
    let mut plan: Vec<(Scene, usize)> = Vec::new();
    for c in workload.rt_cameras().into_iter().chain(FLEET_CAMERAS) {
        if (films_pixels(&c) || feeds_fleet(&c)) && !plan.contains(&c) {
            plan.push(c);
        }
    }
    let cameras: Vec<Camera> = plan
        .iter()
        .enumerate()
        .map(|(id, c)| {
            let eval_frames = if feeds_fleet(c) {
                FLEET_FRAMES
            } else {
                RT_FRAMES
            };
            let pixel_frames = if films_pixels(c) { RT_FRAMES } else { 0 };
            set_up_camera(c.0, c.1, id as u32, eval_frames, pixel_frames, &sys, spans)
        })
        .collect();
    for (k, cam) in cameras.iter().enumerate() {
        ops.check(cam.accuracy.scene_miss_rate <= MAX_SCENE_MISS_RATE, || {
            format!(
                "camera {k}: scene_miss_rate {:.3} on its evaluation clip",
                cam.accuracy.scene_miss_rate
            )
        });
    }

    let rt_streams = cameras
        .iter()
        .enumerate()
        .filter(|(_, cam)| !cam.clip.is_empty())
        .enumerate()
        .map(|(k, (camera, cam))| {
            let at = start_offset(seed, k, cam.clip.len());
            let mut clip = rotate(&cam.clip, at);
            renumber(&mut clip);
            let traces = renumbered(rotate(&cam.traces[..cam.clip.len()], at));
            RtStream {
                camera,
                clip,
                expected: expected_survivors(&traces, &cam.thresholds),
            }
        })
        .collect();

    let (fleet, fleet_expected, offers, offers_expected) = if wants_fleet {
        let source = |c: &(Scene, usize)| {
            let at = plan
                .iter()
                .position(|p| p == c)
                .expect("fleet camera planned");
            cameras[at].input()
        };
        let (sparse, dense) = (source(&FLEET_CAMERAS[0]), source(&FLEET_CAMERAS[1]));
        let base = start_offset(seed, 0, sparse.traces.len());
        let tiled = |wanted: bool, n: usize, dense_every: usize| {
            let inputs = if wanted {
                tile_fleet(&sparse, &dense, n, dense_every, base)
            } else {
                Vec::new()
            };
            let expected: Vec<Vec<u64>> = inputs
                .iter()
                .map(|s| expected_survivors(&s.traces, &s.thresholds))
                .collect();
            (inputs, expected)
        };
        let (fleet, fleet_expected) =
            tiled(want(EngineKind::Des), FLEET_STREAMS, FLEET_DENSE_EVERY);
        let (offers, offers_expected) = tiled(
            want(EngineKind::Cluster),
            CLUSTER_STREAMS,
            CLUSTER_DENSE_EVERY,
        );
        (fleet, fleet_expected, offers, offers_expected)
    } else {
        Default::default()
    };
    Prepared {
        sys,
        cameras,
        rt_streams,
        fleet,
        fleet_expected,
        offers,
        offers_expected,
    }
}

/// Harness-side timing of one engine call.
#[derive(Debug, Clone, Copy)]
pub struct CallTiming {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub frames: u64,
}

fn timed<T>(spans: &mut Spans, name: &str, rep: u32, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = spans.time(name, rep, f);
    let wall_s = t0.elapsed().as_secs_f64();
    (out, wall_s, process_cpu_s() - cpu0)
}

/// One `run_multi_pipeline_rt` call over the two streams' clips. Clips and
/// banks are cloned outside the timed region (the engine consumes them).
pub fn rt_rep(
    p: &Prepared,
    rep: u32,
    spans: &mut Spans,
    ops: &mut Ops,
) -> (CallTiming, MultiRtResult) {
    let streams: Vec<_> = p
        .rt_streams
        .iter()
        .map(|s| (s.clip.clone(), clone_bank(&p.cameras[s.camera].bank)))
        .collect();
    let offered: u64 = p.rt_streams.iter().map(|s| s.clip.len() as u64).sum();
    let (r, wall_s, cpu_s) = timed(spans, "core.rt.run_multi_pipeline_rt", rep, || {
        run_multi_pipeline_rt(streams, &p.sys)
    });

    for (k, (got, want)) in r.survivors.iter().zip(&p.rt_streams).enumerate() {
        let got: Vec<u64> = got.iter().map(|s| s.seq).collect();
        ops.count(
            want.clip.len() as u64,
            survivor_diff(&want.expected, &got) as u64,
            || format!("rt rep {rep} stream {k}: survivors differ from the trace math"),
        );
    }
    ops.check(
        r.stage_processed[0] == offered && r.total_frames == offered,
        || {
            format!(
                "rt rep {rep}: SDD saw {} of {offered} frames offered",
                r.stage_processed[0]
            )
        },
    );
    ops.check(
        r.stream_health.iter().all(|h| h.healthy()) && r.shed_frames == 0,
        || format!("rt rep {rep}: unhealthy stream or shed frames"),
    );
    (
        CallTiming {
            wall_s,
            cpu_s,
            frames: offered,
        },
        r,
    )
}

/// Mean capture→reference-verdict latency of the survivors, in ms.
pub fn rt_ref_latency_ms(r: &MultiRtResult) -> f64 {
    r.telemetry.histograms["latency.ref_us"].mean() / 1e3
}

/// One `Engine::new(..).run()` over `inputs` (cloned outside the timed
/// region). `new_s` is the share of the wall spent in `Engine::new`.
pub fn des_rep(
    sys: &FfsVaConfig,
    inputs: &[StreamInput],
    expected: &[Vec<u64>],
    rep: u32,
    spans: &mut Spans,
    ops: &mut Ops,
) -> (CallTiming, f64, SimResult) {
    let owned = inputs.to_vec();
    let offered: u64 = inputs.iter().map(|s| s.traces.len() as u64).sum();
    let mut new_s = 0.0;
    let (r, wall_s, cpu_s) = timed(spans, "core.des.engine", rep, || {
        let t = Instant::now();
        let engine = Engine::new(*sys, Mode::Online, owned);
        new_s = t.elapsed().as_secs_f64();
        engine.run()
    });

    for (k, (got, want)) in r.per_stream_survivors.iter().zip(expected).enumerate() {
        let got: Vec<u64> = got.iter().map(|s| s.seq).collect();
        ops.count(
            inputs[k].traces.len() as u64,
            survivor_diff(want, &got) as u64,
            || format!("des rep {rep} stream {k}: survivors differ from the trace math"),
        );
    }
    ops.check(
        r.stage_executed[0] == offered && r.total_frames == offered,
        || {
            format!(
                "des rep {rep}: SDD executed {} of {offered} frames offered",
                r.stage_executed[0]
            )
        },
    );
    ops.check(
        r.per_stream_quarantined.iter().all(|&q| q == 0)
            && r.per_stream_source_lost.iter().all(|&l| !l),
        || format!("des rep {rep}: quarantined frames or a lost source"),
    );
    (
        CallTiming {
            wall_s,
            cpu_s,
            frames: offered,
        },
        new_s,
        r,
    )
}

/// Harness-side timings of one cluster session.
pub struct ClusterRep {
    /// Offers plus all steps.
    pub timing: CallTiming,
    pub offer_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    /// Wall of the step that re-forwarded the dead instance's streams.
    pub reforward_step_ms: f64,
    pub report: ClusterReport,
}

/// One three-instance session over the 12 offers with instance 0 crashing at
/// frame 1500: offer, then step to the end. `root` must not exist yet; the
/// caller removes it afterwards (both outside the timed region).
pub fn cluster_rep(
    p: &Prepared,
    root: &Path,
    rep: u32,
    spans: &mut Spans,
    ops: &mut Ops,
) -> ClusterRep {
    let offers = p.offers.clone();
    let frames: u64 = offers.iter().map(|s| s.traces.len() as u64).sum();
    let plan = ClusterFaultPlan::parse(CLUSTER_FAULT).expect("valid cluster fault plan");
    let cfg = ClusterConfig::new(CLUSTER_INSTANCES, root).with_epoch_frames(CLUSTER_EPOCH_FRAMES);

    let span = spans.enter("core.cluster.session", rep);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut session = Cluster::new(p.sys, cfg)
        .with_fault_plan(&plan)
        .into_session()
        .expect("open cluster session");
    let mut offer_ms = Vec::with_capacity(offers.len());
    for input in offers {
        let t = Instant::now();
        spans.time("core.cluster.offer", rep, || session.offer(input));
        offer_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut step_ms = Vec::new();
    let mut reforward_step_ms = 0.0;
    let mut reforwards_seen = 0;
    loop {
        let t = Instant::now();
        let more = spans
            .time("core.cluster.step", rep, || session.step())
            .expect("cluster step");
        if !more {
            break;
        }
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let reforwards = session.telemetry().counter("cluster.reforwards").get();
        if reforwards > reforwards_seen {
            reforwards_seen = reforwards;
            reforward_step_ms = *step_ms.last().expect("just pushed");
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    spans.exit(span);
    let report = session.into_report();

    for (gid, (outcome, want)) in report.outcomes.iter().zip(&p.offers_expected).enumerate() {
        let len = p.offers[gid].traces.len() as u64;
        match outcome {
            StreamOutcome::Completed { survivors, .. } => {
                let got: Vec<u64> = survivors.iter().map(|s| s.seq).collect();
                ops.count(len, survivor_diff(want, &got) as u64, || {
                    format!("cluster rep {rep} stream {gid}: survivors differ from the trace math")
                });
            }
            other => ops.count(len, len, || {
                format!("cluster rep {rep} stream {gid}: not completed: {other:?}")
            }),
        }
    }
    ops.check(report.reforwards() > 0 && !report.alive[0], || {
        format!("cluster rep {rep}: the crash of instance 0 re-forwarded nothing")
    });
    ClusterRep {
        timing: CallTiming {
            wall_s,
            cpu_s,
            frames,
        },
        offer_ms,
        step_ms,
        reforward_step_ms,
        report,
    }
}

/// A checkpoint root that does not exist yet, under the harness's own
/// output directory (the driver confines writes to the checkout).
pub fn fresh_ckpt_root(out_dir: &Path, rep: u32) -> PathBuf {
    let root = out_dir.join(format!("ckpt-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

//! `benchmark run` and `benchmark trace`: set up, warm up, repeat the
//! workload's engine call a fixed number of times, and report.

use crate::inputs::Fate;
use crate::layers;
use crate::metrics::{
    end_to_end, metrics_map, DriverLine, Fingerprint, Measured, RunRecord, RunSet, PER_LAYER,
};
use crate::procfs;
use crate::spans::{self_time_by_name_s, Spans};
use crate::stats::{median, percentile};
use crate::workloads::{
    cluster_rep, des_rep, fresh_ckpt_root, rt_ref_latency_ms, rt_rep, set_up, CallTiming,
    EngineKind, Ops, Prepared, Workload,
};
use crate::Args;
use std::fs;
use std::path::{Path, PathBuf};

/// Everything the harness writes goes here: trace files and, for the
/// cluster, checkpoint roots. The driver confines writes to the checkout,
/// so this is the package's own directory rather than a tmpfs: the copy of
/// the package under the working directory when there is one (the driver's
/// form), else the one this binary was built from.
fn out_dir() -> PathBuf {
    let dir = if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn fingerprint(out: &Path) -> Fingerprint {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model: procfs::cpu_model(),
        rustc,
        simd_active: ffsva_tensor::simd_active(),
        ckpt_fs: procfs::fs_type_of(out),
        deps: crate::DEPS.to_string(),
    }
}

fn print_header(mode: &str, args: &Args, fp: &Fingerprint) {
    println!(
        "# benchmark {mode}: workload {} seed {} seconds {} ({} timed repetitions after 1 warm-up)",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.workload.reps(args.seconds)
    );
    println!(
        "# machine: nproc {} | {} | {} | simd_active {} | ckpt_fs {} | deps {}",
        fp.nproc, fp.cpu_model, fp.rustc, fp.simd_active, fp.ckpt_fs, fp.deps
    );
}

/// What the timed phase of one workload collected.
#[derive(Default)]
struct Timed {
    calls: Vec<CallTiming>,
    /// RT only, per repetition: mean capture→reference-verdict latency.
    ref_latency_ms: Vec<f64>,
    /// Cluster only: every `step()` of every repetition.
    step_ms: Vec<f64>,
    /// DES only: `makespan_us` of every repetition (must all be equal).
    makespans_us: Vec<f64>,
}

/// One repetition of the workload's own engine call.
fn one_rep(
    w: Workload,
    p: &Prepared,
    out: &Path,
    rep: u32,
    spans: &mut Spans,
    ops: &mut Ops,
    t: &mut Timed,
) {
    match w.engine() {
        EngineKind::Rt => {
            let (call, r) = rt_rep(p, rep, spans, ops);
            t.calls.push(call);
            t.ref_latency_ms.push(rt_ref_latency_ms(&r));
        }
        EngineKind::Des => {
            let (call, _, r) = des_rep(&p.sys, &p.fleet, &p.fleet_expected, rep, spans, ops);
            t.calls.push(call);
            t.makespans_us.push(r.makespan_us);
        }
        EngineKind::Cluster => {
            let root = fresh_ckpt_root(out, rep);
            let c = cluster_rep(p, &root, rep, spans, ops);
            let _ = fs::remove_dir_all(&root);
            t.calls.push(c.timing);
            t.step_ms.extend(c.step_ms);
        }
    }
}

/// The workload's fixed number of repetitions, one after the other.
fn timed_phase(
    w: Workload,
    p: &Prepared,
    out: &Path,
    reps: usize,
    spans: &mut Spans,
    ops: &mut Ops,
) -> Timed {
    let mut t = Timed::default();
    spans.scope("timed_phase", |spans| {
        for rep in 1..=reps {
            one_rep(w, p, out, rep as u32, spans, ops, &mut t);
        }
    });
    if w.engine() == EngineKind::Des {
        let first = t.makespans_us[0];
        ops.check(t.makespans_us.iter().all(|&m| m == first), || {
            "des_fleet: repetitions disagree on makespan_us".to_string()
        });
    }
    t
}

fn end_to_end_metrics(w: Workload, setup_s: f64, t: &Timed) -> Vec<Measured> {
    let fps: Vec<f64> = t.calls.iter().map(|c| c.frames as f64 / c.wall_s).collect();
    let wall_ms: Vec<f64> = t.calls.iter().map(|c| c.wall_s * 1e3).collect();
    // CPU time comes in 10 ms ticks, coarse against one repetition, so it
    // is summed over the whole timed phase rather than taken per repetition.
    let cpu_s: f64 = t.calls.iter().map(|c| c.cpu_s).sum();
    let frames: u64 = t.calls.iter().map(|c| c.frames).sum();
    // A metric ISSUE 11 defines on this workload reads its own sample; on the
    // other workloads the driver still wants a line, and gets the wall of
    // one repetition, flagged.
    let of = |name: &str, own: &[f64]| {
        let def = end_to_end(name);
        if def.scoped_to(w.name()) {
            Measured::of(def.id(), own)
        } else {
            Measured {
                unscoped: true,
                ..Measured::of(def.id(), &wall_ms)
            }
        }
    };
    let exact = |name: &str, v: f64| Measured {
        unscoped: !end_to_end(name).scoped_to(w.name()),
        ..Measured::exact(end_to_end(name).id(), v)
    };
    vec![
        exact("setup_s", setup_s),
        of("throughput_fps", &fps),
        exact("cpu_us_per_frame", cpu_s * 1e6 / frames as f64),
        of("ref_latency_ms", &t.ref_latency_ms),
        of("epoch_wall_p50_ms", &t.step_ms),
        exact("peak_rss_mb", procfs::peak_rss_mb()),
    ]
}

fn report(mode: &str, args: &Args, reps: usize, ops: &Ops, metrics: &[Measured]) -> bool {
    println!("# {mode} metrics ({reps} timed repetitions)");
    for m in metrics {
        println!("{}", m.line());
    }
    println!("ops_attempted {}", ops.attempted);
    println!("ops_failed {}", ops.failed);
    for note in &ops.notes {
        println!("FAILED: {note}");
    }
    let measured = metrics.iter().all(|m| m.value.is_finite());
    let correct = ops.failed == 0 && measured;
    if args.driver_line && measured {
        let line = DriverLine {
            correct,
            attempted: ops.attempted,
            failed: ops.failed,
            metrics: metrics_map(metrics),
        };
        println!(
            "{}",
            serde_json::to_string(&line).expect("serializable result")
        );
    }
    correct
}

fn append_to_set(path: &Path, fp: Fingerprint, record: RunRecord) {
    let mut set: RunSet = match fs::read(path) {
        Ok(bytes) => serde_json::from_slice(&bytes).expect("--append target is a set file"),
        Err(_) => RunSet {
            fingerprint: fp,
            runs: Vec::new(),
        },
    };
    set.runs.push(record);
    let json = serde_json::to_string_pretty(&set).expect("serializable set");
    fs::write(path, json + "\n").expect("write set file");
}

/// Everything one measured process produces before it reports.
struct Measurement {
    out: PathBuf,
    fingerprint: Fingerprint,
    spans: Spans,
    ops: Ops,
    prepared: Prepared,
    setup_s: f64,
    /// `VmHWM` when set-up ended, before it was reset for the timed phase.
    setup_peak_rss_mb: f64,
    timed: Timed,
}

/// Print the header, set up the inputs of `engines`, run one discarded
/// warm-up repetition, then the timed phase. `setup_s` runs from process
/// start to the first timed repetition.
fn measure(mode: &str, args: &Args, engines: &[EngineKind]) -> Measurement {
    let out = out_dir();
    let fingerprint = fingerprint(&out);
    print_header(mode, args, &fingerprint);
    let (mut spans, mut ops) = (Spans::new(), Ops::default());
    let prepared = set_up(args.workload, args.seed, engines, &mut spans, &mut ops);
    for (k, cam) in prepared.cameras.iter().enumerate() {
        println!(
            "# camera {k}: {:?} seed {}, scene_miss_rate {:.3} over {} evaluation frames; they stop at sdd/snm/tyolo/survive: {}/{}/{}/{}",
            cam.scene,
            cam.seed,
            cam.accuracy.scene_miss_rate,
            cam.traces.len(),
            cam.count(Fate::Sdd),
            cam.count(Fate::Snm),
            cam.count(Fate::TYolo),
            cam.count(Fate::Survive)
        );
    }
    let timed = |spans: &mut Spans, ops: &mut Ops| {
        let mut warm = (Ops::default(), Timed::default());
        spans.scope("warm_up", |spans| {
            one_rep(
                args.workload,
                &prepared,
                &out,
                0,
                spans,
                &mut warm.0,
                &mut warm.1,
            )
        });
        let setup_s = args.started.elapsed().as_secs_f64();
        let setup_peak_rss_mb = procfs::peak_rss_mb();
        let rss_reset = procfs::reset_peak_rss();
        let reps = args.workload.reps(args.seconds);
        let timed = timed_phase(args.workload, &prepared, &out, reps, spans, ops);
        (setup_s, setup_peak_rss_mb, rss_reset, timed)
    };
    // The DES and the cluster run on this thread alone and get one CPU to
    // themselves; the RT engine's stage threads would inherit the pin and
    // share that CPU.
    let (cpu, (setup_s, setup_peak_rss_mb, rss_reset, timed)) = match args.workload.engine() {
        EngineKind::Rt => (None, timed(&mut spans, &mut ops)),
        EngineKind::Des | EngineKind::Cluster => procfs::on_one_cpu(|| timed(&mut spans, &mut ops)),
    };
    println!(
        "# timed phase: generator thread {}; peak_rss_mb covers {}",
        cpu.map_or("not pinned".to_string(), |c| format!("pinned to cpu {c}")),
        if rss_reset {
            "the timed phase (VmHWM reset after set-up)"
        } else {
            "the whole process (VmHWM reset refused)"
        }
    );
    Measurement {
        out,
        fingerprint,
        spans,
        ops,
        prepared,
        setup_s,
        setup_peak_rss_mb,
        timed,
    }
}

/// `benchmark run`: the end-to-end metrics, with tracing's extra work off
/// and only the workload's own engine set up.
pub fn run(args: &Args) -> bool {
    let m = measure("run", args, &[args.workload.engine()]);
    let metrics = end_to_end_metrics(args.workload, m.setup_s, &m.timed);
    let correct = report("end-to-end", args, m.timed.calls.len(), &m.ops, &metrics);
    if let Some(path) = &args.append {
        let record = RunRecord {
            workload: args.workload.name().to_string(),
            seed: args.seed,
            seconds: args.seconds,
            reps: m.timed.calls.len(),
            ops_attempted: m.ops.attempted,
            ops_failed: m.ops.failed,
            metrics: metrics_map(&metrics),
        };
        append_to_set(path, m.fingerprint, record);
    }
    correct
}

/// `benchmark trace`: the same phases under spans, then every layer probed
/// on the workload's own frames and traces, all three engines included.
pub fn trace(args: &Args) -> bool {
    let all = [EngineKind::Rt, EngineKind::Des, EngineKind::Cluster];
    let mut m = measure("trace", args, &all);
    let mut metrics = vec![Measured::exact(
        crate::metrics::per_layer("harness.setup_peak_rss_mb"),
        m.setup_peak_rss_mb,
    )];
    metrics.extend(layers::probe_all(
        &m.prepared,
        &m.out,
        &mut m.spans,
        &mut m.ops,
    ));
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|l| l.name)
        .filter(|n| !metrics.iter().any(|m| m.name == *n))
        .collect();
    assert!(
        missing.is_empty(),
        "per-layer metrics not measured: {missing:?}"
    );

    println!("# self time by span name (s), the ten largest");
    for (name, s) in self_time_by_name_s(m.spans.all()).into_iter().take(10) {
        println!("#   {name:<44} {s:>9.3}");
    }
    let value_of = |name: &str| {
        let found = metrics.iter().find(|m| m.name == name);
        found.map_or(f64::NAN, |m| m.value)
    };
    let explained = value_of("core.rt.cpu_explained_pct");
    println!(
        "# core.rt.cpu_explained_pct {explained:.1} %: the residual {:.1} % of the engine's CPU is queue, thread, telemetry and frame hand-off cost",
        100.0 - explained
    );
    let overhead = value_of("core.cluster.epoch_overhead_pct");
    println!(
        "# core.cluster.epoch_overhead_pct {overhead:.1} %: the residual {:.1} % is what one straight Engine::run spends on the same frames",
        100.0 - overhead
    );
    let wall_ms: Vec<f64> = m.timed.calls.iter().map(|c| c.wall_s * 1e3).collect();
    println!(
        "# traced engine call: median {:.3} ms, p90 {:.3} ms over {} repetitions (compare `run` for tracing overhead)",
        median(&wall_ms),
        percentile(&wall_ms, 0.9),
        wall_ms.len()
    );
    let path = m.out.join(format!("{}.trace.json", args.workload.name()));
    fs::write(&path, m.spans.to_json(args.workload.name())).expect("write trace file");
    println!(
        "# {} spans written to {}",
        m.spans.all().len(),
        path.display()
    );
    report("per-layer", args, m.timed.calls.len(), &m.ops, &metrics)
}

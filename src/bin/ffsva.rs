//! `ffsva` — operator CLI for the FFS-VA cascade.
//!
//! Subcommands mirror an operator's workflow around a deployment:
//!
//! * `record`   — generate a synthetic surveillance clip into an FFSV1 file.
//! * `train`    — train/calibrate a per-stream cascade from a clip (§4.1)
//!                and save the profile as JSON.
//! * `analyze`  — post-facto search: run the cascade over a clip and report
//!                the surviving frames grouped into events.
//! * `simulate` — what-if runs on the discrete-event engine (throughput,
//!                latency, device utilization for N streams).
//! * `capacity` — find how many live streams one instance sustains vs. the
//!                YOLOv2 baseline (§4.3.1 / Fig. 6).
//! * `tune`     — cost-based cascade auto-tuning: search the knob space
//!                against a calibration clip, rank feasible points by
//!                DES-predicted FPS, and emit a blessable config
//!                (`TUNE.json`); `--drift-ablation` adds the online
//!                recalibration before/after leg.
//! * `serve`    — resident daemon: the cluster control plane behind an
//!                HTTP/1.1 ops API, with SIGTERM-triggered graceful drain
//!                and crash-safe `--resume`.

use ffs_va::core::accuracy::cascade_pass;
use ffs_va::core::{
    drift_ablation, evaluate_accuracy, find_max_cluster_streams, find_max_online_streams,
    install_signal_drain, max_streams_by_threads, tune, AccuracyReport, Daemon, DriftConfig,
    ServeConfig, TuneCandidate, TuneInput, TuneOptions, DEFAULT_THREAD_BUDGET,
};
use ffs_va::models::reference::ReferenceModel;
use ffs_va::models::sdd::SddFilter;
use ffs_va::models::snm::{SnmReport, SnmTrainOptions};
use ffs_va::models::tyolo::TinyYolo;
use ffs_va::models::{fit_batch_curve_checked, Scratch};
use ffs_va::prelude::*;
use ffs_va::video::storage::{write_clip, ClipReader};
use ffs_va::video::BackgroundKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
ffsva — operator CLI for the FFS-VA filtering cascade

USAGE:
  ffsva record   --workload <jackson|coral|lobby|test> --out <clip.ffsv>
                 [--frames N] [--tor F] [--seed N] [--target <class>]
  ffsva train    --clip <clip.ffsv> --target <class> --out <profile.json>
                 [--train-frames N] [--seed N] [--fast]
  ffsva analyze  --clip <clip.ffsv> --target <class> [--number N]
                 [--filter-degree F] [--profile <profile.json>]
                 [--train-frames N] [--seed N] [--fast] [--report <out.json>]
                 [--telemetry <out.json>]
  ffsva simulate --workload <name> --streams N [--frames N] [--train-frames N]
                 [--mode online|offline] [--batch <static|feedback|dynamic>[:SIZE]]
                 [--filter-gpus N] [--ref-gpus N] [--filter-degree F]
                 [--number N] [--tor F] [--seed N] [--target <class>]
                 [--fast] [--baseline] [--json <out.json>]
                 [--fault-plan <spec>] [--telemetry <out.json>]
                 [--source-faults <spec>] [--checkpoint-dir <dir>] [--resume]
                 [--stop-after N] [--snm-precision f32|int8]
                 [--tyolo-precision f32|int8]
                 [--instances N] [--epoch-frames N]

Fault plans inject deterministic failures, keyed on frame seq, e.g.
  --fault-plan 'stream0.snm:panic@50,stream1.tyolo:stall@100+250ms'
(grammar: stream<S>.<sdd|snm|tyolo|ref>:panic@N|stall@N+DURms|failpush@N).

--instances N runs the cluster control plane: N resident engine instances
under telemetry-driven admission, with streams re-forwarded across
instances by riding their checkpoint logs. Fault plans then also accept
instance scope, e.g.
  --fault-plan 'instance0:crash@150,instance1:slow@300+40ms'
(grammar: instance<I>:crash@N|slow@N+DURms, mixable with stream faults).
--epoch-frames sets the control-epoch granularity (default 150 frames).

Source-fault plans make the ingest links unreliable, e.g.
  --source-faults 'stream0.src:disconnect@50+500ms,stream1.src:drop@10..13'
(grammar: stream<S>.src:disconnect@N+DURms|corrupt@N|drop@N..M|reorder@N+K|dup@N).
--checkpoint-dir appends crash-safe per-stream snapshots to the directory's
checkpoints.log; --resume continues from them; --stop-after N truncates each
stream's input to simulate a kill.
  ffsva capacity --workload <name> [--frames N] [--train-frames N]
                 [--filter-gpus N] [--ref-gpus N] [--max-streams N]
                 [--tor F] [--seed N] [--target <class>] [--fast]
                 [--instances N]

--instances N plans a whole fleet: the largest stream count N instances
sustain with re-forwarding allowed to spread load. The last line is the
instance's thread ceiling (DESIGN.md §11), whatever the devices sustain.

  ffsva tune     [--out <TUNE.json>] [--bless <config.json>] [--streams N]
                 [--frames N] [--train-frames N] [--tor F] [--seed N] [--full]
                 [--miss-bound F] [--des-budget N] [--top N] [--n-obj N]
                 [--fit-cost] [--min-r2 F] [--drift-ablation]
                 [--drift-out <DRIFT.json>] [--drift-window N]
                 [--drift-ratio F]

tune searches the cascade knob space (δ_diff scale, FilterDegree, query
relaxation, BatchSize, num_tyolo, SNM precision) against a calibration
clip: every point is scored for scene-miss accuracy on the real decision
traces, feasible points (miss < --miss-bound, default 2%) are priced by
the DES, and the report ranks them by predicted aggregate FPS next to the
untuned baseline. The search is deterministic — same inputs, byte-identical
TUNE.json. --bless writes the winner as an engine config + per-stream
thresholds snippet. --fit-cost prices with the measured SNM batch curve
instead of the paper-calibrated costs, but only when the affine fit's r²
clears --min-r2 (default 0.9). --drift-ablation runs the same workload
with a day/night illumination cycle through the static pipeline and the
online-recalibrating one (windowed SDD-distance shift detector; SDD
reference rebuild + SNM threshold re-derivation on detection) and writes
the before/after scene-miss comparison to --drift-out.

  ffsva serve    --state-dir <dir> [--addr HOST:PORT] [--instances N]
                 [--epoch-frames N] [--epoch-interval-ms N]
                 [--fault-plan <spec>] [--source-faults <spec>] [--resume]

serve runs the cluster control plane as a resident daemon behind an
HTTP/1.1 ops API (POST/DELETE /streams, GET /healthz /readyz /telemetry,
GET /telemetry/stream, POST /drain). SIGTERM or POST /drain triggers a
graceful drain: the in-flight epoch completes, every live stream's
checkpoint and the session manifest land in --state-dir, and the process
exits 0; `serve --resume` continues bit-identically. The bound address is
written to <state-dir>/serve.addr (use --addr 127.0.0.1:0 to let the OS
pick). Fault plans (stage, instance, and source scope) drill the same
failure modes as simulate.

--snm-precision int8 runs SNM inference through the quantized int8 lowering
(DESIGN.md §12) in simulate/capacity traces. --tyolo-precision int8 routes
the shared T-YOLO through its quantized counting path the same way,
independently of the SNM knob.

Object classes: car, bus, truck, person, dog, cat, bicycle.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("ffsva: {}", e);
            eprintln!();
            eprintln!("{}", USAGE);
            std::process::exit(2);
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    if args.is_empty() {
        return Err("missing subcommand".into());
    }
    let cmd = args.remove(0);
    let mut args = Args(args);
    let result = match cmd.as_str() {
        "record" => cmd_record(&mut args),
        "train" => cmd_train(&mut args),
        "analyze" => cmd_analyze(&mut args),
        "simulate" => cmd_simulate(&mut args),
        "capacity" => cmd_capacity(&mut args),
        "tune" => cmd_tune(&mut args),
        "serve" => cmd_serve(&mut args),
        "help" | "--help" | "-h" => {
            println!("{}", USAGE);
            return Ok(());
        }
        other => Err(format!("unknown subcommand '{}'", other)),
    };
    result?;
    args.finish()
}

// ---------------------------------------------------------------------------
// argument parsing

struct Args(Vec<String>);

impl Args {
    /// Take `--name value`, if present.
    fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let flag = format!("--{}", name);
        match self.0.iter().position(|a| *a == flag) {
            None => Ok(None),
            Some(i) => {
                if i + 1 >= self.0.len() {
                    return Err(format!("--{} expects a value", name));
                }
                self.0.remove(i);
                Ok(Some(self.0.remove(i)))
            }
        }
    }

    /// Take a required `--name value`.
    fn req(&mut self, name: &str) -> Result<String, String> {
        self.opt(name)?
            .ok_or_else(|| format!("missing required option --{}", name))
    }

    /// Take a bare `--name` flag.
    fn flag(&mut self, name: &str) -> bool {
        let flag = format!("--{}", name);
        match self.0.iter().position(|a| *a == flag) {
            None => false,
            Some(i) => {
                self.0.remove(i);
                true
            }
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{}' for --{}", v, name)),
        }
    }

    /// Error out on anything not consumed by the subcommand.
    fn finish(self) -> Result<(), String> {
        self.ensure_empty()
    }

    /// Like [`Args::finish`], for subcommands that must reject leftovers
    /// *before* starting long-running work (the daemon).
    fn ensure_empty(&self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {}", self.0.join(" ")))
        }
    }
}

fn parse_target(s: &str) -> Result<ObjectClass, String> {
    ObjectClass::ALL
        .iter()
        .copied()
        .find(|c| c.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown object class '{}'", s))
}

fn parse_mode(s: &str) -> Result<Mode, String> {
    match s {
        "online" => Ok(Mode::Online),
        "offline" => Ok(Mode::Offline),
        other => Err(format!("invalid --mode '{}' (online|offline)", other)),
    }
}

fn parse_precision(s: &str) -> Result<Precision, String> {
    match s {
        "f32" => Ok(Precision::F32),
        "int8" => Ok(Precision::Int8),
        other => Err(format!("invalid precision '{}' (f32|int8)", other)),
    }
}

fn parse_batch(s: &str) -> Result<BatchPolicy, String> {
    let (kind, size) = match s.split_once(':') {
        Some((k, v)) => (
            k,
            v.parse::<usize>()
                .map_err(|_| format!("invalid batch size in '{}'", s))?,
        ),
        None => (s, 10),
    };
    match kind {
        "static" => Ok(BatchPolicy::Static { size }),
        "feedback" => Ok(BatchPolicy::Feedback { size }),
        "dynamic" => Ok(BatchPolicy::Dynamic { size }),
        other => Err(format!(
            "invalid batch policy '{}' (static|feedback|dynamic[:SIZE])",
            other
        )),
    }
}

/// Resolve a workload preset plus the common `--tor/--seed/--target` knobs.
fn workload_config(args: &mut Args) -> Result<StreamConfig, String> {
    let name = args.req("workload")?;
    let tor = match args.opt("tor")? {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("invalid --tor '{}'", v))?,
        ),
        None => None,
    };
    let seed = match args.opt("seed")? {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("invalid --seed '{}'", v))?,
        ),
        None => None,
    };
    let target = match args.opt("target")? {
        Some(v) => Some(parse_target(&v)?),
        None => None,
    };
    let mut cfg = match name.as_str() {
        "jackson" => workloads::jackson(),
        "coral" => workloads::coral(),
        "lobby" => workloads::lobby(),
        "test" | "tiny" => workloads::test_tiny(
            target.unwrap_or(ObjectClass::Car),
            tor.unwrap_or(0.3),
            seed.unwrap_or(42),
        ),
        other => {
            return Err(format!(
                "unknown workload '{}' (jackson|coral|lobby|test)",
                other
            ));
        }
    };
    if let Some(t) = tor {
        cfg.tor = t;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(t) = target {
        cfg.target = t;
    }
    Ok(cfg)
}

/// SNM training options: paper-quality by default, `--fast` for smoke runs.
fn bank_options(fast: bool) -> BankOptions {
    if fast {
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
    } else {
        BankOptions::default()
    }
}

// ---------------------------------------------------------------------------
// cascade profile (the `train` artifact)

/// A trained per-stream cascade, serializable as the `train` subcommand's
/// output. T-YOLO and the reference oracle carry no per-stream state, so the
/// profile stores only the SDD threshold model and the SNM network.
#[derive(Serialize, Deserialize)]
struct CascadeProfile {
    target: ObjectClass,
    sdd: SddFilter,
    snm: SnmModel,
    snm_report: SnmReport,
}

impl CascadeProfile {
    fn from_bank(bank: FilterBank) -> Self {
        CascadeProfile {
            target: bank.target,
            sdd: bank.sdd,
            snm: bank.snm,
            snm_report: bank.snm_report,
        }
    }

    fn into_bank(self) -> FilterBank {
        FilterBank {
            target: self.target,
            sdd: self.sdd,
            snm: self.snm,
            tyolo: TinyYolo::default(),
            reference: ReferenceModel::default(),
            snm_report: self.snm_report,
        }
    }

    fn load(path: &Path) -> Result<Self, String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read profile {}: {}", path.display(), e))?;
        serde_json::from_slice(&bytes)
            .map_err(|e| format!("invalid profile {}: {}", path.display(), e))
    }

    fn save(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| format!("serialize profile: {}", e))?;
        std::fs::write(path, json)
            .map_err(|e| format!("cannot write profile {}: {}", path.display(), e))
    }
}

fn read_clip_frames(path: &Path, limit: Option<usize>) -> Result<Vec<LabeledFrame>, String> {
    let reader = ClipReader::open(path)
        .map_err(|e| format!("cannot open clip {}: {}", path.display(), e))?;
    let iter: Box<dyn Iterator<Item = std::io::Result<LabeledFrame>>> = match limit {
        Some(n) => Box::new(reader.take(n)),
        None => Box::new(reader),
    };
    iter.collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("corrupt clip {}: {}", path.display(), e))
}

// ---------------------------------------------------------------------------
// record

fn cmd_record(args: &mut Args) -> Result<(), String> {
    let cfg = workload_config(args)?;
    let frames: usize = args.parsed("frames", 1200)?;
    let out = PathBuf::from(args.req("out")?);
    if frames == 0 {
        return Err("--frames must be positive".into());
    }

    let target = cfg.target;
    let fps = cfg.fps;
    let (w, h) = (cfg.render_width, cfg.render_height);
    let mut camera = VideoStream::new(0, cfg);
    let clip = camera.clip(frames);
    let bytes = write_clip(&out, &clip, fps)
        .map_err(|e| format!("cannot write {}: {}", out.display(), e))?;
    let tor = measured_tor(&clip, target);
    println!(
        "recorded {} frames ({}x{} @ {} FPS, target {}) to {} ({} bytes)",
        clip.len(),
        w,
        h,
        fps,
        target.name(),
        out.display(),
        bytes
    );
    println!("measured TOR: {:.3}", tor);
    Ok(())
}

// ---------------------------------------------------------------------------
// train

fn cmd_train(args: &mut Args) -> Result<(), String> {
    let clip_path = PathBuf::from(args.req("clip")?);
    let target = parse_target(&args.req("target")?)?;
    let out = PathBuf::from(args.req("out")?);
    let train_frames: usize = args.parsed("train-frames", usize::MAX)?;
    let seed: u64 = args.parsed("seed", 7)?;
    let fast = args.flag("fast");

    let clip = read_clip_frames(&clip_path, Some(train_frames.max(1)))?;
    if clip.is_empty() {
        return Err(format!("clip {} holds no frames", clip_path.display()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let bank = FilterBank::build(&clip, target, &bank_options(fast), &mut rng);
    println!(
        "trained on {} frames: delta_diff {:.5}, c_low {:.3}, c_high {:.3}, SNM accuracy {:.3}",
        clip.len(),
        bank.sdd.delta_diff,
        bank.snm.c_low,
        bank.snm.c_high,
        bank.snm_report.test_accuracy
    );
    CascadeProfile::from_bank(bank).save(&out)?;
    println!("profile written to {}", out.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// analyze

/// A maximal run of surviving frames separated by < 2 s gaps — one "event"
/// an operator would review.
#[derive(Debug, Serialize)]
struct Event {
    start_ms: u64,
    end_ms: u64,
    frames: usize,
    peak_objects: u16,
}

#[derive(Serialize)]
struct AnalyzeReport {
    clip: String,
    target: String,
    frames_analyzed: usize,
    thresholds: StreamThresholds,
    accuracy: AccuracyReport,
    events: Vec<Event>,
}

fn group_events(survivors: &[FrameTrace]) -> Vec<Event> {
    const GAP_MS: u64 = 2000;
    let mut events: Vec<Event> = Vec::new();
    for tr in survivors {
        match events.last_mut() {
            Some(ev) if tr.pts_ms.saturating_sub(ev.end_ms) <= GAP_MS => {
                ev.end_ms = tr.pts_ms;
                ev.frames += 1;
                ev.peak_objects = ev.peak_objects.max(tr.reference_count);
            }
            _ => events.push(Event {
                start_ms: tr.pts_ms,
                end_ms: tr.pts_ms,
                frames: 1,
                peak_objects: tr.reference_count,
            }),
        }
    }
    events
}

fn cmd_analyze(args: &mut Args) -> Result<(), String> {
    let clip_path = PathBuf::from(args.req("clip")?);
    let target = parse_target(&args.req("target")?)?;
    let number: usize = args.parsed("number", 1)?;
    let filter_degree: f32 = args.parsed("filter-degree", 0.5)?;
    let profile = args.opt("profile")?.map(PathBuf::from);
    let train_frames: usize = args.parsed("train-frames", 900)?;
    let seed: u64 = args.parsed("seed", 7)?;
    let fast = args.flag("fast");
    let report_path = args.opt("report")?.map(PathBuf::from);
    let telemetry_path = args.opt("telemetry")?.map(PathBuf::from);

    // A profile skips in-situ training, so the whole clip is analyzed;
    // otherwise the clip's head trains the cascade and the tail is analyzed.
    let (mut bank, analyzed) = match profile {
        Some(p) => {
            let bank = CascadeProfile::load(&p)?.into_bank();
            if bank.target != target {
                return Err(format!(
                    "profile {} was trained for '{}', not '{}'",
                    p.display(),
                    bank.target.name(),
                    target.name()
                ));
            }
            (bank, read_clip_frames(&clip_path, None)?)
        }
        None => {
            let all = read_clip_frames(&clip_path, None)?;
            if all.len() <= train_frames {
                return Err(format!(
                    "clip holds {} frames but --train-frames {} leaves nothing to analyze \
                     (record a longer clip or pass --profile)",
                    all.len(),
                    train_frames
                ));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let bank =
                FilterBank::build(&all[..train_frames], target, &bank_options(fast), &mut rng);
            (bank, all[train_frames..].to_vec())
        }
    };
    if analyzed.is_empty() {
        return Err("no frames to analyze".into());
    }

    let th = StreamThresholds {
        delta_diff: bank.sdd.delta_diff,
        t_pre: bank.snm.t_pre(filter_degree),
        // 0 = the any-motion query (no T-YOLO count requirement)
        number_of_objects: number,
    };
    let traces = bank.trace_clip(&analyzed);
    let accuracy = evaluate_accuracy(&traces, &th);
    let survivors: Vec<FrameTrace> = traces
        .iter()
        .copied()
        .filter(|tr| cascade_pass(tr, &th))
        .collect();
    let events = group_events(&survivors);

    println!(
        "analyzed {} frames: {} forwarded ({:.1}%), {} events, error rate {:.4}, \
         {}/{} significant scenes detected",
        traces.len(),
        survivors.len(),
        100.0 * survivors.len() as f64 / traces.len() as f64,
        events.len(),
        accuracy.error_rate,
        accuracy.significant_scenes_detected,
        accuracy.significant_scenes
    );
    for (i, ev) in events.iter().enumerate() {
        println!(
            "  event {:>3}: {:>8.1}s – {:>8.1}s  {:>4} frames  peak {} {}(s)",
            i,
            ev.start_ms as f64 / 1000.0,
            ev.end_ms as f64 / 1000.0,
            ev.frames,
            ev.peak_objects,
            target.name()
        );
    }

    if let Some(path) = report_path {
        let report = AnalyzeReport {
            clip: clip_path.display().to_string(),
            target: target.name().to_string(),
            frames_analyzed: traces.len(),
            thresholds: th,
            accuracy,
            events,
        };
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serialize report: {}", e))?;
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write report {}: {}", path.display(), e))?;
        println!("report written to {}", path.display());
    }

    // Replay the analyzed traces through the discrete-event engine to get the
    // full named-series snapshot (DESIGN.md §Telemetry) plus its digest.
    if let Some(path) = telemetry_path {
        let sys = FfsVaConfig::default();
        let input = StreamInput {
            traces: traces.clone(),
            thresholds: th,
        };
        let sim = Engine::new(sys, Mode::Offline, vec![input]).run();
        let digest = PipelineDigest::from_snapshot(&sim.telemetry, sim.makespan_us);
        let export = serde_json::json!({
            "schema_version": 1,
            "clip": clip_path.display().to_string(),
            "makespan_us": sim.makespan_us,
            "digest": digest,
            "snapshot": sim.telemetry,
        });
        let json = serde_json::to_string_pretty(&export)
            .map_err(|e| format!("serialize telemetry: {}", e))?;
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write telemetry {}: {}", path.display(), e))?;
        println!("telemetry written to {}", path.display());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// simulate

/// Build the engine configuration from the common simulate/capacity knobs.
fn system_config(args: &mut Args) -> Result<FfsVaConfig, String> {
    let d = FfsVaConfig::default();
    let mut sys = FfsVaConfig {
        filter_degree: args.parsed("filter-degree", d.filter_degree)?,
        number_of_objects: args.parsed("number", d.number_of_objects)?,
        filter_gpus: args.parsed("filter-gpus", d.filter_gpus)?,
        reference_gpus: args.parsed("ref-gpus", d.reference_gpus)?,
        ..d
    };
    if let Some(b) = args.opt("batch")? {
        sys.batch_policy = parse_batch(&b)?;
    }
    if let Some(p) = args.opt("snm-precision")? {
        sys.snm_precision = parse_precision(&p)?;
    }
    if let Some(p) = args.opt("tyolo-precision")? {
        sys.tyolo_precision = parse_precision(&p)?;
    }
    Ok(sys)
}

fn prepare_pool(
    args: &mut Args,
    default_frames: usize,
    precision: Precision,
    tyolo_precision: Precision,
) -> Result<(PreparedStream, u32), String> {
    let cfg = workload_config(args)?;
    let frames: usize = args.parsed("frames", default_frames)?;
    let train_frames: usize = args.parsed("train-frames", 1500)?;
    let fast = args.flag("fast");
    let fps = cfg.fps;
    println!(
        "preparing stream '{}' (train {} frames, trace {} frames)...",
        cfg.name, train_frames, frames
    );
    let ps = prepare_stream(
        cfg,
        &PrepareOptions {
            train_frames,
            eval_frames: frames.max(1),
            bank: bank_options(fast),
            snm_precision: precision,
            tyolo_precision,
        },
    );
    println!(
        "  delta_diff {:.5}, c_low {:.3}, c_high {:.3}, measured TOR {:.3}",
        ps.delta_diff, ps.c_low, ps.c_high, ps.measured_tor
    );
    Ok((ps, fps))
}

fn cmd_simulate(args: &mut Args) -> Result<(), String> {
    let streams: usize = args.parsed("streams", 1)?;
    let mode = parse_mode(&args.opt("mode")?.unwrap_or_else(|| "online".into()))?;
    let want_baseline = args.flag("baseline");
    let json_path = args.opt("json")?.map(PathBuf::from);
    let telemetry_path = args.opt("telemetry")?.map(PathBuf::from);
    let fault_spec = args.opt("fault-plan")?;
    let instances: usize = args.parsed("instances", 0)?;
    let epoch_frames: u64 = args.parsed("epoch-frames", 150)?;
    if instances == 0 {
        if let Some(spec) = &fault_spec {
            if spec.contains("instance") {
                return Err(
                    "--fault-plan names instance-scoped faults; pass --instances N to run \
                     the cluster control plane"
                        .into(),
                );
            }
        }
    }
    let fault_plan = match (&fault_spec, instances) {
        (Some(spec), 0) => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("invalid --fault-plan: {e}"))?;
            plan.validate()
                .map_err(|e| format!("invalid --fault-plan: {e}"))?;
            Some(plan)
        }
        _ => None,
    };
    let source_plan = match args.opt("source-faults")? {
        Some(spec) => {
            let plan = SourceFaultPlan::parse(&spec)
                .map_err(|e| format!("invalid --source-faults: {e}"))?;
            plan.validate()
                .map_err(|e| format!("invalid --source-faults: {e}"))?;
            Some(plan)
        }
        None => None,
    };
    let checkpoint_dir = args.opt("checkpoint-dir")?.map(PathBuf::from);
    let resume = args.flag("resume");
    let stop_after: usize = args.parsed("stop-after", usize::MAX)?;
    if resume {
        let Some(dir) = &checkpoint_dir else {
            return Err("--resume requires --checkpoint-dir".into());
        };
        // a schema 1 or damaged directory is an error message here, not a
        // panic in the engine after the streams were prepared
        ffs_va::core::load_checkpoints(dir)
            .map_err(|e| format!("cannot resume from {}: {e}", dir.display()))?;
    }
    if stop_after == 0 {
        return Err("--stop-after must be positive".into());
    }
    let sys = system_config(args)?;
    if streams == 0 {
        return Err("--streams must be positive".into());
    }
    let ckpt_interval = sys.checkpoint_interval_frames;
    let (ps, fps) = prepare_pool(args, 900, sys.snm_precision, sys.tyolo_precision)?;

    let mut inputs = tile_inputs(&[ps], streams, &sys);
    // Simulate a kill: the run drains cleanly after the first N frames, so
    // the checkpoints on disk describe a consistent prefix to resume from.
    if stop_after != usize::MAX {
        for input in &mut inputs {
            input.traces.truncate(stop_after);
        }
    }
    if instances > 0 {
        if !matches!(mode, Mode::Online) {
            return Err("--instances runs the online cluster control plane; drop --mode".into());
        }
        if want_baseline || resume || stop_after != usize::MAX {
            return Err("--instances is incompatible with --baseline/--resume/--stop-after".into());
        }
        let cluster_plan = match &fault_spec {
            Some(spec) => {
                let plan = ClusterFaultPlan::parse(spec)
                    .map_err(|e| format!("invalid --fault-plan: {e}"))?;
                plan.validate()
                    .map_err(|e| format!("invalid --fault-plan: {e}"))?;
                Some(plan)
            }
            None => None,
        };
        let root = checkpoint_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("ffsva_cluster_{}", std::process::id()))
        });
        let cfg = ClusterConfig::new(instances, &root).with_epoch_frames(epoch_frames);
        let mut cluster = Cluster::new(sys, cfg);
        if let Some(plan) = &cluster_plan {
            cluster = cluster.with_fault_plan(plan);
        }
        if let Some(plan) = &source_plan {
            cluster = cluster.with_source_plan(plan);
        }
        let report = cluster
            .run(inputs)
            .map_err(|e| format!("cluster run failed: {e}"))?;

        println!(
            "cluster: {} instance(s) x {} stream(s) over {} control epoch(s) \
             ({} frames/stream/epoch)",
            instances,
            report.outcomes.len(),
            report.epochs,
            epoch_frames
        );
        println!(
            "  outcomes: {} completed, {} rejected; instances crashed {}; \
             final liveness {:?}, loads {:?}",
            report.completed(),
            report.rejected(),
            report.telemetry.counter("cluster.instances_crashed"),
            report.alive,
            report.final_loads
        );
        println!(
            "  re-forwards {} (recovered from dead instances {}, retries {}, given up {}); \
             mean hand-over {:.3} ms",
            report.reforwards(),
            report.telemetry.counter("cluster.recoveries"),
            report.telemetry.counter("cluster.reforward_retries"),
            report.telemetry.counter("cluster.reforward_given_up"),
            report.reforward_latency_ms()
        );
        for (s, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                StreamOutcome::Completed {
                    instance,
                    reforwards,
                    survivors,
                } => println!(
                    "  stream {s}: completed on instance {instance} \
                     ({reforwards} re-forward(s), {} surviving frame(s))",
                    survivors.len()
                ),
                StreamOutcome::Rejected {
                    reforwards,
                    retries,
                } => println!(
                    "  stream {s}: REJECTED after {reforwards} re-forward(s), \
                     {retries} failed placement(s)"
                ),
                StreamOutcome::Unfinished {
                    instance,
                    cursor,
                    reforwards,
                } => println!(
                    "  stream {s}: unfinished at frame {cursor} \
                     (instance {instance:?}, {reforwards} re-forward(s))"
                ),
                StreamOutcome::Dropped { cursor, reforwards } => println!(
                    "  stream {s}: dropped by the operator at frame {cursor} \
                     ({reforwards} re-forward(s))"
                ),
            }
        }
        if let Some(path) = json_path {
            let json = serde_json::to_string_pretty(&report)
                .map_err(|e| format!("serialize result: {}", e))?;
            std::fs::write(&path, json)
                .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
            println!("result written to {}", path.display());
        }
        if let Some(path) = telemetry_path {
            let json = serde_json::to_string_pretty(&report.telemetry)
                .map_err(|e| format!("serialize telemetry: {}", e))?;
            std::fs::write(&path, json)
                .map_err(|e| format!("cannot write telemetry {}: {}", path.display(), e))?;
            println!("telemetry written to {}", path.display());
        }
        return Ok(());
    }

    let frames_per_stream = inputs[0].traces.len();
    let mut engine = Engine::new(sys, mode, inputs);
    if let Some(plan) = &fault_plan {
        engine = engine.with_fault_plan(plan);
    }
    if let Some(plan) = &source_plan {
        engine = engine.with_source_plan(plan);
    }
    if let Some(dir) = &checkpoint_dir {
        engine = engine.with_checkpoint(CheckpointSpec::new(dir, ckpt_interval, resume));
    }
    let r = engine.run();

    println!(
        "simulated {} stream(s) x {} frames ({:?}): makespan {:.2}s, {:.1} FPS aggregate",
        streams,
        frames_per_stream,
        mode,
        r.makespan_us / 1e6,
        r.throughput_fps
    );
    println!(
        "  stages executed SDD/SNM/T-YOLO/ref: {:?}; dropped: {:?}",
        r.stage_executed, r.stage_dropped
    );
    if fault_plan.is_some() {
        println!(
            "  fault plan active; frames quarantined per stream: {:?}",
            r.per_stream_quarantined
        );
    }
    if source_plan.is_some() {
        println!(
            "  source faults active: reconnects {}, corrupt {}, reorder evictions {}, \
             duplicates {}; sources lost: {:?}",
            r.telemetry.counter("src.reconnects"),
            r.telemetry.counter("src.corrupt"),
            r.telemetry.counter("src.reorder_evictions"),
            r.telemetry.counter("src.duplicates"),
            r.per_stream_source_lost
        );
    }
    if let Some(dir) = &checkpoint_dir {
        println!(
            "  checkpoints: {} write(s) to {}{}",
            r.telemetry.counter("checkpoint.writes"),
            dir.display(),
            if resume { " (resumed)" } else { "" }
        );
    }
    println!(
        "  ref-path latency mean {:.1} ms, p99 {:.1} ms; T-YOLO {:.1} FPS; \
         CPU {:.0}%, GPU0 {:.0}%, GPU1 {:.0}%",
        r.mean_ref_latency_us / 1e3,
        r.p99_ref_latency_us / 1e3,
        r.tyolo_fps,
        100.0 * r.cpu_utilization,
        100.0 * r.gpu0_utilization,
        100.0 * r.gpu1_utilization
    );
    if matches!(mode, Mode::Online) {
        println!(
            "  real-time at {} FPS: {}",
            fps,
            if r.realtime(fps) { "yes" } else { "NO" }
        );
    }
    if want_baseline {
        let gpus = 2;
        let b = run_baseline(streams, frames_per_stream, mode, fps, gpus);
        println!(
            "  YOLOv2-on-{}-GPUs baseline: {:.1} FPS aggregate — cascade speedup {:.2}x",
            gpus,
            b.throughput_fps,
            r.throughput_fps / b.throughput_fps.max(1e-9)
        );
    }
    if let Some(path) = json_path {
        let json =
            serde_json::to_string_pretty(&r).map_err(|e| format!("serialize result: {}", e))?;
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
        println!("result written to {}", path.display());
    }
    if let Some(path) = telemetry_path {
        let digest = PipelineDigest::from_snapshot(&r.telemetry, r.makespan_us);
        let export = serde_json::json!({
            "schema_version": 1,
            "makespan_us": r.makespan_us,
            "digest": digest,
            "snapshot": r.telemetry,
        });
        let json = serde_json::to_string_pretty(&export)
            .map_err(|e| format!("serialize telemetry: {}", e))?;
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write telemetry {}: {}", path.display(), e))?;
        println!("telemetry written to {}", path.display());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// capacity

fn cmd_capacity(args: &mut Args) -> Result<(), String> {
    let max_streams: usize = args.parsed("max-streams", 64)?;
    let instances: usize = args.parsed("instances", 1)?;
    let sys = system_config(args)?;
    let (ps, fps) = prepare_pool(args, 900, sys.snm_precision, sys.tyolo_precision)?;
    let frames_per_stream = ps.traces.len();
    let pool = [ps];

    let max = find_max_online_streams(&sys, |n| tile_inputs(&pool, n, &sys), max_streams);
    // Baseline capacity: YOLOv2 on every GPU the cascade uses in total.
    let gpus = (sys.filter_gpus + sys.reference_gpus).max(1);
    let mut baseline_max = 0usize;
    for n in 1..=max_streams {
        if run_baseline(n, frames_per_stream, Mode::Online, fps, gpus).realtime(fps) {
            baseline_max = n;
        } else {
            break;
        }
    }

    println!(
        "FFS-VA ({} filter GPU(s) + {} reference GPU(s)): {} live {}-FPS stream(s)",
        sys.filter_gpus, sys.reference_gpus, max, fps
    );
    println!(
        "YOLOv2 baseline on {} GPU(s): {} live stream(s)",
        gpus, baseline_max
    );
    if baseline_max > 0 && max > 0 {
        println!(
            "cascade sustains {:.1}x more streams",
            max as f64 / baseline_max as f64
        );
    }
    if instances > 1 {
        let fleet_max = find_max_cluster_streams(
            &sys,
            instances,
            |n| tile_inputs(&pool, n, &sys),
            max_streams,
        );
        println!();
        println!(
            "fleet of {} instances (re-forwarding allowed to spread load): \
             {} live {}-FPS stream(s){}",
            instances,
            fleet_max,
            fps,
            if max > 0 {
                format!(" — {:.1}x one instance", fleet_max as f64 / max as f64)
            } else {
                String::new()
            }
        );
    }
    println!();
    println!(
        "thread ceiling (DESIGN.md §11): {} stream(s) fit one instance's \
         {DEFAULT_THREAD_BUDGET}-thread budget",
        max_streams_by_threads()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// tune

/// Probe the real SNM batch-latency curve. `--fit-cost` feeds this to
/// `fit_batch_curve_checked` and only trusts the fit when its r² clears the
/// `--min-r2` gate.
fn probe_snm_curve(snm: &mut SnmModel, clip: &[LabeledFrame]) -> Vec<(usize, f64)> {
    use std::time::Instant;
    let mut scratch = Scratch::new();
    let mut samples = Vec::new();
    for &size in &[1usize, 2, 5, 10, 20, 30] {
        let frames: Vec<&Frame> = (0..size).map(|i| &clip[i % clip.len()].frame).collect();
        let _ = snm.predict_batch_frames(&frames, &mut scratch); // warm scratch
        let reps = (64 / size).max(3);
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = snm.predict_batch_frames(&frames, &mut scratch);
        }
        samples.push((size, t0.elapsed().as_secs_f64() * 1e6 / reps as f64));
    }
    samples
}

fn precision_name(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::Int8 => "int8",
    }
}

fn tune_row(rank: usize, c: &TuneCandidate) -> String {
    format!(
        "{:>4} {:>6.2} {:>5.2} {:>5} {:>5} {:>5} {:>5} {:>7.3} {:>7} {:>9.0}",
        rank,
        c.knobs.delta_scale,
        c.knobs.filter_degree,
        c.knobs.relax,
        c.knobs.batch_size,
        c.knobs.num_tyolo,
        precision_name(c.knobs.snm_precision),
        c.scene_miss_rate * 100.0,
        c.forwarded_frames,
        c.predicted_fps.unwrap_or(0.0)
    )
}

/// The `--bless` snippet: the winner as an engine config plus the matching
/// per-stream thresholds (the shape `serve` stream specs accept).
#[derive(Serialize)]
struct BlessedConfig<'a> {
    config: &'a FfsVaConfig,
    thresholds: &'a StreamThresholds,
}

/// Deterministic knob search + optional drift-recalibration ablation.
fn cmd_tune(args: &mut Args) -> Result<(), String> {
    let out = PathBuf::from(args.opt("out")?.unwrap_or_else(|| "TUNE.json".into()));
    let bless = args.opt("bless")?.map(PathBuf::from);
    let drift_out = PathBuf::from(
        args.opt("drift-out")?
            .unwrap_or_else(|| "DRIFT.json".into()),
    );
    let full = args.flag("full");
    let fit_cost = args.flag("fit-cost");
    let want_drift = args.flag("drift-ablation");
    let streams: usize = args.parsed("streams", 4)?;
    let frames: usize = args.parsed("frames", if full { 2000 } else { 600 })?;
    let train_frames: usize = args.parsed("train-frames", if full { 2200 } else { 900 })?;
    let tor: f64 = args.parsed("tor", 0.3)?;
    let seed: u64 = args.parsed("seed", 42)?;
    let miss_bound: f64 = args.parsed("miss-bound", 0.02)?;
    let des_budget: usize = args.parsed("des-budget", 64)?;
    let top_k: usize = args.parsed("top", 10)?;
    let n_obj: usize = args.parsed("n-obj", 1)?;
    let min_r2: f64 = args.parsed("min-r2", 0.9)?;
    // defaults sized for the eval-clip length, not the RT-engine default:
    // ~10 windows across the day→night descent, firing at a 2× mean shift
    let drift_window: usize = args.parsed("drift-window", 60)?;
    let drift_ratio: f64 = args.parsed("drift-ratio", 2.0)?;
    if streams == 0 || frames == 0 {
        return Err("--streams and --frames must be positive".into());
    }
    if !(0.0..=1.0).contains(&miss_bound) {
        return Err("--miss-bound must be in [0, 1]".into());
    }

    let cfg = if full {
        let mut c = workloads::jackson();
        c.seed = seed;
        c
    } else {
        workloads::test_tiny(ObjectClass::Car, tor, seed)
    };
    let workload_name = cfg.name.clone();
    let target = cfg.target;
    println!(
        "tune: workload '{}' (train {} frames, calibrate {} frames; \
         miss bound {:.1}%, DES budget {})",
        workload_name,
        train_frames,
        frames,
        miss_bound * 100.0,
        des_budget
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut camera = VideoStream::new(0, cfg);
    let training = camera.clip(train_frames);
    let mut bank = FilterBank::build(&training, target, &bank_options(!full), &mut rng);
    let calib = camera.clip(frames);
    let traces_f32 = bank.trace_clip(&calib);
    let traces_int8 = bank.trace_clip_int8(&calib);

    let snm_cost = if fit_cost {
        let mut probe = bank.snm.clone();
        let samples = probe_snm_curve(&mut probe, &calib);
        let paper = ffs_va::models::snm_cost();
        match fit_batch_curve_checked(&samples, paper.resize_us, paper.mem_bytes) {
            Some(fit) if fit.r_squared >= min_r2 => {
                println!(
                    "--fit-cost: DES priced with the measured SNM curve \
                     (invoke {:.0} us + {:.1} us/frame, r² {:.3})",
                    fit.spec.invoke_us, fit.spec.per_frame_us, fit.r_squared
                );
                Some(fit.spec)
            }
            Some(fit) => {
                println!(
                    "--fit-cost: fit r² {:.3} below --min-r2 {:.2} \
                     (rmse {:.0} us); keeping calibrated costs",
                    fit.r_squared, min_r2, fit.rmse_us
                );
                None
            }
            None => {
                println!("--fit-cost: degenerate batch curve, keeping calibrated costs");
                None
            }
        }
    } else {
        None
    };

    let input = TuneInput {
        workload: workload_name.clone(),
        traces_f32,
        traces_int8: Some(traces_int8),
        delta_diff: bank.sdd.delta_diff,
        c_low: bank.snm.c_low,
        c_high: bank.snm.c_high,
    };
    let opts = TuneOptions {
        miss_rate_bound: miss_bound,
        streams,
        number_of_objects: n_obj,
        des_budget,
        top_k,
        snm_cost,
        seed,
    };
    let report = tune(&input, &opts);

    println!(
        "searched {} candidate(s): {} feasible, {} DES run(s)",
        report.evaluated, report.feasible, report.des_runs
    );
    let base = &report.baseline;
    let base_fps = base.predicted_fps.unwrap_or(0.0);
    println!(
        "baseline: miss {:.3}%, {} forwarded -> {:.0} fps{}",
        base.scene_miss_rate * 100.0,
        base.forwarded_frames,
        base_fps,
        if base.feasible { "" } else { "  [infeasible]" }
    );
    match &report.winner {
        Some(w) => {
            let fps = w.predicted_fps.unwrap_or(0.0);
            let gain = if base_fps > 0.0 {
                (fps / base_fps - 1.0) * 100.0
            } else {
                0.0
            };
            println!(
                "winner:   miss {:.3}%, {} forwarded -> {:.0} fps ({:+.1}% vs baseline)",
                w.scene_miss_rate * 100.0,
                w.forwarded_frames,
                fps,
                gain
            );
        }
        None => println!(
            "no feasible candidate under the {:.1}% miss bound",
            miss_bound * 100.0
        ),
    }
    println!();
    println!(
        "{:>4} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>7} {:>7} {:>9}",
        "rank", "dx", "FD", "relax", "batch", "tyolo", "prec", "miss%", "fwd", "fps"
    );
    for (i, c) in report.ranked.iter().enumerate() {
        println!("{}", tune_row(i + 1, c));
    }

    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("serialize tune: {}", e))?;
    std::fs::write(&out, json).map_err(|e| format!("cannot write {}: {}", out.display(), e))?;
    println!("tune report written to {}", out.display());

    if let Some(path) = bless {
        match (&report.config, &report.winner) {
            (Some(cfg), Some(w)) => {
                let snippet = BlessedConfig {
                    config: cfg,
                    thresholds: &w.thresholds,
                };
                let json = serde_json::to_string_pretty(&snippet)
                    .map_err(|e| format!("serialize blessed config: {}", e))?;
                std::fs::write(&path, json)
                    .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
                println!("blessed config written to {}", path.display());
            }
            _ => println!("--bless: no feasible winner, nothing blessed"),
        }
    }

    if want_drift {
        // Day→night vehicle: train on a static-illumination camera, then
        // evaluate on a dynamic twin (same seed, same scene texture) whose
        // illumination descends to the cycle trough across the eval clip —
        // the regime the statically-trained bank was never calibrated for.
        let mut day = if full {
            let mut c = workloads::jackson();
            c.seed = seed;
            c
        } else {
            workloads::test_tiny(target, tor, seed)
        };
        day.background = BackgroundKind::Static;
        let mut night = day.clone();
        night.name = format!("{}-drift", workload_name);
        night.background = BackgroundKind::Dynamic {
            period_frames: (2 * frames) as u64,
            amplitude: 0.8,
            drift_sigma: 0.0,
        };
        let mut cam_day = VideoStream::new(0, day);
        let training = cam_day.clip(train_frames);
        // identically-trained twins: each pipeline run consumes its bank
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let bank_static = FilterBank::build(&training, target, &bank_options(!full), &mut rng_a);
        let bank_recal = FilterBank::build(&training, target, &bank_options(!full), &mut rng_b);
        let mut cam_night = VideoStream::new(0, night);
        let eval = cam_night.clip(frames);
        let drift = DriftConfig {
            window: drift_window,
            ratio: drift_ratio,
            cooldown: drift_window * 2,
            ..DriftConfig::default()
        };
        let sys = FfsVaConfig::default().with_number_of_objects(n_obj);
        let ab = drift_ablation(&eval, bank_static, bank_recal, &sys, drift);
        println!();
        println!(
            "drift ablation ({} frames, day->night, window {}, ratio {:.1}):",
            ab.frames, drift_window, drift_ratio
        );
        println!(
            "  detections {}, sdd rebuilds {}, snm retunes {}",
            ab.detections, ab.sdd_rebuilds, ab.snm_retunes
        );
        println!(
            "  static pipeline: {} survivor(s), scene miss {:.2}%",
            ab.static_survivors,
            ab.static_miss_rate * 100.0
        );
        println!(
            "  recalibrating:   {} survivor(s), scene miss {:.2}%",
            ab.recal_survivors,
            ab.recal_miss_rate * 100.0
        );
        let json =
            serde_json::to_string_pretty(&ab).map_err(|e| format!("serialize drift: {}", e))?;
        std::fs::write(&drift_out, json)
            .map_err(|e| format!("cannot write {}: {}", drift_out.display(), e))?;
        println!("drift ablation written to {}", drift_out.display());
    }

    Ok(())
}

// ---------------------------------------------------------------------------
// serve

fn cmd_serve(args: &mut Args) -> Result<(), String> {
    let state_dir = PathBuf::from(args.req("state-dir")?);
    let addr = args.opt("addr")?.unwrap_or_else(|| "127.0.0.1:0".into());
    let instances: usize = args.parsed("instances", 2)?;
    let epoch_frames: u64 = args.parsed("epoch-frames", 150)?;
    let epoch_interval_ms: u64 = args.parsed("epoch-interval-ms", 0)?;
    let resume = args.flag("resume");
    if instances == 0 {
        return Err("--instances must be positive".into());
    }
    if epoch_frames == 0 {
        return Err("--epoch-frames must be positive".into());
    }
    let fault_plan = match args.opt("fault-plan")? {
        Some(spec) => {
            let plan =
                ClusterFaultPlan::parse(&spec).map_err(|e| format!("invalid --fault-plan: {e}"))?;
            plan.validate()
                .map_err(|e| format!("invalid --fault-plan: {e}"))?;
            Some(plan)
        }
        None => None,
    };
    let source_plan = match args.opt("source-faults")? {
        Some(spec) => {
            let plan = SourceFaultPlan::parse(&spec)
                .map_err(|e| format!("invalid --source-faults: {e}"))?;
            plan.validate()
                .map_err(|e| format!("invalid --source-faults: {e}"))?;
            Some(plan)
        }
        None => None,
    };
    args.ensure_empty()?;

    let cfg = ServeConfig {
        addr,
        state_dir: state_dir.clone(),
        instances,
        epoch_frames,
        fault_plan,
        source_plan,
        resume,
        epoch_interval: std::time::Duration::from_millis(epoch_interval_ms),
    };
    let daemon = Daemon::start(FfsVaConfig::default(), cfg).map_err(|e| format!("serve: {e}"))?;
    install_signal_drain();
    println!(
        "ffsva serve: listening on {} (state dir {}, {} instance(s), {} frames/epoch{})",
        daemon.local_addr(),
        state_dir.display(),
        instances,
        epoch_frames,
        if resume { ", resumed" } else { "" }
    );
    // supervisors scrape stdout for the address; don't sit on it
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let report = daemon.run().map_err(|e| format!("serve: {e}"))?;
    println!(
        "drained at epoch {} ({}): {} stream(s); manifest {}",
        report.epoch,
        report.reason,
        report.streams.len(),
        report.manifest
    );
    for st in &report.streams {
        println!(
            "  stream {}: {} at frame {}/{} ({} survivor(s){})",
            st.id,
            st.state,
            st.cursor,
            st.total_frames,
            st.survivors,
            if st.source_lost { ", source lost" } else { "" }
        );
    }
    Ok(())
}

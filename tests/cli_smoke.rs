//! Smoke tests for the `ffsva` operator CLI: every subcommand runs on the
//! tiny synthetic workload, exits 0, and produces its documented artifact.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ffsva(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ffsva"))
        .args(args)
        .output()
        .expect("failed to launch ffsva binary")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{} failed (status {:?})\nstdout:\n{}\nstderr:\n{}",
        what,
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Fresh scratch directory per test so parallel tests never collide.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ffsva_smoke_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn record(clip: &Path, frames: &str, seed: &str) {
    let out = ffsva(&[
        "record",
        "--workload",
        "test",
        "--out",
        clip.to_str().unwrap(),
        "--frames",
        frames,
        "--seed",
        seed,
    ]);
    assert_ok(&out, "record");
}

#[test]
fn record_writes_a_readable_ffsv1_clip() {
    let dir = Scratch::new("record");
    let clip = dir.path("clip.ffsv");
    record(&clip, "120", "5");

    // the documented artifact: an FFSV1 clip the library can read back
    let frames = ffs_va::video::read_clip(&clip).expect("clip must be readable");
    assert_eq!(frames.len(), 120);
}

#[test]
fn record_then_analyze_chain_produces_event_report() {
    let dir = Scratch::new("analyze");
    let clip = dir.path("clip.ffsv");
    let report = dir.path("report.json");
    record(&clip, "700", "42");

    let out = ffsva(&[
        "analyze",
        "--clip",
        clip.to_str().unwrap(),
        "--target",
        "car",
        "--train-frames",
        "400",
        "--fast",
        "--report",
        report.to_str().unwrap(),
    ]);
    assert_ok(&out, "analyze");
    assert!(stdout(&out).contains("analyzed 300 frames"));

    let json: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&report).expect("report written"))
            .expect("report is valid JSON");
    assert_eq!(json["frames_analyzed"], 300);
    assert_eq!(json["target"], "car");
    assert!(json["events"].is_array());
    assert!(json["accuracy"]["total_frames"].is_number());
}

#[test]
fn train_profile_feeds_analyze() {
    let dir = Scratch::new("train");
    let clip = dir.path("clip.ffsv");
    let profile = dir.path("profile.json");
    let report = dir.path("report.json");
    record(&clip, "500", "9");

    let out = ffsva(&[
        "train",
        "--clip",
        clip.to_str().unwrap(),
        "--target",
        "car",
        "--train-frames",
        "400",
        "--fast",
        "--out",
        profile.to_str().unwrap(),
    ]);
    assert_ok(&out, "train");
    let json: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&profile).expect("profile written"))
            .expect("profile is valid JSON");
    assert!(json["sdd"].is_object() && json["snm"].is_object());

    // a profile skips in-situ training, so the whole clip is analyzed
    let out = ffsva(&[
        "analyze",
        "--clip",
        clip.to_str().unwrap(),
        "--target",
        "car",
        "--profile",
        profile.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ]);
    assert_ok(&out, "analyze --profile");
    assert!(stdout(&out).contains("analyzed 500 frames"));
    assert!(report.exists());
}

#[test]
fn simulate_writes_engine_result_json() {
    let dir = Scratch::new("simulate");
    let json_path = dir.path("result.json");
    let out = ffsva(&[
        "simulate",
        "--workload",
        "test",
        "--streams",
        "3",
        "--frames",
        "500",
        "--train-frames",
        "600",
        "--fast",
        "--mode",
        "offline",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_ok(&out, "simulate");
    assert!(stdout(&out).contains("simulated 3 stream(s)"));

    let json: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&json_path).expect("result written"))
            .expect("result is valid JSON");
    assert_eq!(json["total_frames"], 1500);
    assert_eq!(json["num_streams"], 3);
}

/// Crash-safe checkpointing end to end: a run checkpointed and killed partway
/// (`--stop-after`), then resumed over the full input, must report the same
/// survivor sets and frame counters as one uninterrupted run.
#[test]
fn simulate_checkpoint_kill_resume_reproduces_uninterrupted_run() {
    let dir = Scratch::new("resume");
    let base = [
        "simulate",
        "--workload",
        "test",
        "--streams",
        "2",
        "--frames",
        "300",
        "--train-frames",
        "600",
        "--fast",
        "--mode",
        "offline",
    ];
    let run = |extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        ffsva(&args)
    };
    let read_json = |path: &Path| -> serde_json::Value {
        serde_json::from_slice(&std::fs::read(path).expect("result written"))
            .expect("result is valid JSON")
    };
    let frames_counters = |v: &serde_json::Value| -> std::collections::BTreeMap<String, u64> {
        v["telemetry"]["counters"]
            .as_object()
            .expect("telemetry counters present")
            .iter()
            .filter(|(k, _)| k.contains("frames_"))
            .map(|(k, c)| (k.clone(), c.as_u64().unwrap()))
            .collect()
    };

    // the uninterrupted reference run
    let full_json = dir.path("full.json");
    let ckpt_full = dir.path("ckpt_full");
    let out = run(&[
        "--checkpoint-dir",
        ckpt_full.to_str().unwrap(),
        "--json",
        full_json.to_str().unwrap(),
    ]);
    assert_ok(&out, "simulate --checkpoint-dir");
    assert!(
        stdout(&out).contains("checkpoint"),
        "no checkpoint summary:\n{}",
        stdout(&out)
    );
    assert!(
        std::fs::read_dir(&ckpt_full)
            .map(|d| d.count() > 0)
            .unwrap_or(false),
        "no checkpoint files written"
    );

    // the same run killed after 150 frames per stream...
    let ckpt_cut = dir.path("ckpt_cut");
    let out = run(&[
        "--checkpoint-dir",
        ckpt_cut.to_str().unwrap(),
        "--stop-after",
        "150",
    ]);
    assert_ok(&out, "simulate --stop-after");

    // ...then resumed over the full input
    let resumed_json = dir.path("resumed.json");
    let out = run(&[
        "--checkpoint-dir",
        ckpt_cut.to_str().unwrap(),
        "--resume",
        "--json",
        resumed_json.to_str().unwrap(),
    ]);
    assert_ok(&out, "simulate --resume");
    assert!(
        stdout(&out).contains("(resumed)"),
        "resume not reported:\n{}",
        stdout(&out)
    );

    let full = read_json(&full_json);
    let resumed = read_json(&resumed_json);
    assert_eq!(
        resumed["per_stream_survivors"], full["per_stream_survivors"],
        "kill+resume changed the survivor sets"
    );
    assert_eq!(
        frames_counters(&resumed),
        frames_counters(&full),
        "kill+resume changed the frame counters"
    );

    // --resume without a checkpoint dir is a usage error
    let out = run(&["--resume"]);
    assert!(!out.status.success());
}

#[test]
fn analyze_exports_telemetry_snapshot() {
    let dir = Scratch::new("telemetry");
    let clip = dir.path("clip.ffsv");
    let tele = dir.path("telemetry.json");
    record(&clip, "700", "42");

    let out = ffsva(&[
        "analyze",
        "--clip",
        clip.to_str().unwrap(),
        "--target",
        "car",
        "--train-frames",
        "400",
        "--fast",
        "--telemetry",
        tele.to_str().unwrap(),
    ]);
    assert_ok(&out, "analyze --telemetry");

    let json: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&tele).expect("telemetry written"))
            .expect("telemetry is valid JSON");
    assert_eq!(json["schema_version"], 1);
    // the replayed DES run covers exactly the analyzed tail of the clip
    assert_eq!(json["snapshot"]["counters"]["pipeline.frames_in"], 300);
    assert!(json["digest"]["throughput_fps"].as_f64().unwrap() > 0.0);
    assert!(json["snapshot"]["histograms"]["latency.e2e_us"]["count"].is_number());
}

/// `tune` end to end: TUNE.json + blessed config + drift ablation written,
/// and a second identical invocation produces a byte-identical report.
#[test]
fn tune_writes_deterministic_report_blessed_config_and_drift_ablation() {
    let dir = Scratch::new("tune");
    let report = dir.path("TUNE.json");
    let blessed = dir.path("blessed.json");
    let drift = dir.path("DRIFT.json");
    let run = |report: &Path| {
        ffsva(&[
            "tune",
            "--out",
            report.to_str().unwrap(),
            "--bless",
            blessed.to_str().unwrap(),
            "--streams",
            "2",
            "--frames",
            "300",
            "--train-frames",
            "500",
            "--seed",
            "7",
            "--des-budget",
            "4",
            "--top",
            "3",
            "--drift-ablation",
            "--drift-out",
            drift.to_str().unwrap(),
            "--drift-window",
            "30",
        ])
    };
    let out = run(&report);
    assert_ok(&out, "tune");
    let text = stdout(&out);
    assert!(
        text.contains("winner:") || text.contains("no feasible candidate"),
        "no search outcome reported:\n{}",
        text
    );
    assert!(
        text.contains("drift ablation"),
        "drift leg missing:\n{}",
        text
    );

    let json: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&report).expect("TUNE.json written"))
            .expect("TUNE.json is valid JSON");
    assert_eq!(json["schema_version"], 1);
    assert!(json["evaluated"].as_u64().unwrap() > 0);
    assert!(json["baseline"]["predicted_fps"].is_number());
    let ranked = json["ranked"].as_array().expect("ranked list");
    assert!(ranked.len() <= 3);
    if json["winner"].is_object() {
        // a feasible winner implies a blessable config + thresholds snippet
        assert!(
            json["winner"]["scene_miss_rate"].as_f64().unwrap()
                < json["miss_rate_bound"].as_f64().unwrap()
        );
        let snip: serde_json::Value =
            serde_json::from_slice(&std::fs::read(&blessed).expect("blessed config written"))
                .expect("blessed config is valid JSON");
        assert!(snip["config"]["filter_degree"].is_number());
        assert!(snip["thresholds"]["delta_diff"].is_number());
    }

    let dj: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&drift).expect("DRIFT.json written"))
            .expect("DRIFT.json is valid JSON");
    assert_eq!(dj["frames"], 300);
    assert!(dj["static_miss_rate"].is_number() && dj["recal_miss_rate"].is_number());

    // determinism: same inputs → byte-identical report
    let report2 = dir.path("TUNE2.json");
    let out = run(&report2);
    assert_ok(&out, "tune (second run)");
    assert_eq!(
        std::fs::read(&report).unwrap(),
        std::fs::read(&report2).unwrap(),
        "tune reports differ between identical runs"
    );
}

#[test]
fn capacity_compares_cascade_against_baseline() {
    let out = ffsva(&[
        "capacity",
        "--workload",
        "test",
        "--frames",
        "300",
        "--train-frames",
        "600",
        "--fast",
        "--max-streams",
        "12",
    ]);
    assert_ok(&out, "capacity");
    let text = stdout(&out);
    assert!(
        text.contains("FFS-VA"),
        "missing cascade capacity line:\n{}",
        text
    );
    assert!(
        text.contains("baseline"),
        "missing baseline line:\n{}",
        text
    );
    // one thread-ceiling line from the one formula (`max_streams_by_threads`)
    assert!(
        text.contains("thread ceiling") && text.contains("239 stream(s)"),
        "missing thread-ceiling line:\n{}",
        text
    );
}

/// The stage executor is not an operator's choice: the engine picks how its
/// workers wait from the stream count, and the flags that used to compare
/// two layouts are gone.
#[test]
fn capacity_rejects_the_retired_pooled_flag() {
    let out = ffsva(&[
        "capacity",
        "--workload",
        "test",
        "--frames",
        "300",
        "--train-frames",
        "600",
        "--fast",
        "--max-streams",
        "2",
        "--pooled",
    ]);
    assert_eq!(out.status.code(), Some(2), "--pooled must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unrecognized arguments: --pooled"),
        "stderr:\n{}",
        err
    );
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    // `bench` is not a subcommand: measuring is the repo benchmark's job
    // (`benchmark/`), not the operator CLI's
    for unknown in ["frobnicate", "bench"] {
        let out = ffsva(&[unknown]);
        assert_eq!(out.status.code(), Some(2), "{unknown}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
    }

    // missing required option
    let out = ffsva(&["record", "--workload", "test"]);
    assert!(!out.status.success());

    // unrecognized trailing option must be rejected, not ignored
    let dir = Scratch::new("badargs");
    let clip = dir.path("clip.ffsv");
    let out = ffsva(&[
        "record",
        "--workload",
        "test",
        "--out",
        clip.to_str().unwrap(),
        "--frames",
        "10",
        "--bogus",
        "1",
    ]);
    assert!(!out.status.success());
}

//! One-screen digest of every experiment's JSON output in `results/` —
//! run after the suite to sanity-check the headline shapes at a glance.

use ffsva_bench::report::table;
use ffsva_bench::results_dir;
use serde_json::Value;

fn load(name: &str) -> Option<Value> {
    let bytes = std::fs::read(results_dir().join(format!("{}.json", name))).ok()?;
    serde_json::from_slice(&bytes).ok()
}

fn f(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for p in path {
        cur = cur.get(p)?;
    }
    cur.as_f64()
}

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut missing = Vec::new();

    if let Some(h) = load("headline") {
        rows.push(vec![
            "offline speedup vs YOLOv2 (paper 3x)".into(),
            format!("{:.2}x", f(&h, &["offline_speedup"]).unwrap_or(f64::NAN)),
        ]);
        rows.push(vec![
            "max online streams (paper 30)".into(),
            format!("{}", f(&h, &["ffs_max_online_streams"]).unwrap_or(f64::NAN)),
        ]);
        rows.push(vec![
            "online ratio vs YOLOv2 (paper 7x)".into(),
            format!(
                "{:.1}x",
                f(&h, &["online_scalability_ratio"]).unwrap_or(f64::NAN)
            ),
        ]);
        rows.push(vec![
            "worst scene-miss rate (paper <2%)".into(),
            format!(
                "{:.3}",
                f(&h, &["worst_scene_miss_rate"]).unwrap_or(f64::NAN)
            ),
        ]);
    } else {
        missing.push("headline");
    }

    if let Some(t2) = load("table2") {
        rows.push(vec![
            "table2 error rate (paper ~4.5%)".into(),
            format!("{:.3}", f(&t2, &["error_rate"]).unwrap_or(f64::NAN)),
        ]);
        rows.push(vec![
            "table2 scene loss".into(),
            format!("{:.3}", f(&t2, &["scene_miss_rate"]).unwrap_or(f64::NAN)),
        ]);
    } else {
        missing.push("table2");
    }

    if let Some(a) = load("ablation_tyolo_sharing") {
        if let Some(arr) = a.get("rows").and_then(|r| r.as_array()) {
            if let Some(last) = arr.last() {
                let shared = f(last, &["shared_fps"]).unwrap_or(f64::NAN);
                let solo = f(last, &["per_stream_fps"]).unwrap_or(f64::NAN);
                rows.push(vec![
                    "T-YOLO sharing speedup (most streams)".into(),
                    format!("{:.1}x", shared / solo),
                ]);
            }
        }
    } else {
        missing.push("ablation_tyolo_sharing");
    }

    if let Some(s) = load("scaling") {
        if let Some(arr) = s.get("rows").and_then(|r| r.as_array()) {
            if let (Some(first), Some(last)) = (arr.first(), arr.last()) {
                rows.push(vec![
                    "GPU scaling: max streams 1+1 -> 4+4".into(),
                    format!(
                        "{} -> {}",
                        f(first, &["max_online_streams"]).unwrap_or(f64::NAN),
                        f(last, &["max_online_streams"]).unwrap_or(f64::NAN)
                    ),
                ]);
            }
        }
    } else {
        missing.push("scaling");
    }

    if let Some(b) = load("burst") {
        if let Some(arr) = b.get("rows").and_then(|r| r.as_array()) {
            if arr.len() == 2 {
                let ok = arr[1]
                    .get("recovered_realtime")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false)
                    && arr[1]
                        .get("all_frames_processed")
                        .and_then(|v| v.as_bool())
                        .unwrap_or(false);
                rows.push(vec![
                    "burst: recovered, no frames lost".into(),
                    ok.to_string(),
                ]);
            }
        }
    } else {
        missing.push("burst");
    }

    println!("== results digest ==");
    println!("{}", table(&["metric", "measured"], &rows));
    if !missing.is_empty() {
        println!("missing results (run the suite first): {:?}", missing);
    }
}

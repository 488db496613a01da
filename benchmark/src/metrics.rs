//! Names, units and directions of every metric, in one place: `run` and
//! `trace` report against these tables, `compare` takes its bounds from
//! them, and a test holds BENCHMARK.json to them.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// The workloads ISSUE 11 defines the metric on; empty means all four.
    /// The driver's contract has every run print every end-to-end metric, so
    /// the other workloads print it too (README.md, "End-to-end metrics",
    /// says what); `compare` holds only scoped pairings against the bounds.
    pub scope: &'static [&'static str],
}

impl EndToEnd {
    pub fn scoped_to(&self, workload: &str) -> bool {
        self.scope.is_empty() || self.scope.contains(&workload)
    }
}

/// The six end-to-end metrics.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        scope: &[],
    },
    EndToEnd {
        name: "throughput_fps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        scope: &[],
    },
    EndToEnd {
        name: "cpu_us_per_frame",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        scope: &["rt_sparse", "rt_dense"],
    },
    EndToEnd {
        name: "ref_latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        scope: &["rt_sparse", "rt_dense"],
    },
    EndToEnd {
        name: "epoch_wall_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        scope: &["cluster_failover"],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        scope: &[],
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only BENCHMARK.json carries a per-layer direction; the test that
    /// holds that file to this table is its one reader.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, layer = crate (and module) name. Exact counts and
/// model outputs carry a direction only because the schema wants one.
pub const PER_LAYER: [Layer; 70] = [
    lo("harness.setup_peak_rss_mb", "MB"),
    lo("tensor.matmul_128_us", "us"),
    lo("tensor.matmul_128_scalar_us", "us"),
    lo("tensor.gemm_snm_conv1_b10_us", "us"),
    lo("tensor.gemm_snm_conv2_b10_us", "us"),
    lo("tensor.im2col_snm_conv1_us", "us"),
    lo("tensor.im2col_snm_conv2_us", "us"),
    lo("tensor.gemm_i8_snm_conv2_b10_us", "us"),
    lo("tensor.im2col_i8_snm_conv1_us", "us"),
    lo("tensor.quantize_rows_us", "us"),
    lo("tensor.sum_sq_diff_100x100_us", "us"),
    lo("tensor.sum_sq_diff_100x100_scalar_us", "us"),
    hi("tensor.simd_active", "count"),
    lo("video.generate_us_per_frame", "us"),
    lo("video.resize_sdd_us", "us"),
    lo("video.resize_snm_us", "us"),
    lo("video.resize_tyolo_us", "us"),
    lo("video.checksum_us_per_frame", "us"),
    lo("video.wire_encode_us", "us"),
    lo("video.wire_decode_us", "us"),
    hi("video.clip_write_mb_s", "MB/s"),
    hi("video.clip_read_mb_s", "MB/s"),
    lo("models.sdd_distance_us", "us"),
    lo("models.snm_b1_us_per_frame", "us"),
    lo("models.snm_b10_us_per_frame", "us"),
    lo("models.snm_int8_b10_us_per_frame", "us"),
    lo("models.tyolo_count_us", "us"),
    lo("models.tyolo_count_int8_us", "us"),
    lo("models.reference_count_us", "us"),
    lo("models.trace_frame_us", "us"),
    lo("models.bank_build_s", "s"),
    lo("models.sdd_pass_rate", "ratio"),
    lo("models.snm_pass_rate", "ratio"),
    lo("models.tyolo_pass_rate", "ratio"),
    lo("models.scene_miss_rate", "ratio"),
    lo("sched.queue_hop_ns", "ns"),
    lo("sched.queue_handoff_us", "us"),
    lo("sched.simqueue_hop_ns", "ns"),
    lo("sched.event_queue_ns", "ns"),
    lo("sched.ingest_accept_ns", "ns"),
    lo("sched.stage_spawn_join_us", "us"),
    lo("telemetry.counter_inc_ns", "ns"),
    lo("telemetry.histogram_record_ns", "ns"),
    lo("telemetry.snapshot_us", "us"),
    lo("core.rt.stage_frames.sdd", "count"),
    lo("core.rt.stage_frames.snm", "count"),
    lo("core.rt.stage_frames.tyolo", "count"),
    lo("core.rt.stage_frames.reference", "count"),
    hi("core.rt.snm_mean_batch", "count"),
    lo("core.rt.e2e_latency_mean_ms", "ms"),
    lo("core.rt.queue_depth_p99.sdd", "count"),
    lo("core.rt.queue_depth_p99.snm", "count"),
    lo("core.rt.queue_depth_p99.tyolo", "count"),
    lo("core.rt.queue_depth_p99.reference", "count"),
    hi("core.rt.cpu_explained_pct", "%"),
    lo("core.des.us_per_sim_frame", "us"),
    lo("core.des.engine_new_us", "us"),
    lo("core.des.makespan_virtual_s", "s"),
    lo("core.des.p99_latency_virtual_ms", "ms"),
    hi("core.des.mean_snm_batch", "count"),
    hi("core.des.realtime", "count"),
    lo("core.checkpoint.write_us", "us"),
    lo("core.checkpoint.load_us", "us"),
    lo("core.checkpoint.bytes", "count"),
    lo("core.cluster.offer_ms", "ms"),
    lo("core.cluster.epoch_wall_p99_ms", "ms"),
    lo("core.cluster.epochs", "count"),
    lo("core.cluster.reforwards", "count"),
    lo("core.cluster.reforward_ms", "ms"),
    lo("core.cluster.epoch_overhead_pct", "%"),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    let d = END_TO_END.iter().find(|d| d.name == name);
    d.unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

/// `(name, unit)` of the per-layer metric called `name`.
pub fn per_layer(name: &str) -> (&'static str, &'static str) {
    let d = PER_LAYER.iter().find(|d| d.name == name);
    let d = d.unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    (d.name, d.unit)
}

impl EndToEnd {
    /// `(name, unit)`, as `Measured::of` and `Measured::exact` take them.
    pub fn id(&self) -> (&'static str, &'static str) {
        (self.name, self.unit)
    }
}

/// One reported number: a median (or exact count) with the spread and size
/// of the sample behind it, where there is one.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub iqr: Option<f64>,
    pub samples: usize,
    /// An end-to-end metric on a workload ISSUE 11 does not define it on.
    pub unscoped: bool,
}

impl Measured {
    /// Median and IQR of `samples` for the metric `(name, unit)`.
    pub fn of((name, unit): (&'static str, &'static str), samples: &[f64]) -> Self {
        Measured {
            name,
            unit,
            value: crate::stats::median(samples),
            iqr: (samples.len() >= 2).then(|| crate::stats::iqr(samples)),
            samples: samples.len(),
            unscoped: false,
        }
    }

    /// A single reading or exact count.
    pub fn exact((name, unit): (&'static str, &'static str), value: f64) -> Self {
        Measured {
            name,
            unit,
            value,
            iqr: None,
            samples: 1,
            unscoped: false,
        }
    }

    pub fn line(&self) -> String {
        let spread = match self.iqr {
            Some(iqr) => format!("  IQR {iqr:.4} over {} samples", self.samples),
            None => String::new(),
        };
        let scope = if self.unscoped {
            "  (not defined on this workload by ISSUE 11; not held by compare)"
        } else {
            ""
        };
        format!(
            "{:<40} {:>14.4} {:<6}{spread}{scope}",
            self.name, self.value, self.unit
        )
    }
}

/// A metric as the result files and the driver's line carry it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

pub fn metrics_map(metrics: &[Measured]) -> BTreeMap<String, MetricValue> {
    metrics
        .iter()
        .map(|m| {
            let value = MetricValue {
                value: m.value,
                unit: m.unit.to_string(),
            };
            (m.name.to_string(), value)
        })
        .collect()
}

/// The last line of standard output in the driver's form.
#[derive(Debug, Serialize)]
pub struct DriverLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Where and on what a set of runs was measured.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub simd_active: bool,
    pub ckpt_fs: String,
    /// Third-party crates the binary was built against: the published ones
    /// or the stand-ins under vendor/.
    pub deps: String,
}

/// One `benchmark run`, as a set file keeps it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// A set of runs at one commit: what `compare` reads and `--append` grows.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunSet {
    pub fingerprint: Fingerprint,
    pub runs: Vec<RunRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_schema_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[derive(Deserialize)]
    struct WorkloadSpec {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct EndToEndSpec {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct LayerSpec {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Deserialize)]
    struct Spec {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadSpec>,
        end_to_end: Vec<EndToEndSpec>,
        per_layer: Vec<LayerSpec>,
    }

    /// BENCHMARK.json is written by hand; this keeps it from drifting.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: Spec =
            serde_json::from_str(&text).expect("BENCHMARK.json has the contract's keys");

        assert_eq!(spec.paths, ["benchmark"]);
        assert!(spec.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        // a stand-in build is asked for by name, never patched in silently
        assert!(spec.command.iter().any(|a| a == "benchmark/offline.toml"));
        assert_eq!(spec.run_seconds as f64, crate::RUN_SECONDS);
        let ours = crate::workloads::Workload::ALL.map(|w| w.name());
        assert_eq!(
            spec.workloads
                .iter()
                .map(|w| w.name.as_str())
                .collect::<Vec<_>>(),
            ours
        );
        assert!(spec
            .workloads
            .iter()
            .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));

        assert_eq!(spec.end_to_end.len(), END_TO_END.len());
        for (spec, def) in spec.end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(
                (spec.name.as_str(), spec.unit.as_str()),
                (def.name, def.unit)
            );
            assert_eq!(spec.better, def.better.as_str(), "{}", def.name);
            assert_eq!(spec.bound, def.bound, "{}", def.name);
        }
        assert_eq!(spec.per_layer.len(), PER_LAYER.len());
        for (spec, def) in spec.per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(
                (spec.name.as_str(), spec.unit.as_str()),
                (def.name, def.unit)
            );
            assert_eq!(spec.better, def.better.as_str(), "{}", def.name);
        }
    }

    #[test]
    fn result_records_round_trip_with_every_digit() {
        let m = [
            Measured::exact(("latency_ms", "ms"), 1.2034),
            Measured::of(("x", "s"), &[1.0, 3.0]),
        ];
        let line = DriverLine {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: metrics_map(&m),
        };
        let json = serde_json::to_string(&line).unwrap();
        assert_eq!(
            json,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":1.2034,"unit":"ms"},"x":{"value":2.0,"unit":"s"}}}"#
        );
        let set = RunSet {
            fingerprint: Fingerprint {
                nproc: 2,
                ..Default::default()
            },
            runs: vec![RunRecord {
                workload: "rt_sparse".to_string(),
                seed: u64::MAX,
                seconds: 10.0,
                reps: 3,
                ops_attempted: 5,
                ops_failed: 0,
                metrics: metrics_map(&m),
            }],
        };
        let back: RunSet =
            serde_json::from_str(&serde_json::to_string_pretty(&set).unwrap()).unwrap();
        assert_eq!(back.fingerprint, set.fingerprint);
        assert_eq!(back.runs[0].seed, u64::MAX);
        assert_eq!(back.runs[0].metrics, set.runs[0].metrics);
    }
}

//! The per-layer probes of `benchmark trace`: every layer timed from
//! outside, by calling its public functions on the workload's own frames
//! and traces. One timed call is one span; a metric is the median of the
//! spans that carry its name (divided by the operations per call for the
//! nanosecond-scale ones, which are timed in batches).

use crate::inputs::{clone_bank, Fate};
use crate::metrics::{per_layer, Measured, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::{cluster_rep, des_rep, fresh_ckpt_root, rt_rep, Ops, Prepared};
use ffsva_core::{
    load_stream_checkpoint, write_stream_checkpoint, CheckpointSpec, Engine, Mode, StreamCheckpoint,
};
use ffsva_models::{Scratch, SDD_SIZE, SNM_SIZE};
use ffsva_sched::{spawn_filter_stage, EventQueue, FeedbackQueue, IngestCore, SimQueue};
use ffsva_telemetry::{Telemetry, LATENCY_BOUNDS_US};
use ffsva_tensor::ops::{im2col_into, matmul_into, matmul_into_scalar, ConvGeom};
use ffsva_tensor::quant::{
    gemm_i8_into, im2col_i8_into, quantize_rows_symmetric_i8_into, quantize_symmetric_i8_into,
};
use ffsva_tensor::simd::{sum_sq_diff, sum_sq_diff_scalar};
use ffsva_tensor::Tensor;
use ffsva_video::resize::{resize_frame_f32_into, resize_frame_into};
use ffsva_video::{
    decode_wire_frame, encode_wire_frame, frame_checksum, read_clip, write_clip, Frame,
    LabeledFrame, VideoStream, WireHeader,
};
use std::fs;
use std::hint::black_box;
use std::path::Path;

/// Timed calls behind each median, unless a probe says otherwise.
const CALLS: usize = 200;
/// Operations per timed call for probes far below a microsecond.
const BATCH: usize = 1000;
/// T-YOLO's internal processing side (`tyolo::INTERNAL`, private there).
const TYOLO_SIDE: usize = 104;
/// Repetitions of each whole-engine call in the `core.*` probes.
const ENGINE_REPS: u32 = 3;

/// Microseconds expressed in `unit`.
fn from_us(us: f64, unit: &str) -> f64 {
    match unit {
        "ns" => us * 1e3,
        "us" => us,
        "ms" => us / 1e3,
        "s" => us / 1e6,
        other => panic!("{other} is not a time unit"),
    }
}

/// Run `f` once untimed (buffers grow, caches fill), then `calls` times as
/// spans named `name`; the metric is the median span over `per_call`
/// operations, in the metric's unit.
fn timed_calls(
    spans: &mut Spans,
    name: &str,
    calls: usize,
    per_call: usize,
    mut f: impl FnMut(usize),
) -> Measured {
    f(0);
    for i in 0..calls {
        spans.time(name, i as u32, || f(i));
    }
    let def = per_layer(name);
    let samples: Vec<f64> = spans
        .durations_us(name)
        .into_iter()
        .map(|us| from_us(us, def.1) / per_call as f64)
        .collect();
    Measured::of(def, &samples)
}

fn exact(name: &str, value: f64) -> Measured {
    Measured::exact(per_layer(name), value)
}

/// `rows × cols` values cycled out of `src` — GEMM operands made of the
/// workload's own pixels rather than a synthetic ramp.
fn matrix_from(src: &[f32], rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(
        &[rows, cols],
        src.iter().copied().cycle().take(rows * cols).collect(),
    )
}

/// Deterministic dense weights in `[-0.8, 0.8]`, never zero (the GEMM skips
/// zero weights, which trained layers do not have).
fn weights(rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i * 31 % 17) as f32 - 8.5) * 0.1)
        .collect();
    Tensor::from_vec(&[rows, cols], data)
}

fn tensor_layer(frames: &[&Frame], spans: &mut Spans, out: &mut Vec<Measured>) {
    // Ten frames at the SNM's 50×50 input: the batch the RT engine forms.
    let mut small = Vec::new();
    let mut batch: Vec<f32> = Vec::new();
    for f in frames.iter().take(10) {
        resize_frame_f32_into(f, SNM_SIZE, SNM_SIZE, &mut small);
        batch.extend_from_slice(&small);
    }
    let conv1 = ConvGeom::new(SNM_SIZE, SNM_SIZE, 5, 2, 2).expect("SNM conv1 geometry");
    let conv2 = ConvGeom::new(25, 25, 3, 2, 1).expect("SNM conv2 geometry");
    let (cols1, cols2) = (10 * 25 * 25, 10 * 13 * 13);

    let (a, b) = (matrix_from(&batch, 128, 128), weights(128, 128));
    let mut c = Vec::new();
    out.push(timed_calls(spans, "tensor.matmul_128_us", CALLS, 1, |_| {
        matmul_into(black_box(&a), black_box(&b), &mut c)
    }));
    out.push(timed_calls(
        spans,
        "tensor.matmul_128_scalar_us",
        CALLS,
        1,
        |_| matmul_into_scalar(black_box(&a), black_box(&b), &mut c),
    ));
    // conv1: (8 × 1·5·5) · (25 × 10·25·25); conv2: (16 × 8·3·3) · (72 × 10·13·13)
    let (w1, x1) = (weights(8, 25), matrix_from(&batch, 25, cols1));
    out.push(timed_calls(
        spans,
        "tensor.gemm_snm_conv1_b10_us",
        CALLS,
        1,
        |_| matmul_into(black_box(&w1), black_box(&x1), &mut c),
    ));
    let (w2, x2) = (weights(16, 72), matrix_from(&batch, 72, cols2));
    out.push(timed_calls(
        spans,
        "tensor.gemm_snm_conv2_b10_us",
        CALLS,
        1,
        |_| matmul_into(black_box(&w2), black_box(&x2), &mut c),
    ));

    let image = &batch[..SNM_SIZE * SNM_SIZE];
    let mut cols = Vec::new();
    out.push(timed_calls(
        spans,
        "tensor.im2col_snm_conv1_us",
        CALLS,
        1,
        |_| im2col_into(black_box(image), 1, conv1, &mut cols),
    ));
    let act: Vec<f32> = batch.iter().copied().cycle().take(8 * 25 * 25).collect();
    out.push(timed_calls(
        spans,
        "tensor.im2col_snm_conv2_us",
        CALLS,
        1,
        |_| im2col_into(black_box(&act), 8, conv2, &mut cols),
    ));

    let (mut w2q, mut x2q, mut acc) = (Vec::new(), Vec::new(), Vec::new());
    quantize_symmetric_i8_into(w2.data(), &mut w2q);
    quantize_symmetric_i8_into(x2.data(), &mut x2q);
    out.push(timed_calls(
        spans,
        "tensor.gemm_i8_snm_conv2_b10_us",
        CALLS,
        1,
        |_| gemm_i8_into(black_box(&w2q), 16, 72, black_box(&x2q), cols2, &mut acc),
    ));
    let (mut image_q, mut cols_q) = (Vec::new(), Vec::new());
    quantize_symmetric_i8_into(image, &mut image_q);
    out.push(timed_calls(
        spans,
        "tensor.im2col_i8_snm_conv1_us",
        CALLS,
        1,
        |_| im2col_i8_into(black_box(&image_q), 1, 1, conv1, &mut cols_q),
    ));
    let (mut q, mut scales) = (Vec::new(), Vec::new());
    out.push(timed_calls(
        spans,
        "tensor.quantize_rows_us",
        CALLS,
        1,
        |_| quantize_rows_symmetric_i8_into(black_box(&batch), 10, &mut q, &mut scales),
    ));

    // The SDD's distance on its real geometry: two frames at 100×100.
    let (mut x, mut y) = (Vec::new(), Vec::new());
    resize_frame_f32_into(frames[0], SDD_SIZE, SDD_SIZE, &mut x);
    resize_frame_f32_into(frames[frames.len() / 2], SDD_SIZE, SDD_SIZE, &mut y);
    out.push(timed_calls(
        spans,
        "tensor.sum_sq_diff_100x100_us",
        CALLS,
        1,
        |_| {
            black_box(sum_sq_diff(black_box(&x), black_box(&y)));
        },
    ));
    out.push(timed_calls(
        spans,
        "tensor.sum_sq_diff_100x100_scalar_us",
        CALLS,
        1,
        |_| {
            black_box(sum_sq_diff_scalar(black_box(&x), black_box(&y)));
        },
    ));
    out.push(exact(
        "tensor.simd_active",
        f64::from(u8::from(ffsva_tensor::simd_active())),
    ));
}

fn video_layer(p: &Prepared, out_dir: &Path, spans: &mut Spans, out: &mut Vec<Measured>) {
    let cam = &p.cameras[0];
    let clip = &cam.clip;
    let at = |i: usize| &clip[i % clip.len()];

    let mut video = VideoStream::new(9, cam.scene.config().with_seed(cam.seed));
    out.push(timed_calls(
        spans,
        "video.generate_us_per_frame",
        CALLS,
        1,
        |_| {
            black_box(video.next_frame());
        },
    ));
    let mut f32s = Vec::new();
    out.push(timed_calls(spans, "video.resize_sdd_us", CALLS, 1, |i| {
        resize_frame_f32_into(&at(i).frame, SDD_SIZE, SDD_SIZE, &mut f32s)
    }));
    out.push(timed_calls(spans, "video.resize_snm_us", CALLS, 1, |i| {
        resize_frame_f32_into(&at(i).frame, SNM_SIZE, SNM_SIZE, &mut f32s)
    }));
    let mut u8s = Vec::new();
    out.push(timed_calls(spans, "video.resize_tyolo_us", CALLS, 1, |i| {
        resize_frame_into(&at(i).frame, TYOLO_SIDE, TYOLO_SIDE, &mut u8s)
    }));
    out.push(timed_calls(
        spans,
        "video.checksum_us_per_frame",
        CALLS,
        1,
        |i| {
            black_box(frame_checksum(&at(i).frame));
        },
    ));

    out.push(timed_calls(spans, "video.wire_encode_us", CALLS, 1, |i| {
        black_box(encode_wire_frame(at(i)));
    }));
    let first = &clip[0].frame;
    let header = WireHeader {
        stream: first.stream,
        width: first.width,
        height: first.height,
        format: first.format,
        total: clip.len() as u64,
    };
    let records: Vec<Vec<u8>> = clip.iter().take(CALLS).map(encode_wire_frame).collect();
    out.push(timed_calls(spans, "video.wire_decode_us", CALLS, 1, |i| {
        black_box(
            decode_wire_frame(&records[i % records.len()], &header).expect("decode own record"),
        );
    }));

    // Clip files: ten write/read cycles of 100 frames each, in MB/s of raw pixels.
    let sample: &[LabeledFrame] = &clip[..100.min(clip.len())];
    let mb = sample
        .iter()
        .map(|lf| lf.frame.pixels().len())
        .sum::<usize>() as f64
        / 1e6;
    let path = out_dir.join(format!("probe-{}.ffsv", std::process::id()));
    for i in 0..10 {
        spans.time("video.clip_write", i, || {
            write_clip(&path, sample, 30).expect("write clip")
        });
        spans.time("video.clip_read", i, || {
            black_box(read_clip(&path).expect("read clip"))
        });
    }
    let _ = fs::remove_file(&path);
    let rate = |spans: &Spans, span: &str| -> Vec<f64> {
        spans
            .durations_us(span)
            .into_iter()
            .map(|us| mb / (us / 1e6))
            .collect()
    };
    let write = rate(spans, "video.clip_write");
    out.push(Measured::of(per_layer("video.clip_write_mb_s"), &write));
    let read = rate(spans, "video.clip_read");
    out.push(Measured::of(per_layer("video.clip_read_mb_s"), &read));
}

fn models_layer(p: &Prepared, spans: &mut Spans, out: &mut Vec<Measured>) {
    let cam = &p.cameras[0];
    let clip = &cam.clip;
    let at = |i: usize| &clip[i % clip.len()];
    let mut bank = clone_bank(&cam.bank);
    let mut scratch = Scratch::new();
    let target = cam.target;

    out.push(timed_calls(
        spans,
        "models.sdd_distance_us",
        CALLS,
        1,
        |i| {
            black_box(bank.sdd.distance_with(&at(i).frame, &mut scratch));
        },
    ));
    out.push(timed_calls(
        spans,
        "models.snm_b1_us_per_frame",
        CALLS,
        1,
        |i| {
            black_box(bank.snm.predict_batch_frames(&[&at(i).frame], &mut scratch));
        },
    ));
    let ten = |i: usize| -> Vec<&Frame> { (0..10).map(|k| &at(i * 10 + k).frame).collect() };
    out.push(timed_calls(
        spans,
        "models.snm_b10_us_per_frame",
        CALLS,
        10,
        |i| {
            black_box(bank.snm.predict_batch_frames(&ten(i), &mut scratch));
        },
    ));
    out.push(timed_calls(
        spans,
        "models.snm_int8_b10_us_per_frame",
        CALLS,
        10,
        |i| {
            black_box(bank.snm.predict_batch_frames_int8(&ten(i), &mut scratch));
        },
    ));
    out.push(timed_calls(spans, "models.tyolo_count_us", CALLS, 1, |i| {
        black_box(bank.tyolo.count_with(&at(i).frame, target, &mut scratch));
    }));
    out.push(timed_calls(
        spans,
        "models.tyolo_count_int8_us",
        CALLS,
        1,
        |i| {
            black_box(
                bank.tyolo
                    .count_quantized_with(&at(i).frame, target, &mut scratch),
            );
        },
    ));
    out.push(timed_calls(
        spans,
        "models.reference_count_us",
        CALLS,
        BATCH,
        |i| {
            for k in 0..BATCH {
                black_box(bank.reference.count(&at(i + k).truth, target));
            }
        },
    ));
    out.push(timed_calls(spans, "models.trace_frame_us", CALLS, 1, |i| {
        black_box(bank.trace_frame(at(i)));
    }));

    // From set-up: one build per camera, and the evaluation clips' exact
    // pass rates (each stage's passes over the frames that reached it).
    let builds: Vec<f64> = spans
        .durations_us("models.bank_build")
        .iter()
        .map(|us| us / 1e6)
        .collect();
    out.push(Measured::of(per_layer("models.bank_build_s"), &builds));
    // of the cameras whose pixels this workload runs on
    let own = || p.cameras.iter().filter(|c| !c.clip.is_empty());
    let count = |f: Fate| own().map(|c| c.count(f)).sum::<usize>() as f64;
    let survive = count(Fate::Survive);
    let past_snm = survive + count(Fate::TYolo);
    let past_sdd = past_snm + count(Fate::Snm);
    let all = past_sdd + count(Fate::Sdd);
    out.push(exact("models.sdd_pass_rate", past_sdd / all));
    out.push(exact("models.snm_pass_rate", past_snm / past_sdd.max(1.0)));
    out.push(exact("models.tyolo_pass_rate", survive / past_snm.max(1.0)));
    let worst_miss = p
        .cameras
        .iter()
        .map(|c| c.accuracy.scene_miss_rate)
        .fold(0.0, f64::max);
    out.push(exact("models.scene_miss_rate", worst_miss));
}

fn sched_layer(spans: &mut Spans, out: &mut Vec<Measured>) {
    let q: FeedbackQueue<u64> = FeedbackQueue::new(2);
    out.push(timed_calls(
        spans,
        "sched.queue_hop_ns",
        CALLS,
        BATCH,
        |_| {
            for k in 0..BATCH as u64 {
                q.push(k).expect("open queue");
                black_box(q.pop());
            }
        },
    ));

    // Two threads, two depth-2 queues: one round trip is two hand-offs.
    let (ping, pong): (FeedbackQueue<u64>, FeedbackQueue<u64>) =
        (FeedbackQueue::new(2), FeedbackQueue::new(2));
    let echo = {
        let (ping, pong) = (ping.clone(), pong.clone());
        std::thread::spawn(move || {
            while let Some(v) = ping.pop() {
                if pong.push(v).is_err() {
                    break;
                }
            }
        })
    };
    out.push(timed_calls(
        spans,
        "sched.queue_handoff_us",
        5 * CALLS,
        2,
        |i| {
            ping.push(i as u64).expect("open queue");
            black_box(pong.pop());
        },
    ));
    ping.close();
    echo.join().expect("echo thread");

    let mut sim: SimQueue<u64> = SimQueue::new(10);
    out.push(timed_calls(
        spans,
        "sched.simqueue_hop_ns",
        CALLS,
        BATCH,
        |_| {
            for k in 0..BATCH as u64 {
                let _ = sim.push(k);
                black_box(sim.pop());
            }
        },
    ));

    let mut events: EventQueue<u64> = EventQueue::new();
    for k in 0..1000u64 {
        events.schedule(k as f64 * 10.0, k);
    }
    out.push(timed_calls(
        spans,
        "sched.event_queue_ns",
        CALLS,
        BATCH,
        |_| {
            for _ in 0..BATCH {
                let (at, ev) = events.pop().expect("1k events pending");
                events.schedule(at + 10_000.0, ev);
            }
        },
    ));

    let mut gate: IngestCore<u64> = IngestCore::new(8);
    let mut seq = 0u64;
    out.push(timed_calls(
        spans,
        "sched.ingest_accept_ns",
        CALLS,
        BATCH,
        |_| {
            for _ in 0..BATCH {
                black_box(gate.accept(seq, seq, false));
                seq += 1;
            }
        },
    ));

    out.push(timed_calls(
        spans,
        "sched.stage_spawn_join_us",
        CALLS,
        1,
        |_| {
            let (input, output): (FeedbackQueue<u64>, FeedbackQueue<u64>) =
                (FeedbackQueue::new(2), FeedbackQueue::new(2));
            let stage = spawn_filter_stage("probe", input.clone(), output, Some);
            input.close();
            stage.join().expect("probe stage");
        },
    ));
}

/// The telemetry primitives, on a registry shaped like a two-stream RT run's.
fn telemetry_layer(spans: &mut Spans, out: &mut Vec<Measured>) {
    let tel = Telemetry::new();
    let counter = tel.counter("pipeline.frames_in");
    let hist = tel.histogram("latency.e2e_us", LATENCY_BOUNDS_US);
    for s in 0..2 {
        for stage in ffsva_telemetry::STAGES {
            ffsva_telemetry::StageTelemetry::register(&tel, &format!("stream{s}.{stage}"));
        }
    }
    for stage in ffsva_telemetry::STAGES {
        ffsva_telemetry::QueueTelemetry::register(&tel, &format!("queue.{stage}"));
    }
    tel.histogram("latency.ref_us", LATENCY_BOUNDS_US);

    out.push(timed_calls(
        spans,
        "telemetry.counter_inc_ns",
        CALLS,
        BATCH,
        |_| {
            for _ in 0..BATCH {
                counter.inc();
            }
        },
    ));
    out.push(timed_calls(
        spans,
        "telemetry.histogram_record_ns",
        CALLS,
        BATCH,
        |i| {
            for k in 0..BATCH {
                hist.record(((i + k) % 4096) as f64 * 7.0);
            }
        },
    ));
    out.push(timed_calls(
        spans,
        "telemetry.snapshot_us",
        CALLS,
        1,
        |_| {
            black_box(tel.snapshot());
        },
    ));
}

/// The value of an already-measured metric.
fn value_of(out: &[Measured], name: &str) -> f64 {
    out.iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} measured first"))
        .value
}

fn core_rt(p: &Prepared, spans: &mut Spans, ops: &mut Ops, out: &mut Vec<Measured>) {
    let span = spans.enter("core.rt.probe", 0);
    let reps: Vec<_> = (0..ENGINE_REPS)
        .map(|rep| rt_rep(p, rep, spans, ops))
        .collect();
    spans.exit(span);
    let (_, r) = reps.last().expect("at least one repetition");
    let snap = &r.telemetry;

    for (i, stage) in ffsva_telemetry::STAGES.into_iter().enumerate() {
        out.push(exact(
            &format!("core.rt.stage_frames.{stage}"),
            r.stage_processed[i] as f64,
        ));
    }
    let batches = snap.counter("snm.batches").max(1) as f64;
    let mean_batch = r.stage_processed[1] as f64 / batches;
    out.push(exact("core.rt.snm_mean_batch", mean_batch));
    out.push(exact(
        "core.rt.e2e_latency_mean_ms",
        median(
            &reps
                .iter()
                .map(|(_, r)| r.telemetry.histograms["latency.e2e_us"].mean() / 1e3)
                .collect::<Vec<_>>(),
        ),
    ));
    for stage in ffsva_telemetry::STAGES {
        let p99 = snap.histograms[&format!("queue.{stage}.depth_on_push")].quantile(0.99);
        out.push(exact(&format!("core.rt.queue_depth_p99.{stage}"), p99));
    }

    // Roll-up: what the model layer's per-frame costs explain of the CPU the
    // engine used. The SNM is priced between its batch-1 and batch-10 cost
    // by the mean batch the run formed. The rest is queues, threads,
    // telemetry and frame hand-off.
    let blend = ((mean_batch - 1.0) / 9.0).clamp(0.0, 1.0);
    let snm_us = value_of(out, "models.snm_b1_us_per_frame") * (1.0 - blend)
        + value_of(out, "models.snm_b10_us_per_frame") * blend;
    let per_stage_us = [
        value_of(out, "models.sdd_distance_us"),
        snm_us,
        value_of(out, "models.tyolo_count_us"),
        value_of(out, "models.reference_count_us"),
    ];
    let explained_us: f64 = (0..4)
        .map(|i| r.stage_processed[i] as f64 * per_stage_us[i])
        .sum();
    let cpu_us = median(&reps.iter().map(|(c, _)| c.cpu_s * 1e6).collect::<Vec<_>>());
    out.push(exact(
        "core.rt.cpu_explained_pct",
        100.0 * explained_us / cpu_us,
    ));
}

fn core_des(p: &Prepared, spans: &mut Spans, ops: &mut Ops, out: &mut Vec<Measured>) {
    let span = spans.enter("core.des.probe", 0);
    let reps: Vec<_> = (0..ENGINE_REPS)
        .map(|rep| des_rep(&p.sys, &p.fleet, &p.fleet_expected, rep, spans, ops))
        .collect();
    spans.exit(span);
    let per_frame: Vec<f64> = reps
        .iter()
        .map(|(c, _, _)| c.wall_s * 1e6 / c.frames as f64)
        .collect();
    let new_us: Vec<f64> = reps.iter().map(|(_, new_s, _)| new_s * 1e6).collect();
    out.push(Measured::of(
        per_layer("core.des.us_per_sim_frame"),
        &per_frame,
    ));
    out.push(Measured::of(per_layer("core.des.engine_new_us"), &new_us));
    let (_, _, r) = reps.last().expect("at least one repetition");
    out.push(exact("core.des.makespan_virtual_s", r.makespan_us / 1e6));
    out.push(exact(
        "core.des.p99_latency_virtual_ms",
        r.p99_latency_us / 1e3,
    ));
    out.push(exact("core.des.mean_snm_batch", r.mean_snm_batch));
    out.push(exact(
        "core.des.realtime",
        f64::from(u8::from(r.realtime(p.sys.online_fps))),
    ));
}

/// A checkpoint as the cluster writes them: one DES stream run to the end
/// of its trace with checkpointing on.
fn real_checkpoint(p: &Prepared, dir: &Path) -> StreamCheckpoint {
    let _ = fs::remove_dir_all(dir);
    Engine::new(p.sys, Mode::Online, vec![p.offers[0].clone()])
        .with_checkpoint(CheckpointSpec::new(dir, u64::MAX, false))
        .run();
    load_stream_checkpoint(dir, 0)
        .expect("read checkpoint")
        .expect("the engine checkpoints at the end of a run")
}

fn core_cluster(
    p: &Prepared,
    out_dir: &Path,
    spans: &mut Spans,
    ops: &mut Ops,
    out: &mut Vec<Measured>,
) {
    let dir = fresh_ckpt_root(out_dir, u32::MAX);
    let ckpt = real_checkpoint(p, &dir);
    out.push(timed_calls(
        spans,
        "core.checkpoint.write_us",
        CALLS,
        1,
        |_| write_stream_checkpoint(&dir, &ckpt).expect("write checkpoint"),
    ));
    out.push(timed_calls(
        spans,
        "core.checkpoint.load_us",
        CALLS,
        1,
        |_| {
            black_box(load_stream_checkpoint(&dir, 0).expect("load checkpoint"));
        },
    ));
    let bytes = fs::metadata(ffsva_core::stream_ckpt_path(&dir, 0)).map_or(0, |m| m.len());
    out.push(exact("core.checkpoint.bytes", bytes as f64));
    let _ = fs::remove_dir_all(&dir);

    let span = spans.enter("core.cluster.probe", 0);
    let sessions: Vec<_> = (0..ENGINE_REPS)
        .map(|rep| {
            let root = fresh_ckpt_root(out_dir, rep);
            let c = cluster_rep(p, &root, rep, spans, ops);
            let _ = fs::remove_dir_all(&root);
            c
        })
        .collect();
    // The same offers straight through one engine: what the epochs cost on top.
    let straight: Vec<f64> = (0..ENGINE_REPS)
        .map(|rep| {
            let (c, _, _) = des_rep(&p.sys, &p.offers, &p.offers_expected, rep, spans, ops);
            c.wall_s / c.frames as f64
        })
        .collect();
    spans.exit(span);

    let offers: Vec<f64> = sessions
        .iter()
        .flat_map(|c| c.offer_ms.iter().copied())
        .collect();
    let steps: Vec<f64> = sessions
        .iter()
        .flat_map(|c| c.step_ms.iter().copied())
        .collect();
    out.push(Measured::of(per_layer("core.cluster.offer_ms"), &offers));
    out.push(Measured {
        value: percentile(&steps, 0.99),
        ..Measured::of(per_layer("core.cluster.epoch_wall_p99_ms"), &steps)
    });
    let last = sessions.last().expect("at least one session");
    out.push(exact("core.cluster.epochs", last.report.epochs as f64));
    out.push(exact(
        "core.cluster.reforwards",
        last.report.reforwards() as f64,
    ));
    let reforward: Vec<f64> = sessions.iter().map(|c| c.reforward_step_ms).collect();
    out.push(Measured::of(
        per_layer("core.cluster.reforward_ms"),
        &reforward,
    ));
    let clustered: Vec<f64> = sessions
        .iter()
        .map(|c| c.timing.wall_s / c.timing.frames as f64)
        .collect();
    let overhead = 1.0 - median(&straight) / median(&clustered);
    out.push(exact("core.cluster.epoch_overhead_pct", 100.0 * overhead));
}

/// Every per-layer metric, in `PER_LAYER` order.
pub fn probe_all(p: &Prepared, out_dir: &Path, spans: &mut Spans, ops: &mut Ops) -> Vec<Measured> {
    let frames: Vec<&Frame> = p.cameras[0].clip.iter().map(|lf| &lf.frame).collect();
    let mut out = Vec::with_capacity(PER_LAYER.len());
    spans.scope("layers", |spans| {
        spans.scope("tensor", |s| tensor_layer(&frames, s, &mut out));
        spans.scope("video", |s| video_layer(p, out_dir, s, &mut out));
        spans.scope("models", |s| models_layer(p, s, &mut out));
        spans.scope("sched", |s| sched_layer(s, &mut out));
        spans.scope("telemetry", |s| telemetry_layer(s, &mut out));
        spans.scope("core", |s| {
            core_rt(p, s, ops, &mut out);
            // one CPU for the single-threaded engines, as in their timed phases
            crate::procfs::on_one_cpu(|| {
                core_des(p, s, ops, &mut out);
                core_cluster(p, out_dir, s, ops, &mut out);
            });
        });
    });
    out
}

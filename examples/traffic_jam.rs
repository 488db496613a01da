//! Traffic-jam detection — the paper's motivating use case (§2.3): "at a
//! crossroad, more cars detected than usual means a traffic jam". The target
//! event is *NumberofObjects ≥ 2* cars, and the cascade runs as a real
//! threaded pipeline (every filter on its own thread, blocking feedback
//! queues), with scene-level accuracy against the reference model.
//!
//! ```text
//! cargo run --release --example traffic_jam
//! ```

use ffs_va::core::evaluate_accuracy;
use ffs_va::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);

    // A jackson-style crossroad camera, busier than usual (TOR 0.35) so
    // multi-car congestion scenes actually occur, at a small render size so
    // the example finishes quickly.
    let mut cfg = workloads::jackson().with_tor(0.35);
    cfg.render_width = 150;
    cfg.render_height = 100;
    cfg.objects_per_scene = (1, 3);
    let mut camera = VideoStream::new(0, cfg);

    println!("training the crossroad cascade ...");
    let training = camera.clip(1800);
    let bank = FilterBank::build(
        &training,
        ObjectClass::Car,
        &BankOptions::default(),
        &mut rng,
    );

    // Congestion = at least 2 cars on camera.
    let sys = FfsVaConfig::default().with_number_of_objects(2);

    // Run 900 fresh frames through the *threaded* pipeline (SDD, SNM,
    // T-YOLO, reference each on their own thread, feedback queues between).
    let clip = camera.clip(900);
    let mut bank_for_traces = FilterBank::build(
        &training,
        ObjectClass::Car,
        &BankOptions::default(),
        &mut rng,
    );
    let traces = bank_for_traces.trace_clip(&clip);
    let result = run_multi_pipeline_rt(vec![(clip, bank)], &sys);
    let alarms = &result.survivors[0];

    println!(
        "\npipeline processed {} frames in {:.2}s ({:.0} FPS wall)",
        result.total_frames, result.wall_time_s, result.throughput_fps
    );
    println!(
        "stage loads: SDD {} -> SNM {} -> T-YOLO {} -> reference {}",
        result.stage_processed[0],
        result.stage_processed[1],
        result.stage_processed[2],
        result.stage_processed[3]
    );
    println!("congestion alarms raised: {}", alarms.len());
    if let Some(first) = alarms.first() {
        println!(
            "first alarm at frame {} (t = {:.1}s), {} cars confirmed by the reference model",
            first.seq,
            first.pts_ms as f64 / 1000.0,
            first.reference_count
        );
    }

    // Scene-level accuracy vs running YOLOv2 on every frame.
    let rep = evaluate_accuracy(&traces, &bank_for_traces_thresholds(&bank_for_traces, &sys));
    println!(
        "\naccuracy vs full-frame YOLOv2: {} of {} congestion scenes detected (miss rate {:.1}%)",
        rep.significant_scenes_detected,
        rep.significant_scenes,
        rep.scene_miss_rate * 100.0
    );
}

fn bank_for_traces_thresholds(
    bank: &FilterBank,
    sys: &FfsVaConfig,
) -> ffs_va::core::StreamThresholds {
    ffs_va::core::StreamThresholds {
        delta_diff: bank.sdd.delta_diff,
        t_pre: bank.snm.t_pre(sys.filter_degree),
        number_of_objects: sys.number_of_objects,
    }
}

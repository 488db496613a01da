//! The stand-in serde/serde_json/rand crates (vendor/) held to the wire
//! formats and contracts the library crates rely on, using the library's own
//! types: what a checkpoint, a config or a daemon request looks like on
//! disk must not depend on which serde built it.

use ffsva_core::{
    renumber_checkpoint, FfsVaConfig, Precision, StreamCheckpoint, StreamSpec, StreamThresholds,
    SurvivingFrame,
};
use ffsva_sched::{BatchPolicy, DegradePolicy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

#[test]
fn config_round_trips_and_old_files_take_their_defaults() {
    let cfg = FfsVaConfig {
        batch_policy: BatchPolicy::Static { size: 7 },
        degrade_policy: DegradePolicy::ShedOldest { max_lag_ms: 500 },
        snm_precision: Precision::Int8,
        ..FfsVaConfig::default()
    };
    let json = serde_json::to_string(&cfg).unwrap();
    assert!(
        json.contains(r#""batch_policy":{"Static":{"size":7}}"#),
        "{json}"
    );
    assert!(json.contains(r#""snm_precision":"int8""#), "{json}");
    assert!(json.contains(r#""snm_cost_override":null"#), "{json}");
    let back: FfsVaConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.batch_policy.size(), 7);
    assert_eq!(
        back.degrade_policy,
        DegradePolicy::ShedOldest { max_lag_ms: 500 }
    );
    assert_eq!(back.snm_precision, Precision::Int8);

    // a config written before the supervision, ingest and precision fields existed
    let old = r#"{
        "filter_degree": 0.5, "number_of_objects": 1,
        "batch_policy": {"Dynamic": {"size": 10}},
        "sdd_queue_depth": 2, "snm_queue_depth": 10,
        "tyolo_queue_depth": 2, "reference_queue_depth": 4,
        "num_tyolo": 8, "online_fps": 30, "cpu_lanes": 28,
        "filter_gpus": 1, "reference_gpus": 1,
        "admission_tyolo_fps": 140.0, "admission_window_s": 5.0,
        "shared_tyolo": true, "a_field_from_the_future": [1, {"x": null}]
    }"#;
    let c: FfsVaConfig = serde_json::from_str(old).unwrap();
    assert_eq!(c.restart_budget, FfsVaConfig::default().restart_budget);
    assert_eq!(c.degrade_policy, DegradePolicy::Block);
    assert_eq!(c.snm_precision, Precision::F32);
    assert_eq!(c.snm_cost_override, None);
    assert!(serde_json::from_str::<FfsVaConfig>(r#"{"filter_degree": 0.5}"#).is_err());
}

#[test]
fn checkpoints_survive_pretty_printing_with_every_float_bit() {
    let mut ck = StreamCheckpoint::fresh(3);
    ck.cursor = 1500;
    ck.counters
        .insert("stream3.sdd.frames_in".to_string(), 1500);
    ck.counters
        .insert("pipeline.frames_in".to_string(), u64::MAX);
    ck.survivors = (0..4)
        .map(|i| SurvivingFrame {
            seq: i * 7,
            pts_ms: i * 231,
            reference_count: i as usize,
        })
        .collect();
    ck.thresholds = Some(StreamThresholds {
        delta_diff: 1e-3_f32.next_up(),
        t_pre: f32::MIN_POSITIVE,
        number_of_objects: 1,
    });
    ck.snm_thresholds = Some((0.1 + 0.2, 16_777_217.0));
    let text = String::from_utf8(serde_json::to_vec_pretty(&ck).unwrap()).unwrap();
    assert!(
        text.starts_with("{\n  \"schema_version\": 1,\n  \"stream\": 3,"),
        "{text}"
    );
    assert!(text.contains("\"sdd\": null"), "{text}");
    let back: StreamCheckpoint = serde_json::from_str(&text).unwrap();
    assert_eq!(back, ck);
    assert_eq!(
        renumber_checkpoint(&back, 0).counters["stream0.sdd.frames_in"],
        1500
    );
    // compact and pretty forms agree
    let compact: StreamCheckpoint =
        serde_json::from_slice(&serde_json::to_vec(&ck).unwrap()).unwrap();
    assert_eq!(compact, ck);
    assert!(
        serde_json::from_str::<StreamCheckpoint>(&text[..text.len() - 2]).is_err(),
        "truncated"
    );
    assert!(
        serde_json::from_str::<StreamCheckpoint>(&format!("{text} x")).is_err(),
        "trailing"
    );
}

#[test]
fn internally_tagged_requests_parse_in_any_member_order() {
    let spec: StreamSpec = serde_json::from_str(r#"{"kind":"synthetic","frames":32}"#).unwrap();
    assert!(matches!(
        spec,
        StreamSpec::Synthetic {
            frames: 32,
            target_every: 8,
            thresholds: None
        }
    ));
    let spec: StreamSpec = serde_json::from_str(
        r#"{"thresholds":{"delta_diff":0.5,"t_pre":0.25,"number_of_objects":2},"frames":8,"kind":"synthetic"}"#,
    )
    .unwrap();
    match &spec {
        StreamSpec::Synthetic {
            frames: 8,
            thresholds: Some(th),
            ..
        } => assert_eq!(th.number_of_objects, 2),
        other => panic!("wrong spec: {other:?}"),
    }
    let json = serde_json::to_string(&spec).unwrap();
    assert!(
        json.starts_with(r#"{"kind":"synthetic","frames":8,"#),
        "{json}"
    );
    assert!(serde_json::from_str::<StreamSpec>(r#"{"kind":"laser"}"#).is_err());
    assert!(serde_json::from_str::<StreamSpec>(r#"{"frames":8}"#).is_err());
}

#[test]
fn strings_durations_and_values_follow_serde_json() {
    let tricky =
        "quote \" backslash \\ newline \n tab \t bell \u{7} snowman \u{2603} astral \u{1F980}";
    let json = serde_json::to_string(tricky).unwrap();
    assert_eq!(serde_json::from_str::<String>(&json).unwrap(), tricky);
    assert_eq!(
        serde_json::from_str::<String>(r#""☃ 🦀 \/""#).unwrap(),
        "\u{2603} \u{1F980} /"
    );
    assert!(
        serde_json::from_str::<String>(r#""\ud83e""#).is_err(),
        "lone surrogate"
    );
    assert_eq!(
        serde_json::to_string(&Duration::from_millis(1250)).unwrap(),
        r#"{"secs":1,"nanos":250000000}"#
    );
    assert_eq!(
        serde_json::to_string(&[1.0f32, f32::NAN, 1e-7]).unwrap(),
        "[1.0,null,1e-7]"
    );
    let v = serde_json::json!({"id": 7usize, "state": "dropped", "ok": true});
    assert_eq!(
        serde_json::to_string(&v).unwrap(),
        r#"{"id":7,"ok":true,"state":"dropped"}"#
    );
}

#[test]
fn the_generator_is_seeded_uniform_and_in_range() {
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..8)
            .map(|_| rng.gen_range(0..1_000_000u32))
            .collect::<Vec<_>>()
    };
    assert_eq!(draw(9), draw(9));
    assert_ne!(draw(9), draw(10));

    let mut rng = StdRng::seed_from_u64(1);
    let mut buckets = [0u32; 10];
    for _ in 0..100_000 {
        let x: f32 = rng.gen_range(-1.0..1.0);
        assert!((-1.0..1.0).contains(&x));
        buckets[((x + 1.0) * 5.0) as usize] += 1;
        let k = rng.gen_range(3..=5usize);
        assert!((3..=5).contains(&k));
        let s = rng.gen_range(-4..-1i32);
        assert!((-4..-1).contains(&s));
    }
    assert!(
        buckets.iter().all(|&b| (9_000..11_000).contains(&b)),
        "{buckets:?}"
    );
    let heads = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
    assert!((29_000..31_000).contains(&heads), "{heads}");

    let mut deck: Vec<u32> = (0..52).collect();
    deck.shuffle(&mut rng);
    assert_ne!(deck, (0..52).collect::<Vec<_>>());
    deck.sort_unstable();
    assert_eq!(deck, (0..52).collect::<Vec<_>>());
}

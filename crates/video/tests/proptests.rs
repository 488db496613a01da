//! Property-based tests for the video substrate: resize invariants, ground
//! truth geometry, and TOR controller behaviour under arbitrary parameters.

use ffsva_video::arrival::{ScenePhase, SceneProcess};
use ffsva_video::resize::{resize_bilinear, resize_nearest};
use ffsva_video::GtObject;
use proptest::prelude::*;
use rand::SeedableRng;

/// Bilinear interpolation written out per pixel, libm `floor` and `round`
/// and all: what `resize_bilinear` must equal bit for bit.
fn bilinear_per_pixel(src: &[u8], sw: usize, sh: usize, dw: usize, dh: usize) -> Vec<u8> {
    let ratio = |s: usize, d: usize| {
        if d > 1 {
            (s - 1) as f32 / (d - 1) as f32
        } else {
            0.0
        }
    };
    let axis = |d: usize, ratio: f32, len: usize| {
        let f = d as f32 * ratio;
        let lo = f.floor() as usize;
        (lo, (lo + 1).min(len - 1), f - lo as f32)
    };
    let mut out = Vec::with_capacity(dw * dh);
    for y in 0..dh {
        let (y0, y1, wy) = axis(y, ratio(sh, dh), sh);
        for x in 0..dw {
            let (x0, x1, wx) = axis(x, ratio(sw, dw), sw);
            let p = |yy: usize, xx: usize| src[yy * sw + xx] as f32;
            let top = p(y0, x0) + (p(y0, x1) - p(y0, x0)) * wx;
            let bot = p(y1, x0) + (p(y1, x1) - p(y1, x0)) * wx;
            out.push((top + (bot - top) * wy).round().clamp(0.0, 255.0) as u8);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resizing never invents values outside the source range, and the
    /// bilinear kernel equals its per-pixel definition exactly.
    #[test]
    fn resize_respects_range(
        pixels in proptest::collection::vec(any::<u8>(), 16 * 12),
        dw in 1usize..40,
        dh in 1usize..40,
    ) {
        let lo = *pixels.iter().min().unwrap();
        let hi = *pixels.iter().max().unwrap();
        prop_assert_eq!(
            resize_bilinear(&pixels, 16, 12, dw, dh),
            bilinear_per_pixel(&pixels, 16, 12, dw, dh)
        );
        for out in [
            resize_bilinear(&pixels, 16, 12, dw, dh),
            resize_nearest(&pixels, 16, 12, dw, dh),
        ] {
            prop_assert_eq!(out.len(), dw * dh);
            prop_assert!(out.iter().all(|&p| p >= lo && p <= hi));
        }
    }

    /// Identity resize is exact for both kernels.
    #[test]
    fn resize_identity(pixels in proptest::collection::vec(any::<u8>(), 10 * 7)) {
        prop_assert_eq!(resize_bilinear(&pixels, 10, 7, 10, 7), pixels.clone());
        prop_assert_eq!(resize_nearest(&pixels, 10, 7, 10, 7), pixels);
    }

    /// Visible fraction is always in [0, 1] and monotone in how deep the
    /// object sits inside the frame.
    #[test]
    fn visible_frac_bounded(cx in -1.0f32..2.0, cy in -1.0f32..2.0, w in 0.01f32..0.9, h in 0.01f32..0.9) {
        let f = GtObject::compute_visible_frac(cx, cy, w, h);
        prop_assert!((0.0..=1.0 + 1e-5).contains(&f));
        // fully centered is never less visible
        let center = GtObject::compute_visible_frac(0.5, 0.5, w, h);
        prop_assert!(center >= f - 1e-5);
    }

    /// The TOR controller's achieved fraction is always a valid fraction and
    /// the phase machine never reports Draining while Idle frames dominate
    /// a zero-TOR stream.
    #[test]
    fn scene_process_invariants(tor in 0.0f64..1.0, mean in 1.0f64..200.0, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut p = SceneProcess::new(tor, mean);
        let mut visible = false;
        let mut started_prev = 0;
        for _ in 0..2000 {
            let phase = p.step(visible, &mut rng);
            visible = matches!(phase, ScenePhase::Active);
            let a = p.achieved();
            prop_assert!((0.0..=1.0).contains(&a));
            // scene counter is monotone
            prop_assert!(p.scenes_started() >= started_prev);
            started_prev = p.scenes_started();
        }
        if tor == 0.0 {
            prop_assert_eq!(p.scenes_started(), 0);
        }
    }

    /// Clip storage round-trips arbitrary pixel content exactly.
    #[test]
    fn storage_roundtrip_arbitrary_pixels(
        pixels in proptest::collection::vec(any::<u8>(), 6 * 4),
        seq in any::<u32>(),
    ) {
        use ffsva_video::storage::{read_clip, write_clip};
        use ffsva_video::{Frame, GroundTruth, LabeledFrame};
        let lf = LabeledFrame {
            frame: Frame::gray8(1, seq as u64, 0, 6, 4, pixels.clone()),
            truth: GroundTruth::default(),
        };
        let path = std::env::temp_dir().join(format!("ffsva_pt_{}.ffsv", seq));
        write_clip(&path, &[lf], 30).unwrap();
        let back = read_clip(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(back[0].frame.pixels(), &pixels[..]);
        prop_assert_eq!(back[0].frame.seq, seq as u64);
    }

    /// Arbitrary bytes fed to the RLE decoder never panic and never come
    /// back longer than the declared length — damage is an `Err`, and a
    /// successful decode is exactly `expect` bytes (the allocation is
    /// bounded by `expect` by construction).
    #[test]
    fn rle_decode_arbitrary_bytes_never_panics_or_overallocates(
        encoded in proptest::collection::vec(any::<u8>(), 0..512),
        expect in 0usize..4096,
    ) {
        use ffsva_video::storage::rle_decode;
        if let Ok(out) = rle_decode(&encoded, expect) {
            prop_assert_eq!(out.len(), expect);
        }
    }

    /// Decoding an honest encoding round-trips for any payload.
    #[test]
    fn rle_roundtrip_arbitrary_payload(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        use ffsva_video::storage::{rle_decode, rle_encode};
        let enc = rle_encode(&data);
        prop_assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
    }

    /// RGB luma stays within the channel extrema for arbitrary colors.
    #[test]
    fn rgb_luma_bounded_by_channels(rgb in proptest::collection::vec(any::<u8>(), 3 * 8)) {
        use ffsva_video::Frame;
        let f = Frame::rgb8(0, 0, 0, 8, 1, rgb.clone());
        let y = f.luma();
        for (i, &l) in y.iter().enumerate() {
            let (r, g, b) = (rgb[i * 3], rgb[i * 3 + 1], rgb[i * 3 + 2]);
            let lo = r.min(g).min(b);
            let hi = r.max(g).max(b);
            prop_assert!(l >= lo.saturating_sub(1) && l <= hi.saturating_add(1));
        }
    }

    /// Generated clips have exact metadata: sequential seq numbers, constant
    /// dimensions, pts consistent with the frame rate.
    #[test]
    fn clip_metadata_consistent(tor in 0.0f64..1.0, seed in any::<u64>()) {
        use ffsva_video::prelude::*;
        let cfg = workloads::test_tiny(ObjectClass::Car, tor, seed);
        let fps = cfg.fps as u64;
        let mut s = VideoStream::new(3, cfg);
        let clip = s.clip(40);
        for (i, lf) in clip.iter().enumerate() {
            prop_assert_eq!(lf.frame.seq, i as u64);
            prop_assert_eq!(lf.frame.stream, 3);
            prop_assert_eq!(lf.frame.pts_ms, i as u64 * 1000 / fps);
            prop_assert_eq!(lf.frame.num_pixels(), lf.frame.width * lf.frame.height);
            // every labeled object has a sane box
            for o in &lf.truth.objects {
                prop_assert!((0.0..=1.0).contains(&o.visible_frac));
                prop_assert!(o.w > 0.0 && o.h > 0.0);
            }
        }
    }
}

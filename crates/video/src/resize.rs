//! Frame resizing.
//!
//! Every FFS-VA filter consumes a different input size, so raw frames are
//! resized before each stage. The paper (§4.1) resizes to 100×100 for SDD,
//! 50×50 for SNM and 416×416 for T-YOLO and reports 40 µs / 150 µs / 400 µs
//! for the three. Those are the paper's figures on the paper's machine. This
//! code runs SDD at 100², SNM at 50² and T-YOLO at `tyolo::INTERNAL` = 104²,
//! and `benchmark trace` measures, for a 300×200 Gray8 source,
//! `video.resize_{sdd,snm,tyolo}_us` = 25 / 12 / 50 µs (2 vCPU Xeon 2.10 GHz,
//! rustc 1.95, default features; 105 / 28 / 147 µs before the x-taps were
//! hoisted).
//!
//! There is one bilinear kernel, `bilinear_rows`, behind both the `u8` and
//! the `f32` entry points. It computes the column taps once per call rather
//! than once per pixel: each tap needs an `f32::floor`, which on the baseline
//! x86-64 target (no SSE4.1 `roundss`) is an out-of-line `floorf` call, and a
//! 300×200 → 100² resize made 10 000 of them to learn the same 100 columns
//! 100 times. The `u8` store rounds in integer arithmetic for the same
//! reason (`f32::round` is a `roundf` call). Sample points, weights and the
//! per-pixel expression are those of the per-pixel kernel it replaced, kept
//! in this module's tests as the reference it must equal bit for bit.

use crate::frame::Frame;

/// Nearest-neighbour resize of a Gray8 buffer.
pub fn resize_nearest(src: &[u8], sw: usize, sh: usize, dw: usize, dh: usize) -> Vec<u8> {
    assert_eq!(src.len(), sw * sh, "source buffer size mismatch");
    assert!(dw > 0 && dh > 0, "destination must be non-empty");
    let mut out = vec![0u8; dw * dh];
    for y in 0..dh {
        let sy = (y * sh) / dh;
        let src_row = &src[sy * sw..(sy + 1) * sw];
        let dst_row = &mut out[y * dw..(y + 1) * dw];
        for (x, d) in dst_row.iter_mut().enumerate() {
            let sx = (x * sw) / dw;
            *d = src_row[sx];
        }
    }
    out
}

/// Bilinear resize of a Gray8 buffer.
pub fn resize_bilinear(src: &[u8], sw: usize, sh: usize, dw: usize, dh: usize) -> Vec<u8> {
    let mut out = Vec::new();
    resize_bilinear_into(src, sw, sh, dw, dh, &mut out);
    out
}

/// Bilinear resize into a caller-owned buffer (resized and overwritten), so
/// per-worker scratch can be reused across frames without reallocating.
pub fn resize_bilinear_into(
    src: &[u8],
    sw: usize,
    sh: usize,
    dw: usize,
    dh: usize,
    out: &mut Vec<u8>,
) {
    bilinear_rows(src, sw, sh, dw, dh, out, round_to_u8);
}

/// Bilinear resize of a Gray8 buffer straight to normalized `f32` in `[0, 1]`,
/// without rounding through `u8` — keeps the sub-LSB precision that
/// `SddFilter::calibrate` bakes into δ_diff. Same sample points and weights as
/// [`resize_bilinear`], so the two stay within 1/255 of each other.
pub fn resize_bilinear_f32_into(
    src: &[u8],
    sw: usize,
    sh: usize,
    dw: usize,
    dh: usize,
    out: &mut Vec<f32>,
) {
    bilinear_rows(src, sw, sh, dw, dh, out, |v| v / 255.0);
}

/// The one bilinear kernel: `store` turns an interpolated sample (gray
/// levels, `0.0..=255.0`) into the destination element. The x-taps depend on
/// the column only, so they are computed once per call and every destination
/// row walks the same table over its two source rows.
fn bilinear_rows<T: Copy + Default>(
    src: &[u8],
    sw: usize,
    sh: usize,
    dw: usize,
    dh: usize,
    out: &mut Vec<T>,
    store: impl Fn(f32) -> T,
) {
    assert_eq!(src.len(), sw * sh, "source buffer size mismatch");
    assert!(sw > 0 && sh > 0, "source must be non-empty");
    assert!(dw > 0 && dh > 0, "destination must be non-empty");
    out.clear();
    out.resize(dw * dh, T::default());
    let (x_ratio, y_ratio) = bilinear_ratios(sw, sh, dw, dh);
    let x_taps: Vec<(usize, usize, f32)> = (0..dw).map(|x| bilinear_axis(x, x_ratio, sw)).collect();
    for (y, dst_row) in out.chunks_exact_mut(dw).enumerate() {
        let (y0, y1, wy) = bilinear_axis(y, y_ratio, sh);
        let (row0, row1) = (&src[y0 * sw..][..sw], &src[y1 * sw..][..sw]);
        for (d, &(x0, x1, wx)) in dst_row.iter_mut().zip(&x_taps) {
            let (p00, p01) = (row0[x0] as f32, row0[x1] as f32);
            let (p10, p11) = (row1[x0] as f32, row1[x1] as f32);
            let top = p00 + (p01 - p00) * wx;
            let bot = p10 + (p11 - p10) * wx;
            *d = store(top + (bot - top) * wy);
        }
    }
}

/// `v.round().clamp(0.0, 255.0) as u8` in integer form (truncate, then add
/// one when the fraction is at least a half): `round` is a `roundf` call on
/// the baseline x86-64 target. Equal on every `f32`, NaN and ±∞ included.
#[inline]
fn round_to_u8(v: f32) -> u8 {
    let t = (v as u32).min(255); // `as` saturates: negatives and NaN give 0
    (t + u32::from(v - t as f32 >= 0.5)).min(255) as u8
}

/// Edge-aligned scale factors shared by the u8 and f32 bilinear paths.
fn bilinear_ratios(sw: usize, sh: usize, dw: usize, dh: usize) -> (f32, f32) {
    let x_ratio = if dw > 1 {
        (sw - 1) as f32 / (dw - 1) as f32
    } else {
        0.0
    };
    let y_ratio = if dh > 1 {
        (sh - 1) as f32 / (dh - 1) as f32
    } else {
        0.0
    };
    (x_ratio, y_ratio)
}

/// Source taps and interpolation weight for one destination coordinate.
#[inline]
fn bilinear_axis(d: usize, ratio: f32, src_len: usize) -> (usize, usize, f32) {
    let f = d as f32 * ratio;
    let lo = f.floor() as usize;
    let hi = (lo + 1).min(src_len - 1);
    (lo, hi, f - lo as f32)
}

/// Resize a frame's luminance plane to `(dw, dh)` with bilinear filtering.
/// Color frames are converted to luma first — every filter in the cascade
/// works on luminance.
pub fn resize_frame(frame: &Frame, dw: usize, dh: usize) -> Vec<u8> {
    let mut out = Vec::new();
    resize_frame_into(frame, dw, dh, &mut out);
    out
}

/// [`resize_frame`] into a caller-owned buffer.
pub fn resize_frame_into(frame: &Frame, dw: usize, dh: usize, out: &mut Vec<u8>) {
    resize_bilinear_into(&frame.luma(), frame.width, frame.height, dw, dh, out);
}

/// Resize a frame and normalize to `f32` in `[0, 1]` (filter input format).
/// Computes the f32 path directly — no intermediate `u8` quantization, no
/// second allocation.
pub fn resize_frame_f32(frame: &Frame, dw: usize, dh: usize) -> Vec<f32> {
    let mut out = Vec::new();
    resize_frame_f32_into(frame, dw, dh, &mut out);
    out
}

/// [`resize_frame_f32`] into a caller-owned buffer.
pub fn resize_frame_f32_into(frame: &Frame, dw: usize, dh: usize, out: &mut Vec<f32>) {
    resize_bilinear_f32_into(&frame.luma(), frame.width, frame.height, dw, dh, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_identity() {
        let src = vec![1u8, 2, 3, 4];
        assert_eq!(resize_nearest(&src, 2, 2, 2, 2), src);
    }

    #[test]
    fn nearest_upscale_2x() {
        let src = vec![10u8, 20, 30, 40];
        let out = resize_nearest(&src, 2, 2, 4, 4);
        assert_eq!(out[0], 10);
        assert_eq!(out[3], 20);
        assert_eq!(out[15], 40);
    }

    #[test]
    fn bilinear_identity() {
        let src = vec![5u8, 9, 200, 17];
        assert_eq!(resize_bilinear(&src, 2, 2, 2, 2), src);
    }

    #[test]
    fn bilinear_constant_image_stays_constant() {
        let src = vec![77u8; 16];
        let out = resize_bilinear(&src, 4, 4, 7, 3);
        assert!(out.iter().all(|&p| p == 77));
    }

    #[test]
    fn bilinear_midpoint_interpolates() {
        // 1x2 image [0, 100] upscaled to 1x3 -> midpoint is 50
        let out = resize_bilinear(&[0, 100], 2, 1, 3, 1);
        assert_eq!(out, vec![0, 50, 100]);
    }

    #[test]
    fn f32_path_stays_within_one_lsb_of_u8_path() {
        // deterministic pseudo-random source so every tap weight is exercised
        let src: Vec<u8> = (0..40 * 30)
            .map(|i| ((i * 2654435761u64 as usize) >> 7) as u8)
            .collect();
        let mut f32_out = Vec::new();
        resize_bilinear_f32_into(&src, 40, 30, 17, 11, &mut f32_out);
        let u8_out = resize_bilinear(&src, 40, 30, 17, 11);
        for (f, &q) in f32_out.iter().zip(u8_out.iter()) {
            let diff = (f - q as f32 / 255.0).abs();
            // u8 path rounds to the nearest level, so half an LSB either way
            assert!(diff <= 0.5 / 255.0 + 1e-6, "diff {} exceeds 1/255", diff);
        }
    }

    #[test]
    fn into_variants_match_allocating_and_reuse_buffers() {
        let src: Vec<u8> = (0..64).map(|i| (i * 3) as u8).collect();
        let fresh = resize_bilinear(&src, 8, 8, 5, 5);
        let mut buf = vec![123u8; 3]; // stale, wrongly sized
        resize_bilinear_into(&src, 8, 8, 5, 5, &mut buf);
        assert_eq!(fresh, buf);
        // shrink through the same buffer: no stale tail
        resize_bilinear_into(&src, 8, 8, 2, 2, &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf, resize_bilinear(&src, 8, 8, 2, 2));
        let mut fbuf = vec![9.9f32; 100];
        resize_bilinear_f32_into(&src, 8, 8, 5, 5, &mut fbuf);
        assert_eq!(fbuf.len(), 25);
        assert!(fbuf.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn f32_identity_is_exact() {
        // identity resize must reproduce src/255 exactly (no quantization)
        let src = vec![5u8, 9, 200, 17];
        let mut out = Vec::new();
        resize_bilinear_f32_into(&src, 2, 2, 2, 2, &mut out);
        for (o, &s) in out.iter().zip(src.iter()) {
            assert_eq!(*o, s as f32 / 255.0);
        }
    }

    /// The kernel this module replaced, kept as the identity reference:
    /// both taps recomputed at every pixel, `round()` on the u8 store.
    fn reference_sample(src: &[u8], sw: usize, sh: usize, dw: usize, dh: usize) -> Vec<f32> {
        let (x_ratio, y_ratio) = bilinear_ratios(sw, sh, dw, dh);
        let mut out = Vec::with_capacity(dw * dh);
        for y in 0..dh {
            let (y0, y1, wy) = bilinear_axis(y, y_ratio, sh);
            for x in 0..dw {
                let (x0, x1, wx) = bilinear_axis(x, x_ratio, sw);
                let p00 = src[y0 * sw + x0] as f32;
                let p01 = src[y0 * sw + x1] as f32;
                let p10 = src[y1 * sw + x0] as f32;
                let p11 = src[y1 * sw + x1] as f32;
                let top = p00 + (p01 - p00) * wx;
                let bot = p10 + (p11 - p10) * wx;
                out.push(top + (bot - top) * wy);
            }
        }
        out
    }

    /// Knuth's MMIX LCG; the high bits are the usable ones.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn row_walker_is_bit_identical_to_the_per_pixel_reference() {
        let mut geometries = vec![
            // the live ones: jackson and coral frames to SDD, SNM, T-YOLO
            (300, 200, 100, 100),
            (300, 200, 50, 50),
            (300, 200, 104, 104),
            (320, 180, 100, 100),
            (320, 180, 50, 50),
            (320, 180, 104, 104),
            // degenerate axes, identity, up- and down-scale, non-square
            (1, 1, 1, 1),
            (1, 1, 9, 4),
            (1, 17, 6, 5),
            (23, 1, 4, 8),
            (31, 19, 1, 7),
            (31, 19, 12, 1),
            (31, 19, 1, 1),
            (31, 19, 31, 19),
            (7, 5, 64, 48),
            (64, 48, 7, 5),
            (13, 40, 40, 13),
        ];
        let mut state = 0x5EED;
        while geometries.len() < 240 {
            let mut side = || 1 + (lcg(&mut state) % 72) as usize;
            geometries.push((side(), side(), side(), side()));
        }
        let (mut got_f32, mut got_u8) = (Vec::new(), Vec::new());
        for (sw, sh, dw, dh) in geometries {
            let src: Vec<u8> = (0..sw * sh).map(|_| lcg(&mut state) as u8).collect();
            let want = reference_sample(&src, sw, sh, dw, dh);
            resize_bilinear_f32_into(&src, sw, sh, dw, dh, &mut got_f32);
            resize_bilinear_into(&src, sw, sh, dw, dh, &mut got_u8);
            let geometry = format!("{sw}x{sh} -> {dw}x{dh}");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want_f32: Vec<f32> = want.iter().map(|v| v / 255.0).collect();
            assert_eq!(bits(&got_f32), bits(&want_f32), "f32 plane, {geometry}");
            let want_u8: Vec<u8> = want
                .iter()
                .map(|v| v.round().clamp(0.0, 255.0) as u8)
                .collect();
            assert_eq!(got_u8, want_u8, "u8 plane, {geometry}");
        }
    }

    fn assert_rounds_like_libm(bits: u32) {
        let v = f32::from_bits(bits);
        let want = v.round().clamp(0.0, 255.0) as u8;
        assert_eq!(round_to_u8(v), want, "{v:e} (bits {bits:#010x})");
    }

    #[test]
    fn integer_rounding_matches_round_clamp_strided() {
        // every 1024th pattern of [0, 257] and of [-1, -0]
        for bits in (0..=257.0f32.to_bits()).step_by(1024) {
            assert_rounds_like_libm(bits);
        }
        for bits in ((-0.0f32).to_bits()..=(-1.0f32).to_bits()).step_by(1024) {
            assert_rounds_like_libm(bits);
        }
        // every tie and its two neighbours
        for k in 0..=255 {
            let tie = (k as f32 + 0.5).to_bits();
            for bits in tie - 1..=tie + 1 {
                assert_rounds_like_libm(bits);
            }
        }
        for v in [
            0.0,
            -0.0,
            0.49999997,
            -0.5,
            256.0,
            4294967296.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ] {
            assert_rounds_like_libm(v.to_bits());
        }
    }

    /// Every pattern of magnitude up to 256.0002, both signs (2 × 1 132 462 088):
    /// seconds in release.
    #[test]
    #[ignore = "exhaustive sweep; run with --release -- --include-ignored"]
    fn integer_rounding_matches_round_clamp_exhaustive() {
        let top = 256.0002f32.to_bits();
        for bits in 0..=top {
            assert_rounds_like_libm(bits);
            assert_rounds_like_libm(bits | 0x8000_0000);
        }
    }

    #[test]
    #[should_panic(expected = "source must be non-empty")]
    fn empty_source_is_refused_at_entry() {
        resize_bilinear(&[], 0, 200, 100, 100);
    }

    /// FNV-1a over the three planes the cascade resizes a frame to: 100² f32
    /// (SDD), 50² f32 (SNM), 104² u8 (T-YOLO).
    fn plane_digests(f: &Frame) -> [u64; 3] {
        use crate::checksum::fnv1a;
        let f32_digest = |side: usize| {
            let plane = resize_frame_f32(f, side, side);
            let bytes: Vec<u8> = plane
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            fnv1a(&bytes)
        };
        [
            f32_digest(100),
            f32_digest(50),
            fnv1a(&resize_frame(f, 104, 104)),
        ]
    }

    /// A digest row as it is written in the constants below.
    fn hex(digests: &[u64]) -> String {
        let words: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        format!("[{}]", words.join(", "))
    }

    // The constants of the two golden tests below were printed by these same
    // tests (`--nocapture`) at the parent of the commit that hoisted the
    // x-taps, under the per-pixel kernel with libm rounding, and must never
    // change: `FilterBank::trace_clip`, calibrated thresholds and every
    // survivor set are functions of these planes.

    #[test]
    fn golden_digests_of_a_noise_frame() {
        let mut state = 0x601D;
        let noise: Vec<u8> = (0..320 * 180).map(|_| lcg(&mut state) as u8).collect();
        let got = plane_digests(&Frame::gray8(0, 0, 0, 320, 180, noise));
        println!("noise 320x180: {}", hex(&got));
        assert_eq!(
            got,
            [0xe04e03cbb278a5c2, 0xf782ad2cde8cd65b, 0xe346e80de6bf4dc2]
        );
    }

    /// Frames of the benchmark's two scenes. They are filmed through `rand`:
    /// under the published crate (CI) they are other frames than under the
    /// offline stand-in the constants were taken with, and are only printed.
    #[test]
    fn golden_digests_of_live_workload_frames() {
        use crate::checksum::frame_checksum;
        use crate::generator::VideoStream;
        use crate::workloads;

        // frame index, source frame checksum, plane digests
        type Row = (usize, u64, [u64; 3]);
        #[rustfmt::skip]
        const JACKSON_SEED_1: [Row; 3] = [
            (0, 0x6b221b6e5cad5aed, [0x372a62f335a2cf4a, 0x126ea7791193a7ba, 0x5e9c2622f49385c1]),
            (450, 0xdd51402aee189388, [0x1c768ef2ff82b39c, 0x5d3dd3cf5b60a9c4, 0x05aeca2ab76f1a0a]),
            (899, 0x418b8f088d0452d5, [0xfd9dc4097087b94f, 0x0b226ef7dcfc0501, 0xbf6792baa595ee7e]),
        ];
        #[rustfmt::skip]
        const CORAL_SEED_5: [Row; 3] = [
            (0, 0xecfa5a771726d884, [0xb6035603e7fdd9b1, 0x28bf254c30065c92, 0x934449aad1ce1031]),
            (450, 0xe62c8d468a171adb, [0xe2398ea00d65e17d, 0xb5c5fa3716dd2b7b, 0xce2f59832e438ce6]),
            (899, 0xc90fbe1321c5b86d, [0x5773b720ce6c610c, 0xe82da45c7f324eab, 0x9d8f72097bb1bf44]),
        ];
        for (name, cfg, golden) in [
            (
                "jackson/1",
                workloads::jackson().with_seed(1),
                JACKSON_SEED_1,
            ),
            ("coral/5", workloads::coral().with_seed(5), CORAL_SEED_5),
        ] {
            let clip = VideoStream::new(0, cfg).clip(900);
            for (i, source, want) in golden {
                let f = &clip[i].frame;
                let got = plane_digests(f);
                println!("{name}: ({i}, {:#018x}, {}),", frame_checksum(f), hex(&got));
                if frame_checksum(f) == source {
                    assert_eq!(got, want, "{name} frame {i}");
                } else {
                    eprintln!("{name} frame {i}: filmed with another `rand`, planes not compared");
                }
            }
        }
    }

    #[test]
    fn downscale_preserves_mean_roughly() {
        let src: Vec<u8> = (0..64).map(|i| (i * 4) as u8).collect();
        let mean_src = src.iter().map(|&p| p as f32).sum::<f32>() / 64.0;
        let out = resize_bilinear(&src, 8, 8, 4, 4);
        let mean_out = out.iter().map(|&p| p as f32).sum::<f32>() / 16.0;
        assert!((mean_src - mean_out).abs() < 10.0);
    }
}

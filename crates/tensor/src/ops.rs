//! Low-level kernels: matrix multiply, im2col/col2im, pooling, activations.
//!
//! Convolution is implemented as im2col followed by a matrix multiply — the
//! classic lowering used by Darknet and cuDNN's GEMM algorithm. The matmul is
//! parallelized over output rows with rayon.

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Column-tile width of the blocked matmul: a 1 KB f32 output tile stays
/// L1-resident while the `k` loop streams over `B`.
const MM_COL_TILE: usize = 256;
/// k-block length: the matching `A` segment (256 B) and the `B` row segments
/// it touches (`MM_K_TILE` rows × 1 KB tile) fit comfortably in L1.
const MM_K_TILE: usize = 64;

/// Blocked GEMM inner kernel shared by [`matmul`]/[`matmul_into`] and the
/// batched convolution: `out (m×n) = A (m×k) · B (k×n)`, row-major, parallel
/// over rows of `A`, column- and k-tiled for cache residency.
///
/// Each output element accumulates in ascending-`p` order — the same order
/// as the unblocked kernel — so results are bit-identical to
/// [`matmul_naive`] up to the zero-skip below.
///
/// Finite-weights invariant: the `av == 0.0` shortcut treats `0 · x` as `0`,
/// which is only true for finite `x`. Callers must guarantee `B` is finite
/// wherever the matching `A` entry is zero. The inference hot path satisfies
/// this (trained weights and im2col activations are finite); the
/// training-gradient path uses [`matmul_tn`], which does *not* skip, so
/// NaN/Inf gradients propagate instead of being masked by sparse operands.
fn gemm_into(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut Vec<f32>) {
    gemm_into_with(ad, m, k, bd, n, out, crate::simd::axpy)
}

/// [`gemm_into`] pinned to the scalar inner kernel regardless of the
/// `simd` feature or CPU — the conformance reference the SIMD path is
/// tested against (see [`matmul_into_scalar`]).
fn gemm_into_scalar(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut Vec<f32>) {
    gemm_into_with(ad, m, k, bd, n, out, crate::simd::axpy_scalar)
}

/// Shared blocking/zero-skip skeleton of the GEMM, generic over the
/// `out[j] += a·b[j]` inner kernel so the dispatched and scalar variants
/// are the same code path up to that one loop.
#[inline]
fn gemm_into_with<F>(
    ad: &[f32],
    m: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut Vec<f32>,
    axpy: F,
) where
    F: Fn(f32, &[f32], &mut [f32]) + Sync,
{
    debug_assert_eq!(ad.len(), m * k);
    debug_assert_eq!(bd.len(), k * n);
    out.clear();
    out.resize(m * n, 0.0);
    out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        let arow = &ad[i * k..(i + 1) * k];
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + MM_COL_TILE).min(n);
            let tile = &mut row[j0..j1];
            let mut p0 = 0;
            while p0 < k {
                let p1 = (p0 + MM_K_TILE).min(k);
                for p in p0..p1 {
                    let av = arow[p];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bd[p * n + j0..p * n + j1];
                    axpy(av, brow, tile);
                }
                p0 = p1;
            }
            j0 = j1;
        }
    });
}

/// `C = A (m×k) * B (k×n)`, row-major, parallel over rows of `A`.
///
/// Blocked for cache residency; see [`matmul_into`] for the buffer-reusing
/// variant and the finite-weights invariant of the zero-skip.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Vec::new();
    matmul_into(a, b, &mut out);
    Tensor::from_vec(&[a.shape()[0], b.shape()[1]], out)
}

/// [`matmul`] writing into a caller-owned buffer (`out` is resized to
/// `m·n`), so steady-state callers allocate nothing per invocation.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dims: {} vs {}", k, k2);
    gemm_into(a.data(), m, k, b.data(), n, out);
}

/// [`matmul_into`] forced onto the scalar inner kernel — always available,
/// independent of the `simd` feature and CPU. This is the reference the
/// SIMD conformance proptests and the benchmark's
/// `tensor.matmul_128_scalar_us` row compare against (on a scalar build it
/// is exactly [`matmul_into`]).
pub fn matmul_into_scalar(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dims: {} vs {}", k, k2);
    gemm_into_scalar(a.data(), m, k, b.data(), n, out);
}

/// Unblocked, unskipped reference kernel — the correctness oracle for the
/// blocked [`matmul`]/[`matmul_into`] in equivalence tests. IEEE semantics
/// throughout: `0 · NaN = NaN`.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_naive inner dims");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            for j in 0..n {
                out[i * n + j] += av * bd[p * n + j];
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// `C = Aᵀ (k×m)ᵀ * B (k×n)` without materializing the transpose.
///
/// This is the training-gradient kernel (`Conv2d::backward` dcols,
/// `Dense::backward` dW), so it deliberately has *no* zero-skip: a NaN/Inf
/// weight or gradient must propagate (`0 · NaN = NaN`) and surface training
/// divergence instead of hiding behind sparse activations.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_tn inner dims");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        for p in 0..k {
            let av = ad[p * m + i];
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in row.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    });
    Tensor::from_vec(&[m, n], out)
}

/// `C = A (m×k) * Bᵀ (n×k)ᵀ` without materializing the transpose.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        let arow = &ad[i * k..(i + 1) * k];
        for (j, o) in row.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            *o = acc;
        }
    });
    Tensor::from_vec(&[m, n], out)
}

/// Geometry of a conv/pool window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    pub in_h: usize,
    pub in_w: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvGeom {
    /// Validated constructor: rejects `stride == 0`, `kernel == 0`, and
    /// kernels larger than the padded input — the cases where the raw
    /// `out_h`/`out_w` arithmetic would divide by zero or underflow `usize`
    /// (an inscrutable overflow panic in debug, a wrapped multi-gigabyte
    /// allocation in release).
    pub fn new(
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<ConvGeom, String> {
        if stride == 0 {
            return Err("ConvGeom: stride must be >= 1".into());
        }
        if kernel == 0 {
            return Err("ConvGeom: kernel must be >= 1".into());
        }
        let (span_h, span_w) = (in_h + 2 * pad, in_w + 2 * pad);
        if kernel > span_h || kernel > span_w {
            return Err(format!(
                "ConvGeom: kernel {} exceeds padded input {}x{} \
                 ({}x{} + {} padding on each side)",
                kernel, span_h, span_w, in_h, in_w, pad
            ));
        }
        Ok(ConvGeom {
            in_h,
            in_w,
            kernel,
            stride,
            pad,
        })
    }

    fn checked_out_dim(&self, in_d: usize, axis: &str) -> usize {
        let span = in_d + 2 * self.pad;
        assert!(self.stride >= 1, "ConvGeom: stride must be >= 1");
        assert!(
            self.kernel >= 1 && self.kernel <= span,
            "ConvGeom: kernel {} exceeds padded input {} {} ({} + {} padding on each side)",
            self.kernel,
            axis,
            span,
            in_d,
            self.pad
        );
        (span - self.kernel) / self.stride + 1
    }

    /// Output height for this geometry.
    ///
    /// # Panics
    /// Panics with a descriptive message when the kernel exceeds the padded
    /// input or the stride is zero (use [`ConvGeom::new`] to get a
    /// `Result` instead).
    pub fn out_h(&self) -> usize {
        self.checked_out_dim(self.in_h, "height")
    }
    /// Output width for this geometry.
    ///
    /// # Panics
    /// Same conditions as [`ConvGeom::out_h`].
    pub fn out_w(&self) -> usize {
        self.checked_out_dim(self.in_w, "width")
    }
}

/// Lower one image `(c, h, w)` into a matrix of shape
/// `(c*kernel*kernel, out_h*out_w)` where each column is a receptive field.
pub fn im2col(input: &[f32], c: usize, geom: ConvGeom) -> Tensor {
    let mut out = Vec::new();
    im2col_into(input, c, geom, &mut out);
    Tensor::from_vec(
        &[c * geom.kernel * geom.kernel, geom.out_h() * geom.out_w()],
        out,
    )
}

/// [`im2col`] into a caller-owned buffer (resized to `c·k²·oh·ow`), so the
/// per-frame hot path reuses one lowering buffer instead of allocating.
pub fn im2col_into(input: &[f32], c: usize, geom: ConvGeom, out: &mut Vec<f32>) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let rows = c * k * k;
    let cols = oh * ow;
    out.clear();
    out.resize(rows * cols, 0.0);
    for ch in 0..c {
        let plane = &input[ch * geom.in_h * geom.in_w..(ch + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                im2col_row(plane, geom, ky, kx, &mut out[row * cols..(row + 1) * cols]);
            }
        }
    }
}

/// Fill one im2col row — the sweep of a fixed `(ky, kx)` tap over every
/// output pixel of one channel plane. `dst` must be zeroed (padding taps
/// stay zero) and `out_h·out_w` long.
///
/// im2col is pure data movement, so the span fast path selected under the
/// `simd` feature is *bit-identical* to the per-element sweep — it copies
/// the same elements to the same slots, just without per-element bounds
/// checks (and via `copy_from_slice`/memcpy when the stride is 1).
#[inline]
fn im2col_row(plane: &[f32], geom: ConvGeom, ky: usize, kx: usize, dst: &mut [f32]) {
    // cfg! (not #[cfg]) so both variants always compile: the scalar sweep
    // stays warning-clean and available as the conformance reference.
    if cfg!(feature = "simd") {
        im2col_row_span(plane, geom, ky, kx, dst)
    } else {
        im2col_row_sweep(plane, geom, ky, kx, dst)
    }
}

/// Per-element reference sweep (the pre-vectorization kernel).
#[inline]
fn im2col_row_sweep(plane: &[f32], geom: ConvGeom, ky: usize, kx: usize, dst: &mut [f32]) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    for oy in 0..oh {
        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
        if iy < 0 || iy >= geom.in_h as isize {
            continue;
        }
        let iy = iy as usize;
        for ox in 0..ow {
            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
            if ix < 0 || ix >= geom.in_w as isize {
                continue;
            }
            dst[oy * ow + ox] = plane[iy * geom.in_w + ix as usize];
        }
    }
}

/// Span fast path: hoist the in-bounds `ox` interval out of the inner loop,
/// then bulk-copy (stride 1) or walk a fixed stride with no bounds branch.
#[inline]
fn im2col_row_span(plane: &[f32], geom: ConvGeom, ky: usize, kx: usize, dst: &mut [f32]) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let stride = geom.stride;
    // Valid ox satisfy 0 <= ox·stride + kx − pad < in_w.
    let ox0 = if geom.pad > kx {
        ((geom.pad - kx) + stride - 1) / stride
    } else {
        0
    };
    let limit = geom.in_w + geom.pad; // ix < in_w  ⇔  ox·stride + kx < limit
    let ox1 = if limit > kx {
        (((limit - kx - 1) / stride) + 1).min(ow)
    } else {
        0
    };
    if ox0 >= ox1 {
        return; // this tap never lands in-bounds horizontally
    }
    let span = ox1 - ox0;
    let ix0 = ox0 * stride + kx - geom.pad;
    for oy in 0..oh {
        let iy = (oy * stride + ky) as isize - geom.pad as isize;
        if iy < 0 || iy >= geom.in_h as isize {
            continue;
        }
        let src = &plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
        let drow = &mut dst[oy * ow + ox0..oy * ow + ox1];
        if stride == 1 {
            drow.copy_from_slice(&src[ix0..ix0 + span]);
        } else {
            let mut ix = ix0;
            for d in drow.iter_mut() {
                *d = src[ix];
                ix += stride;
            }
        }
    }
}

/// Scatter-add the columns of a `(c*k*k, out_h*out_w)` matrix back into an
/// image buffer of shape `(c, in_h, in_w)` — the adjoint of [`im2col`].
pub fn col2im(cols_t: &Tensor, c: usize, geom: ConvGeom) -> Vec<f32> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let cols = oh * ow;
    let mut out = vec![0.0f32; c * geom.in_h * geom.in_w];
    let data = cols_t.data();
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let base = row * cols;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        out[(ch * geom.in_h + iy) * geom.in_w + ix as usize] +=
                            data[base + oy * ow + ox];
                    }
                }
            }
        }
    }
    out
}

/// Naive direct convolution used as a correctness reference in tests.
/// Input `(n, c, h, w)`, weights `(oc, c, k, k)`, bias `(oc)`.
pub fn conv2d_naive(input: &Tensor, weight: &Tensor, bias: &Tensor, geom: ConvGeom) -> Tensor {
    let (n, c) = (input.shape()[0], input.shape()[1]);
    let oc = weight.shape()[0];
    let k = geom.kernel;
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    for b in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.data()[o];
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                                let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= geom.in_h as isize
                                    || ix >= geom.in_w as isize
                                {
                                    continue;
                                }
                                acc += input.at4(b, ci, iy as usize, ix as usize)
                                    * weight.at4(o, ci, ky, kx);
                            }
                        }
                    }
                    *out.at4_mut(b, o, oy, ox) = acc;
                }
            }
        }
    }
    out
}

/// Reusable buffers for [`conv2d_scratch`]: the batched im2col matrix and
/// the raw GEMM output. Owned per layer (or per worker) and recycled across
/// forward passes; serde-skipped where embedded in serialized layers.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    /// Batched im2col matrix, `(c·k², n·oh·ow)` row-major.
    pub cols: Vec<f32>,
    /// GEMM output, `(oc, n·oh·ow)` row-major, before the bias/NCHW scatter.
    pub gemm: Vec<f32>,
}

/// im2col + GEMM convolution. Input `(n, c, h, w)`, weights `(oc, c, k, k)`.
///
/// Thin wrapper over [`conv2d_scratch`] with throwaway buffers; hot paths
/// hold a [`ConvScratch`] and call the scratch variant directly.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, geom: ConvGeom) -> Tensor {
    let mut scratch = ConvScratch::default();
    conv2d_scratch(input, weight, bias, geom, &mut scratch)
}

/// Batched im2col + GEMM convolution with caller-owned scratch.
///
/// The whole batch is lowered into ONE `(c·k², n·oh·ow)` matrix (columns
/// grouped by image) and multiplied by the `(oc, c·k²)` weight matrix in ONE
/// blocked GEMM — one im2col and one GEMM per call regardless of batch
/// size — then scattered back to NCHW with the bias added. Per output
/// element the accumulation order over `c·k²` is identical to the
/// per-image formulation, so batched and single-frame forwards are
/// bit-identical.
pub fn conv2d_scratch(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: ConvGeom,
    scratch: &mut ConvScratch,
) -> Tensor {
    assert_eq!(input.rank(), 4);
    assert_eq!(weight.rank(), 4);
    let (n, c) = (input.shape()[0], input.shape()[1]);
    assert_eq!(c, weight.shape()[1], "conv2d channel mismatch");
    assert_eq!(input.shape()[2], geom.in_h);
    assert_eq!(input.shape()[3], geom.in_w);
    let oc = weight.shape()[0];
    let k = geom.kernel;
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let img_cols = oh * ow;
    let total_cols = n * img_cols;
    let rows = c * k * k;
    let plane = c * geom.in_h * geom.in_w;
    let in_data = input.data();

    // Batched im2col: each rayon task owns one (ch, ky, kx) tap row and
    // sweeps it across every image's column block.
    scratch.cols.clear();
    scratch.cols.resize(rows * total_cols, 0.0);
    scratch
        .cols
        .par_chunks_mut(total_cols)
        .enumerate()
        .for_each(|(row, dst)| {
            let ch = row / (k * k);
            let rem = row % (k * k);
            let (ky, kx) = (rem / k, rem % k);
            let plane_off = ch * geom.in_h * geom.in_w;
            for b in 0..n {
                let img_plane =
                    &in_data[b * plane + plane_off..b * plane + plane_off + geom.in_h * geom.in_w];
                im2col_row(
                    img_plane,
                    geom,
                    ky,
                    kx,
                    &mut dst[b * img_cols..(b + 1) * img_cols],
                );
            }
        });

    // ONE GEMM for the whole batch: (oc, c·k²) · (c·k², n·oh·ow).
    gemm_into(
        weight.data(),
        oc,
        rows,
        &scratch.cols,
        total_cols,
        &mut scratch.gemm,
    );

    // Scatter (oc, n·oh·ow) back to NCHW and add the bias.
    let mut out = vec![0.0f32; n * oc * img_cols];
    let gemm = &scratch.gemm;
    let bias_d = bias.data();
    out.par_chunks_mut(oc * img_cols)
        .enumerate()
        .for_each(|(b, img)| {
            for o in 0..oc {
                let bo = bias_d[o];
                let src = &gemm[o * total_cols + b * img_cols..o * total_cols + (b + 1) * img_cols];
                let dst = &mut img[o * img_cols..(o + 1) * img_cols];
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d = s + bo;
                }
            }
        });
    Tensor::from_vec(&[n, oc, oh, ow], out)
}

/// Max pooling over `(n, c, h, w)`. Returns the pooled output together with
/// the flat argmax index of each window (for the backward pass).
pub fn maxpool2d(input: &Tensor, kernel: usize, stride: usize) -> (Tensor, Vec<u32>) {
    assert_eq!(input.rank(), 4);
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut arg = vec![0u32; n * c * oh * ow];
    let mut idx = 0usize;
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0u32;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * stride + ky;
                            let ix = ox * stride + kx;
                            let v = input.at4(b, ch, iy, ix);
                            if v > best {
                                best = v;
                                best_i = (((b * c + ch) * h + iy) * w + ix) as u32;
                            }
                        }
                    }
                    *out.at4_mut(b, ch, oy, ox) = best;
                    arg[idx] = best_i;
                    idx += 1;
                }
            }
        }
    }
    (out, arg)
}

/// Backward of max pooling: route each output gradient to its argmax source.
pub fn maxpool2d_backward(grad_out: &Tensor, arg: &[u32], input_shape: &[usize]) -> Tensor {
    let mut grad_in = Tensor::zeros(input_shape);
    let gi = grad_in.data_mut();
    for (g, &i) in grad_out.data().iter().zip(arg.iter()) {
        gi[i as usize] += g;
    }
    grad_in
}

/// Global average pooling `(n, c, h, w) -> (n, c)`.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    assert_eq!(input.rank(), 4);
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let hw = (h * w) as f32;
    let mut out = Tensor::zeros(&[n, c]);
    for b in 0..n {
        for ch in 0..c {
            let mut acc = 0.0;
            for y in 0..h {
                for x in 0..w {
                    acc += input.at4(b, ch, y, x);
                }
            }
            out.data_mut()[b * c + ch] = acc / hw;
        }
    }
    out
}

/// Element-wise ReLU.
pub fn relu(x: &Tensor) -> Tensor {
    let data = x.data().iter().map(|&v| v.max(0.0)).collect();
    Tensor::from_vec(x.shape(), data)
}

/// Element-wise leaky ReLU with slope `alpha` on the negative side.
pub fn leaky_relu(x: &Tensor, alpha: f32) -> Tensor {
    let data = x
        .data()
        .iter()
        .map(|&v| if v > 0.0 { v } else { alpha * v })
        .collect();
    Tensor::from_vec(x.shape(), data)
}

/// Element-wise logistic sigmoid.
pub fn sigmoid(x: &Tensor) -> Tensor {
    let data = x.data().iter().map(|&v| sigmoid_scalar(v)).collect();
    Tensor::from_vec(x.shape(), data)
}

/// Scalar logistic sigmoid.
#[inline]
pub fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Row-wise softmax of a rank-2 tensor.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 2);
    let cols = x.shape()[1];
    let mut out = Vec::with_capacity(x.len());
    for row in x.data().chunks(cols) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
        let s: f32 = exps.iter().sum();
        out.extend(exps.iter().map(|e| e / s));
    }
    Tensor::from_vec(x.shape(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        // aT is 2x3
        let c = matmul_tn(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        // aT*b row0 = [1,3,5]·cols of b
        assert!(close(c.at2(0, 0), 1.0 * 1.0 + 3.0 * 0.0 + 5.0 * 1.0));
        assert!(close(c.at2(1, 1), 2.0 * 0.0 + 4.0 * 1.0 + 6.0 * 1.0));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[2, 3], vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0]);
        let c = matmul_nt(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert!(close(c.at2(0, 0), 1.0 + 2.0));
        assert!(close(c.at2(0, 1), 2.0 + 3.0));
    }

    #[test]
    fn matmul_blocked_matches_naive_past_tile_boundaries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // n and k straddle MM_COL_TILE / MM_K_TILE so every tile edge runs
        let (m, k, n) = (5, 70, 300);
        let a = Tensor::from_vec(
            &[m, k],
            (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let b = Tensor::from_vec(
            &[k, n],
            (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_across_shapes() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let mut buf = vec![99.0f32; 17]; // stale, wrongly sized
        matmul_into(&a, &b, &mut buf);
        assert_eq!(buf, vec![19.0, 22.0, 43.0, 50.0]);
        // shrink to a smaller product: stale tail must not leak through
        let a1 = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let b1 = Tensor::from_vec(&[2, 1], vec![2.0, 3.0]);
        matmul_into(&a1, &b1, &mut buf);
        assert_eq!(buf, vec![5.0]);
    }

    /// 0 · NaN must be NaN on the training-gradient path: a NaN weight
    /// behind a zero activation has to surface, not vanish (the old
    /// zero-skip silently masked diverged weights).
    #[test]
    fn matmul_tn_propagates_nan_behind_zero() {
        // aT row picks a[.][i]; put a zero in A against a NaN in B
        let a = Tensor::from_vec(&[2, 1], vec![0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 1], vec![f32::NAN, 1.0]);
        let c = matmul_tn(&a, &b);
        assert!(
            c.data()[0].is_nan(),
            "0·NaN must propagate, got {}",
            c.data()[0]
        );
    }

    /// Where the skip is kept ([`matmul`], inference path) the documented
    /// finite-weights invariant applies: zero rows skip, finite math is
    /// unchanged.
    #[test]
    fn matmul_zero_skip_exact_on_finite_inputs() {
        let a = Tensor::from_vec(&[1, 3], vec![0.0, 2.0, 0.0]);
        let b = Tensor::from_vec(&[3, 2], vec![9.0, 9.0, 1.0, 2.0, 9.0, 9.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[2.0, 4.0]);
    }

    #[test]
    fn conv_geom_new_rejects_degenerate_geometry() {
        // kernel larger than the padded input used to underflow usize
        let err = ConvGeom::new(3, 3, 7, 1, 0).unwrap_err();
        assert!(
            err.contains("kernel 7 exceeds"),
            "unexpected message: {err}"
        );
        assert!(ConvGeom::new(3, 3, 7, 1, 2).is_ok()); // 3 + 2·2 = 7 fits
        assert!(ConvGeom::new(3, 3, 3, 0, 0).unwrap_err().contains("stride"));
        assert!(ConvGeom::new(3, 3, 0, 1, 0).unwrap_err().contains("kernel"));
    }

    #[test]
    #[should_panic(expected = "exceeds padded input")]
    fn conv_geom_oversized_kernel_panics_clearly() {
        let g = ConvGeom {
            in_h: 3,
            in_w: 3,
            kernel: 7,
            stride: 1,
            pad: 0,
        };
        let _ = g.out_h();
    }

    #[test]
    fn conv2d_scratch_reuse_is_stable() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let input = Tensor::from_vec(
            &[3, 2, 6, 6],
            (0..3 * 2 * 36).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let weight = Tensor::from_vec(
            &[4, 2, 3, 3],
            (0..4 * 2 * 9).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let bias = Tensor::from_vec(&[4], vec![0.1, -0.2, 0.3, 0.0]);
        let geom = ConvGeom::new(6, 6, 3, 1, 1).unwrap();
        let mut scratch = ConvScratch::default();
        let first = conv2d_scratch(&input, &weight, &bias, geom, &mut scratch);
        // second pass through the dirty scratch must be identical
        let second = conv2d_scratch(&input, &weight, &bias, geom, &mut scratch);
        assert_eq!(first.data(), second.data());
        // and a smaller batch through the same (oversized) scratch too
        let small = Tensor::from_vec(&[1, 2, 6, 6], input.data()[..72].to_vec());
        let via_scratch = conv2d_scratch(&small, &weight, &bias, geom, &mut scratch);
        let fresh = conv2d(&small, &weight, &bias, geom);
        assert_eq!(via_scratch.data(), fresh.data());
    }

    /// The batched lowering (one im2col + one GEMM for the whole batch)
    /// must be bit-identical to running each image alone — the property
    /// that keeps DES↔RT survivor sets identical when RT batches.
    #[test]
    fn conv2d_batched_is_bit_identical_to_per_image() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 4;
        let input = Tensor::from_vec(
            &[n, 1, 10, 10],
            (0..n * 100).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let weight = Tensor::from_vec(
            &[8, 1, 5, 5],
            (0..8 * 25).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let bias = Tensor::from_vec(&[8], (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let geom = ConvGeom::new(10, 10, 5, 2, 2).unwrap();
        let batched = conv2d(&input, &weight, &bias, geom);
        let out_plane = batched.len() / n;
        for b in 0..n {
            let one = Tensor::from_vec(
                &[1, 1, 10, 10],
                input.data()[b * 100..(b + 1) * 100].to_vec(),
            );
            let single = conv2d(&one, &weight, &bias, geom);
            assert_eq!(
                single.data(),
                &batched.data()[b * out_plane..(b + 1) * out_plane],
                "image {} diverged between batched and single forward",
                b
            );
        }
    }

    /// The span fast path and the per-element sweep must place identical
    /// bits in identical slots for every geometry shape (pad > kernel,
    /// stride > 1, taps that never land in-bounds, 1×1 kernels).
    #[test]
    fn im2col_row_span_is_bit_identical_to_sweep() {
        let cases = [
            ConvGeom::new(5, 5, 3, 1, 1).unwrap(),
            ConvGeom::new(10, 10, 5, 2, 2).unwrap(),
            ConvGeom::new(7, 9, 3, 2, 0).unwrap(),
            ConvGeom::new(3, 3, 3, 1, 2).unwrap(), // pad spans most of the input
            ConvGeom::new(6, 6, 1, 1, 0).unwrap(),
            ConvGeom::new(4, 4, 2, 3, 1).unwrap(), // stride > kernel
            ConvGeom::new(2, 2, 3, 1, 3).unwrap(), // heavy padding, tiny input
        ];
        for geom in cases {
            let plane: Vec<f32> = (0..geom.in_h * geom.in_w)
                .map(|i| (i as f32 * 0.73).sin())
                .collect();
            let (oh, ow) = (geom.out_h(), geom.out_w());
            for ky in 0..geom.kernel {
                for kx in 0..geom.kernel {
                    let mut sweep = vec![0.0f32; oh * ow];
                    let mut span = vec![0.0f32; oh * ow];
                    im2col_row_sweep(&plane, geom, ky, kx, &mut sweep);
                    im2col_row_span(&plane, geom, ky, kx, &mut span);
                    let sweep_bits: Vec<u32> = sweep.iter().map(|v| v.to_bits()).collect();
                    let span_bits: Vec<u32> = span.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(sweep_bits, span_bits, "geom {:?} tap ({ky},{kx})", geom);
                }
            }
        }
    }

    #[test]
    fn im2col_into_reuses_buffer() {
        let geom = ConvGeom::new(3, 3, 2, 1, 0).unwrap();
        let input: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let fresh = im2col(&input, 1, geom);
        let mut buf = vec![7.0f32; 3]; // stale, wrongly sized
        im2col_into(&input, 1, geom, &mut buf);
        assert_eq!(fresh.data(), &buf[..]);
    }

    #[test]
    fn conv_geom_output_dims() {
        let g = ConvGeom {
            in_h: 5,
            in_w: 5,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_h(), 5);
        assert_eq!(g.out_w(), 5);
        let g2 = ConvGeom {
            in_h: 4,
            in_w: 6,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(g2.out_h(), 2);
        assert_eq!(g2.out_w(), 3);
    }

    #[test]
    fn conv2d_matches_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let input = Tensor::from_vec(
            &[2, 3, 6, 7],
            (0..2 * 3 * 6 * 7)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let weight = Tensor::from_vec(
            &[4, 3, 3, 3],
            (0..4 * 3 * 9).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let bias = Tensor::from_vec(&[4], (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let geom = ConvGeom {
            in_h: 6,
            in_w: 7,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let fast = conv2d(&input, &weight, &bias, geom);
        let slow = conv2d_naive(&input, &weight, &bias, geom);
        assert_eq!(fast.shape(), slow.shape());
        for (a, b) in fast.data().iter().zip(slow.data().iter()) {
            assert!(close(*a, *b), "{} vs {}", a, b);
        }
    }

    #[test]
    fn conv2d_stride2_matches_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let input = Tensor::from_vec(
            &[1, 2, 8, 8],
            (0..2 * 64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let weight = Tensor::from_vec(
            &[3, 2, 3, 3],
            (0..3 * 2 * 9).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let bias = Tensor::zeros(&[3]);
        let geom = ConvGeom {
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 2,
            pad: 0,
        };
        let fast = conv2d(&input, &weight, &bias, geom);
        let slow = conv2d_naive(&input, &weight, &bias, geom);
        for (a, b) in fast.data().iter().zip(slow.data().iter()) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn im2col_col2im_adjoint_shape() {
        // col2im(im2col(x)) multiplies each pixel by the number of windows
        // covering it; with kernel=1 stride=1 it is the identity.
        let geom = ConvGeom {
            in_h: 3,
            in_w: 3,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let input: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let cols = im2col(&input, 1, geom);
        let back = col2im(&cols, 1, geom);
        assert_eq!(back, input);
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let (out, arg) = maxpool2d(&input, 2, 2);
        assert_eq!(out.data(), &[4.0, 8.0, 12.0, 16.0]);
        let grad_out = Tensor::full(&[1, 1, 2, 2], 1.0);
        let grad_in = maxpool2d_backward(&grad_out, &arg, &[1, 1, 4, 4]);
        // exactly one gradient per window, at the max location
        assert_eq!(grad_in.sum(), 4.0);
        assert_eq!(grad_in.at4(0, 0, 1, 1), 1.0);
        assert_eq!(grad_in.at4(0, 0, 3, 3), 1.0);
    }

    #[test]
    fn activations() {
        let x = Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
        assert_eq!(leaky_relu(&x, 0.1).data(), &[-0.1, 0.0, 2.0]);
        let s = sigmoid(&x);
        assert!(close(s.data()[1], 0.5));
        assert!(s.data()[0] < 0.5 && s.data()[2] > 0.5);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&x);
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!(close(sum, 1.0));
        }
        // monotone in input
        assert!(s.at2(0, 2) > s.at2(0, 1));
    }

    #[test]
    fn global_avg_pool_means() {
        let input = Tensor::from_vec(
            &[1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        );
        let out = global_avg_pool(&input);
        assert_eq!(out.data(), &[2.5, 10.0]);
    }
}

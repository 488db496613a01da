//! Per-worker scratch buffers for the filter-cascade hot path.
//!
//! Every stage of the cascade (SDD, SNM, T-YOLO) resizes and normalizes each
//! frame before inference; with the allocating entry points that costs 2–3
//! `Vec` allocations per frame per stage. A [`Scratch`] is owned by exactly
//! one worker (one pipeline-stage closure or thread) and handed by `&mut` to
//! the `_with`/`_frames` model entry points, which resize into it instead of
//! allocating. See DESIGN.md §10 for the ownership rules.
//!
//! It holds destination planes only. The bilinear kernel's column taps
//! (`ffsva_video::resize`) are not cached here: recomputing them is under a
//! microsecond of a 25 µs resize (measured, see that module), so the kernel
//! builds its 100-odd taps per call and a `Scratch` stays geometry-free.

/// Reusable per-worker buffers. `Default`-constructed empty; every user
/// resizes the buffer it needs, so a single `Scratch` can serve stages with
/// different input sizes (buffers grow to the largest size seen and stay
/// there).
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// Resized + normalized `f32` plane: SDD 100², SNM 50² (filled by the
    /// resize), T-YOLO 104² (`tyolo::INTERNAL`, not the paper's 416²; filled
    /// from `luma8`).
    pub resized: Vec<f32>,
    /// Resized `u8` luminance plane (T-YOLO keeps the u8 quantization step
    /// so detection counts stay identical to the allocating path).
    pub luma8: Vec<u8>,
    /// Flattened SNM batch input (`n × 50 × 50`), recycled across batches.
    pub batch: Vec<f32>,
}

impl Scratch {
    pub fn new() -> Self {
        Self::default()
    }
}

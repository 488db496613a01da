//! Video frames and per-frame metadata.
//!
//! Frames travel through every pipeline stage, so the pixel payload is stored
//! in a reference-counted [`bytes::Bytes`] buffer: cloning a frame to hand it
//! to the next queue is O(1) and never copies pixels.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Pixel layout of a frame buffer.
///
/// The cascade's filters all operate on luminance; the generator produces
/// `Gray8` by default and `Rgb8` (interleaved, row-major) in color mode —
/// filters call [`Frame::luma`] and work on either.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PixelFormat {
    #[default]
    Gray8,
    Rgb8,
}

impl PixelFormat {
    /// Bytes per pixel.
    pub fn bytes_per_pixel(&self) -> usize {
        match self {
            PixelFormat::Gray8 => 1,
            PixelFormat::Rgb8 => 3,
        }
    }

    /// Byte length of one `width × height` frame; `InvalidData` when a
    /// dimension is zero or the product overflows. What a parser of an
    /// untrusted header calls before it sizes a buffer or builds a [`Frame`].
    pub fn frame_len(&self, width: usize, height: usize) -> std::io::Result<usize> {
        width
            .checked_mul(height)
            .and_then(|px| px.checked_mul(self.bytes_per_pixel()))
            .filter(|&len| len > 0)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("header declares {width}x{height} frames"),
                )
            })
    }
}

/// Identifier of a video stream within an FFS-VA instance.
pub type StreamId = u32;

/// A single video frame: metadata plus a shared pixel buffer.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Which stream the frame belongs to.
    pub stream: StreamId,
    /// Monotonic per-stream sequence number (0-based).
    pub seq: u64,
    /// Presentation timestamp in milliseconds since stream start.
    pub pts_ms: u64,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Pixel format of `data`.
    pub format: PixelFormat,
    /// Shared pixel payload (row-major).
    pub data: Bytes,
}

impl Frame {
    /// Construct a Gray8 frame from a raw luminance buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height`.
    pub fn gray8(
        stream: StreamId,
        seq: u64,
        pts_ms: u64,
        width: usize,
        height: usize,
        data: Vec<u8>,
    ) -> Self {
        assert_eq!(data.len(), width * height, "gray8 buffer size mismatch");
        Frame {
            stream,
            seq,
            pts_ms,
            width,
            height,
            format: PixelFormat::Gray8,
            data: Bytes::from(data),
        }
    }

    /// Construct an Rgb8 frame from an interleaved RGB buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height * 3`.
    pub fn rgb8(
        stream: StreamId,
        seq: u64,
        pts_ms: u64,
        width: usize,
        height: usize,
        data: Vec<u8>,
    ) -> Self {
        assert_eq!(data.len(), width * height * 3, "rgb8 buffer size mismatch");
        Frame {
            stream,
            seq,
            pts_ms,
            width,
            height,
            format: PixelFormat::Rgb8,
            data: Bytes::from(data),
        }
    }

    /// The frame's luminance plane: borrowed for Gray8, computed (BT.601)
    /// for Rgb8. Everything in the cascade consumes this.
    pub fn luma(&self) -> std::borrow::Cow<'_, [u8]> {
        match self.format {
            PixelFormat::Gray8 => std::borrow::Cow::Borrowed(&self.data),
            PixelFormat::Rgb8 => std::borrow::Cow::Owned(
                self.data
                    .chunks_exact(3)
                    .map(|p| {
                        (0.299 * p[0] as f32 + 0.587 * p[1] as f32 + 0.114 * p[2] as f32)
                            .round()
                            .clamp(0.0, 255.0) as u8
                    })
                    .collect(),
            ),
        }
    }

    /// RGB triple at `(x, y)` (Gray8 frames return the luma in each channel).
    pub fn at_rgb(&self, x: usize, y: usize) -> (u8, u8, u8) {
        match self.format {
            PixelFormat::Gray8 => {
                let v = self.data[y * self.width + x];
                (v, v, v)
            }
            PixelFormat::Rgb8 => {
                let i = (y * self.width + x) * 3;
                (self.data[i], self.data[i + 1], self.data[i + 2])
            }
        }
    }

    /// Luma value at `(x, y)`.
    ///
    /// # Panics
    /// Only valid on Gray8 frames; use [`Frame::at_rgb`] or [`Frame::luma`]
    /// for color frames.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u8 {
        debug_assert_eq!(self.format, PixelFormat::Gray8);
        self.data[y * self.width + x]
    }

    /// Number of pixels.
    #[inline]
    pub fn num_pixels(&self) -> usize {
        self.width * self.height
    }

    /// The pixel buffer as a slice.
    #[inline]
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Luminance converted to `f32` in `[0, 1]`.
    pub fn to_f32(&self) -> Vec<f32> {
        self.luma().iter().map(|&p| p as f32 / 255.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray8_frame_indexing() {
        let f = Frame::gray8(1, 0, 0, 3, 2, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(f.at(0, 0), 0);
        assert_eq!(f.at(2, 0), 2);
        assert_eq!(f.at(0, 1), 3);
        assert_eq!(f.num_pixels(), 6);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn gray8_wrong_size_panics() {
        let _ = Frame::gray8(0, 0, 0, 2, 2, vec![0; 3]);
    }

    #[test]
    fn clone_shares_buffer() {
        let f = Frame::gray8(0, 0, 0, 2, 2, vec![9; 4]);
        let g = f.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(f.data.as_ptr(), g.data.as_ptr());
    }

    #[test]
    fn to_f32_normalizes() {
        let f = Frame::gray8(0, 0, 0, 2, 1, vec![0, 255]);
        let v = f.to_f32();
        assert_eq!(v, vec![0.0, 1.0]);
    }
}

/// Write a frame as a binary netpbm image (PGM/P5 for Gray8, PPM/P6 for
/// Rgb8) — handy for eyeballing what the generator and filters actually see.
pub fn write_pgm(frame: &Frame, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let magic = match frame.format {
        PixelFormat::Gray8 => "P5",
        PixelFormat::Rgb8 => "P6",
    };
    write!(f, "{}\n{} {}\n255\n", magic, frame.width, frame.height)?;
    f.write_all(frame.pixels())?;
    Ok(())
}

#[cfg(test)]
mod pgm_tests {
    use super::*;

    #[test]
    fn rgb_frame_luma_and_access() {
        // one red, one green, one blue, one white pixel
        let f = Frame::rgb8(
            0,
            0,
            0,
            2,
            2,
            vec![255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255],
        );
        assert_eq!(f.at_rgb(0, 0), (255, 0, 0));
        assert_eq!(f.at_rgb(1, 1), (255, 255, 255));
        let y = f.luma();
        assert_eq!(y.len(), 4);
        assert_eq!(y[0], 76); // 0.299*255
        assert_eq!(y[1], 150); // 0.587*255
        assert_eq!(y[2], 29); // 0.114*255
        assert_eq!(y[3], 255);
        // green is perceptually brightest
        assert!(y[1] > y[0] && y[0] > y[2]);
    }

    #[test]
    fn gray_luma_is_borrowed() {
        let f = Frame::gray8(0, 0, 0, 2, 1, vec![7, 9]);
        match f.luma() {
            std::borrow::Cow::Borrowed(b) => assert_eq!(b, &[7, 9]),
            _ => panic!("gray frames must not copy"),
        }
    }

    #[test]
    fn ppm_written_for_rgb() {
        let f = Frame::rgb8(0, 0, 0, 1, 1, vec![1, 2, 3]);
        let path = std::env::temp_dir().join("ffsva_ppm_test.ppm");
        write_pgm(&f, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n1 1\n255\n"));
        assert_eq!(&bytes[bytes.len() - 3..], &[1, 2, 3]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pgm_has_header_and_payload() {
        let f = Frame::gray8(0, 0, 0, 3, 2, vec![10, 20, 30, 40, 50, 60]);
        let path = std::env::temp_dir().join("ffsva_pgm_test.pgm");
        write_pgm(&f, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n3 2\n255\n"));
        assert_eq!(&bytes[bytes.len() - 6..], &[10, 20, 30, 40, 50, 60]);
        std::fs::remove_file(path).unwrap();
    }
}

//! On-disk clip storage with streaming readers.
//!
//! §5.2: offline analysis processes a 55 GB day-long file with under 8 GB of
//! CPU memory, and §5.5 proposes temporarily spilling burst frames "in the
//! storage system, to be processed later". Both need a frame container that
//! can be written incrementally and read back as a stream with O(1) memory.
//!
//! Format (`FFSV1`): a JSON header line with the stream geometry, then one
//! record per frame — sequence number, timestamp, ground-truth JSON, and
//! RLE-compressed Gray8 pixels (how well RLE does depends on sensor noise;
//! the reader never needs more than one frame in memory either way).
//! Container version 2 (header field `version`, same magic) appends a
//! 64-bit FNV-1a checksum to every record so torn writes and bit rot are
//! detected instead of decoded into garbage; v1 files remain readable.

use crate::checksum::{fnv1a_continue, FNV_OFFSET};
use crate::frame::{Frame, PixelFormat};
use crate::generator::LabeledFrame;
use crate::truth::GroundTruth;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 6] = b"FFSV1\n";

/// Container version stamped by [`ClipWriter`]. Version 2 adds a per-record
/// FNV-1a checksum; version 1 files (written before the field existed) have
/// none and remain readable.
pub const CLIP_VERSION: u32 = 2;

fn clip_version_v1() -> u32 {
    1
}

/// Clip-level metadata stored in the header.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ClipHeader {
    pub width: usize,
    pub height: usize,
    pub fps: u32,
    pub stream: u32,
    /// Pixel layout of the stored frames (defaults to Gray8 for files
    /// written by earlier versions).
    #[serde(default)]
    pub format: PixelFormat,
    /// Container version. Headers written before the field existed
    /// deserialize as 1 (no record checksums); the writer always stamps
    /// [`CLIP_VERSION`].
    #[serde(default = "clip_version_v1")]
    pub version: u32,
}

/// A record failed integrity checks: truncated mid-frame, undecodable, or
/// checksum mismatch. Carried inside an [`io::Error`] of kind
/// [`io::ErrorKind::InvalidData`]; downcast to recover the failing index:
///
/// ```
/// # use ffsva_video::ClipIntegrityError;
/// # fn failing_index(err: &std::io::Error) -> Option<u64> {
/// err.get_ref()
///     .and_then(|e| e.downcast_ref::<ClipIntegrityError>())
///     .map(|e| e.frame_index)
/// # }
/// ```
#[derive(Debug)]
pub struct ClipIntegrityError {
    /// Zero-based index of the record that failed (frames successfully read
    /// before the damage).
    pub frame_index: u64,
    /// Human-readable description of the damage.
    pub detail: String,
}

impl fmt::Display for ClipIntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clip record {} corrupt: {}",
            self.frame_index, self.detail
        )
    }
}

impl std::error::Error for ClipIntegrityError {}

/// FNV-1a over the serialized record fields (exactly the bytes on disk
/// between the seq field and the checksum itself).
fn record_checksum(seq: u64, pts_ms: u64, truth: &[u8], rle: &[u8]) -> u64 {
    let mut h = fnv1a_continue(FNV_OFFSET, &seq.to_le_bytes());
    h = fnv1a_continue(h, &pts_ms.to_le_bytes());
    h = fnv1a_continue(h, truth);
    fnv1a_continue(h, rle)
}

/// Run-length encode a Gray8 buffer as (count, value) pairs.
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2);
    let mut i = 0;
    while i < data.len() {
        let v = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == v && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(v);
        i += run;
    }
    out
}

/// Decode RLE back into a buffer of exactly `expect` bytes. Total work and
/// allocation are bounded by `expect` no matter what `encoded` contains:
/// malformed input returns `Err`, never a panic or an oversized buffer.
pub fn rle_decode(encoded: &[u8], expect: usize) -> io::Result<Vec<u8>> {
    if !encoded.len().is_multiple_of(2) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "odd RLE length"));
    }
    // never reserve more than the runs present can fill, whatever `expect`
    // (a header's width × height) claims
    let mut out = Vec::with_capacity(expect.min(encoded.len() / 2 * 255));
    for pair in encoded.chunks(2) {
        let (run, v) = (pair[0] as usize, pair[1]);
        if run == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "zero-length run",
            ));
        }
        // Bail before growing past the declared length: adversarial input
        // must not be able to allocate more than `expect` bytes.
        if out.len() + run > expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("RLE overruns declared length {expect}"),
            ));
        }
        out.resize(out.len() + run, v);
    }
    if out.len() != expect {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("RLE decoded {} bytes, expected {}", out.len(), expect),
        ));
    }
    Ok(out)
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Incremental clip writer.
pub struct ClipWriter {
    out: BufWriter<File>,
    header: ClipHeader,
    frames: u64,
}

impl ClipWriter {
    /// Create a clip file and write its header. The header is always
    /// stamped with the current [`CLIP_VERSION`] regardless of what the
    /// caller passed — only the reader honours older versions.
    pub fn create(path: &Path, mut header: ClipHeader) -> io::Result<Self> {
        header.version = CLIP_VERSION;
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        let hjson = serde_json::to_string(&header).expect("serializable header");
        write_u32(&mut out, hjson.len() as u32)?;
        out.write_all(hjson.as_bytes())?;
        Ok(ClipWriter {
            out,
            header,
            frames: 0,
        })
    }

    /// Append one labeled frame.
    ///
    /// # Panics
    /// Panics if the frame geometry does not match the header.
    pub fn write(&mut self, lf: &LabeledFrame) -> io::Result<()> {
        assert_eq!(lf.frame.width, self.header.width, "frame width");
        assert_eq!(lf.frame.height, self.header.height, "frame height");
        assert_eq!(lf.frame.format, self.header.format, "pixel format");
        write_u64(&mut self.out, lf.frame.seq)?;
        write_u64(&mut self.out, lf.frame.pts_ms)?;
        let truth = serde_json::to_vec(&lf.truth).expect("serializable truth");
        write_u32(&mut self.out, truth.len() as u32)?;
        self.out.write_all(&truth)?;
        let rle = rle_encode(lf.frame.pixels());
        write_u32(&mut self.out, rle.len() as u32)?;
        self.out.write_all(&rle)?;
        if self.header.version >= 2 {
            let sum = record_checksum(lf.frame.seq, lf.frame.pts_ms, &truth, &rle);
            write_u64(&mut self.out, sum)?;
        }
        self.frames += 1;
        Ok(())
    }

    /// Flush and close; returns the number of frames written.
    pub fn finish(mut self) -> io::Result<u64> {
        self.out.flush()?;
        Ok(self.frames)
    }
}

/// Streaming clip reader: an iterator holding one frame at a time.
pub struct ClipReader {
    input: BufReader<File>,
    pub header: ClipHeader,
    /// Bytes per decoded frame, checked against the header when it was read.
    frame_len: usize,
    /// Records successfully read so far (the index reported on damage).
    index: u64,
}

impl ClipReader {
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut input = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 6];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an FFSV1 clip",
            ));
        }
        let hlen = read_u32(&mut input)? as usize;
        if hlen > 1 << 20 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "header too large",
            ));
        }
        let mut hjson = vec![0u8; hlen];
        input.read_exact(&mut hjson)?;
        let header: ClipHeader = serde_json::from_slice(&hjson)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let frame_len = header.format.frame_len(header.width, header.height)?;
        Ok(ClipReader {
            input,
            header,
            frame_len,
            index: 0,
        })
    }

    /// Wrap damage at the current record into a typed, downcastable error.
    fn integrity(&self, detail: impl Into<String>) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            ClipIntegrityError {
                frame_index: self.index,
                detail: detail.into(),
            },
        )
    }

    /// Mid-record EOF means a torn tail, not a clean end of stream.
    fn torn(&self, e: io::Error) -> io::Error {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            self.integrity("record truncated mid-frame")
        } else {
            e
        }
    }

    fn read_frame(&mut self) -> io::Result<Option<LabeledFrame>> {
        let seq = match read_u64(&mut self.input) {
            Ok(v) => v,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        };
        let pts_ms = read_u64(&mut self.input).map_err(|e| self.torn(e))?;
        let tlen = read_u32(&mut self.input).map_err(|e| self.torn(e))? as usize;
        let mut tjson = vec![0u8; tlen];
        self.input
            .read_exact(&mut tjson)
            .map_err(|e| self.torn(e))?;
        let truth: GroundTruth =
            serde_json::from_slice(&tjson).map_err(|e| self.integrity(e.to_string()))?;
        let rlen = read_u32(&mut self.input).map_err(|e| self.torn(e))? as usize;
        let mut rle = vec![0u8; rlen];
        self.input.read_exact(&mut rle).map_err(|e| self.torn(e))?;
        if self.header.version >= 2 {
            let stored = read_u64(&mut self.input).map_err(|e| self.torn(e))?;
            let computed = record_checksum(seq, pts_ms, &tjson, &rle);
            if stored != computed {
                return Err(self.integrity(format!(
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )));
            }
        }
        let pixels = rle_decode(&rle, self.frame_len).map_err(|e| self.integrity(e.to_string()))?;
        let frame = match self.header.format {
            PixelFormat::Gray8 => Frame::gray8(
                self.header.stream,
                seq,
                pts_ms,
                self.header.width,
                self.header.height,
                pixels,
            ),
            PixelFormat::Rgb8 => Frame::rgb8(
                self.header.stream,
                seq,
                pts_ms,
                self.header.width,
                self.header.height,
                pixels,
            ),
        };
        self.index += 1;
        Ok(Some(LabeledFrame { frame, truth }))
    }
}

impl Iterator for ClipReader {
    type Item = io::Result<LabeledFrame>;
    fn next(&mut self) -> Option<Self::Item> {
        self.read_frame().transpose()
    }
}

/// Convenience: write a whole clip.
pub fn write_clip(path: &Path, clip: &[LabeledFrame], fps: u32) -> io::Result<u64> {
    let first = clip.first().expect("non-empty clip");
    let mut w = ClipWriter::create(
        path,
        ClipHeader {
            width: first.frame.width,
            height: first.frame.height,
            fps,
            stream: first.frame.stream,
            format: first.frame.format,
            version: CLIP_VERSION,
        },
    )?;
    for lf in clip {
        w.write(lf)?;
    }
    w.finish()
}

/// Convenience: read a whole clip into memory.
pub fn read_clip(path: &Path) -> io::Result<Vec<LabeledFrame>> {
    ClipReader::open(path)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::VideoStream;
    use crate::truth::ObjectClass;
    use crate::workloads;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ffsva_storage_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn rle_roundtrip_structured() {
        let data = vec![5u8; 1000];
        let enc = rle_encode(&data);
        assert!(enc.len() < 20);
        assert_eq!(rle_decode(&enc, 1000).unwrap(), data);
    }

    #[test]
    fn rle_roundtrip_alternating_worst_case() {
        let data: Vec<u8> = (0..501).map(|i| (i % 2) as u8).collect();
        let enc = rle_encode(&data);
        assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn rle_rejects_corrupt_streams() {
        assert!(rle_decode(&[1], 1).is_err()); // odd length
        assert!(rle_decode(&[0, 7], 0).is_err()); // zero run
        assert!(rle_decode(&[2, 7], 5).is_err()); // wrong total
    }

    #[test]
    fn clip_roundtrip_preserves_everything() {
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.5, 17);
        let mut s = VideoStream::new(9, cfg);
        let clip = s.clip(40);
        let path = tmp("roundtrip.ffsv");
        let n = write_clip(&path, &clip, 30).unwrap();
        assert_eq!(n, 40);
        let back = read_clip(&path).unwrap();
        assert_eq!(back.len(), clip.len());
        for (a, b) in clip.iter().zip(back.iter()) {
            assert_eq!(a.frame.seq, b.frame.seq);
            assert_eq!(a.frame.pts_ms, b.frame.pts_ms);
            assert_eq!(a.frame.stream, b.frame.stream);
            assert_eq!(a.frame.pixels(), b.frame.pixels());
            assert_eq!(a.truth.objects.len(), b.truth.objects.len());
            for (x, y) in a.truth.objects.iter().zip(b.truth.objects.iter()) {
                assert_eq!(x.class, y.class);
                assert!((x.cx - y.cx).abs() < 1e-6);
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reader_is_streaming_not_loading() {
        // The iterator yields frames one at a time; consuming only a prefix
        // must work (no count in the header to depend on).
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.2, 18);
        let mut s = VideoStream::new(0, cfg);
        let clip = s.clip(30);
        let path = tmp("stream.ffsv");
        write_clip(&path, &clip, 30).unwrap();
        let mut reader = ClipReader::open(&path).unwrap();
        assert_eq!(reader.header.fps, 30);
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.frame.seq, 0);
        let second = reader.next().unwrap().unwrap();
        assert_eq!(second.frame.seq, 1);
        drop(reader);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn color_clip_roundtrips() {
        let mut cfg = workloads::test_tiny(ObjectClass::Car, 0.5, 19);
        cfg.color = true;
        let mut s = VideoStream::new(2, cfg);
        let clip = s.clip(12);
        assert_eq!(clip[0].frame.format, crate::frame::PixelFormat::Rgb8);
        let path = tmp("color.ffsv");
        write_clip(&path, &clip, 30).unwrap();
        let back = read_clip(&path).unwrap();
        assert_eq!(back.len(), 12);
        for (a, b) in clip.iter().zip(back.iter()) {
            assert_eq!(a.frame.format, b.frame.format);
            assert_eq!(a.frame.pixels(), b.frame.pixels());
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage.ffsv");
        std::fs::write(&path, b"not a clip at all").unwrap();
        assert!(ClipReader::open(&path).is_err());
        std::fs::remove_file(path).unwrap();
    }

    /// A v2 clip file with a hand-written header and one record of `rle`.
    fn clip_with_header(name: &str, width: usize, height: usize, rle: &[u8]) -> std::path::PathBuf {
        let path = tmp(name);
        let mut out = BufWriter::new(File::create(&path).unwrap());
        out.write_all(MAGIC).unwrap();
        let hjson =
            format!(r#"{{"width":{width},"height":{height},"fps":30,"stream":0,"version":2}}"#);
        write_u32(&mut out, hjson.len() as u32).unwrap();
        out.write_all(hjson.as_bytes()).unwrap();
        let truth = serde_json::to_vec(&GroundTruth::default()).unwrap();
        write_u64(&mut out, 0).unwrap();
        write_u64(&mut out, 0).unwrap();
        write_u32(&mut out, truth.len() as u32).unwrap();
        out.write_all(&truth).unwrap();
        write_u32(&mut out, rle.len() as u32).unwrap();
        out.write_all(rle).unwrap();
        write_u64(&mut out, record_checksum(0, 0, &truth, rle)).unwrap();
        out.flush().unwrap();
        path
    }

    #[test]
    fn open_rejects_empty_and_overflowing_dimensions() {
        for (k, (w, h)) in [(0, 200), (300, 0), (usize::MAX, 2)]
            .into_iter()
            .enumerate()
        {
            let path = clip_with_header(&format!("hostile_dims_{k}.ffsv"), w, h, &[1, 0]);
            let err = ClipReader::open(&path).err().expect("refused at open");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{w}x{h}");
            assert!(err.to_string().contains("frames"), "{err}");
            std::fs::remove_file(path).unwrap();
        }
        // the control: same writer, honest dimensions
        let path = clip_with_header("honest_dims.ffsv", 2, 1, &[2, 9]);
        let back = read_clip(&path).unwrap();
        assert_eq!(back[0].frame.pixels(), &[9, 9]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_huge_declared_frame_is_a_typed_error_not_an_allocation() {
        // usize::MAX × 1 multiplies without overflow; the record cannot fill it
        let path = clip_with_header("huge_dims.ffsv", usize::MAX, 1, &[255, 7]);
        let results: Vec<_> = ClipReader::open(&path).unwrap().collect();
        assert_eq!(results.len(), 1);
        let det = integrity_of(results[0].as_ref().unwrap_err());
        assert_eq!(det.frame_index, 0);
        assert!(
            det.detail.contains("RLE decoded 255 bytes"),
            "{}",
            det.detail
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rle_decode_never_allocates_past_declared_length() {
        // a stream of max runs that would decode to 510 bytes must bail the
        // moment it would exceed the declared 10
        assert!(rle_decode(&[255, 7, 255, 7], 10).is_err());
        // exact fit still works
        assert_eq!(rle_decode(&[255, 7], 255).unwrap(), vec![7u8; 255]);
    }

    fn integrity_of(err: &io::Error) -> &ClipIntegrityError {
        err.get_ref()
            .and_then(|e| e.downcast_ref::<ClipIntegrityError>())
            .expect("a typed ClipIntegrityError")
    }

    fn small_clip(seed: u64) -> Vec<LabeledFrame> {
        let cfg = workloads::test_tiny(ObjectClass::Car, 0.5, seed);
        VideoStream::new(seed as u32, cfg).clip(5)
    }

    #[test]
    fn v2_checksum_catches_a_flipped_bit() {
        let clip = small_clip(21);
        let path = tmp("bitflip.ffsv");
        write_clip(&path, &clip, 30).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a bit in the last record's trailing checksum
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let results: Vec<_> = ClipReader::open(&path).unwrap().collect();
        assert_eq!(results.len(), 5);
        assert!(results[..4].iter().all(|r| r.is_ok()));
        let err = results[4].as_ref().unwrap_err();
        let det = integrity_of(err);
        assert_eq!(det.frame_index, 4);
        assert!(det.detail.contains("checksum mismatch"), "{}", det.detail);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_truncated_tail_is_a_typed_error_not_garbage() {
        let clip = small_clip(22);
        let path = tmp("torn.ffsv");
        write_clip(&path, &clip, 30).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let results: Vec<_> = ClipReader::open(&path).unwrap().collect();
        assert_eq!(results.len(), 5);
        let err = results[4].as_ref().unwrap_err();
        let det = integrity_of(err);
        assert_eq!(det.frame_index, 4);
        assert!(det.detail.contains("truncated"), "{}", det.detail);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn v1_files_without_checksums_still_read() {
        // hand-write a v1 file: header has no `version` field and records
        // have no trailing checksum
        let clip = small_clip(23);
        let path = tmp("v1compat.ffsv");
        {
            let mut out = BufWriter::new(File::create(&path).unwrap());
            out.write_all(MAGIC).unwrap();
            let f0 = &clip[0].frame;
            let hjson = format!(
                r#"{{"width":{},"height":{},"fps":30,"stream":{}}}"#,
                f0.width, f0.height, f0.stream
            );
            write_u32(&mut out, hjson.len() as u32).unwrap();
            out.write_all(hjson.as_bytes()).unwrap();
            for lf in &clip {
                write_u64(&mut out, lf.frame.seq).unwrap();
                write_u64(&mut out, lf.frame.pts_ms).unwrap();
                let truth = serde_json::to_vec(&lf.truth).unwrap();
                write_u32(&mut out, truth.len() as u32).unwrap();
                out.write_all(&truth).unwrap();
                let rle = rle_encode(lf.frame.pixels());
                write_u32(&mut out, rle.len() as u32).unwrap();
                out.write_all(&rle).unwrap();
            }
            out.flush().unwrap();
        }
        let reader = ClipReader::open(&path).unwrap();
        assert_eq!(reader.header.version, 1);
        let back: Vec<_> = reader.collect::<io::Result<_>>().unwrap();
        assert_eq!(back.len(), clip.len());
        for (a, b) in clip.iter().zip(back.iter()) {
            assert_eq!(a.frame.pixels(), b.frame.pixels());
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn writer_stamps_current_version() {
        let clip = small_clip(24);
        let path = tmp("stamped.ffsv");
        write_clip(&path, &clip, 30).unwrap();
        let reader = ClipReader::open(&path).unwrap();
        assert_eq!(reader.header.version, CLIP_VERSION);
        std::fs::remove_file(path).unwrap();
    }
}

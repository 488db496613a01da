//! Crash-safe checkpoint/resume for long-running analytics jobs.
//!
//! The paper's deployment story is day-long surveillance streams; losing a
//! whole day of per-stream position and model state to a process restart is
//! not acceptable. This module persists, per stream, everything needed to
//! continue a run as if it had never stopped: the source cursor, the
//! per-stage frame counters, the trained SDD reference background and SNM
//! thresholds, the supervisor restart budget already spent, and the
//! survivor set accumulated so far.
//!
//! Atomicity: each snapshot is written to a dot-prefixed temp file in the
//! same directory and then `rename(2)`d into place, so a crash mid-write
//! leaves either the previous checkpoint or the new one — never a torn
//! file. Both engines write and accept the same format, extending DES↔RT
//! conformance to resumed runs.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::StreamThresholds;
use crate::rt_engine::SurvivingFrame;
use ffsva_models::SddFilter;
use ffsva_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// Version stamped into every checkpoint file.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// Where and how often to checkpoint, and whether to resume from what is
/// already there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointSpec {
    /// Directory holding one `stream<N>.ckpt.json` per stream.
    pub dir: PathBuf,
    /// Write cadence in fully-accounted source frames.
    pub interval_frames: u64,
    /// Load existing checkpoints before starting (ignored when absent).
    pub resume: bool,
}

impl CheckpointSpec {
    pub fn new(dir: impl Into<PathBuf>, interval_frames: u64, resume: bool) -> Self {
        CheckpointSpec {
            dir: dir.into(),
            interval_frames: interval_frames.max(1),
            resume,
        }
    }
}

/// Everything needed to continue one stream from where it stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    pub schema_version: u32,
    pub stream: usize,
    /// Source frames fully accounted (delivered, dropped, quarantined, or
    /// evicted) — the resume point in the input.
    pub cursor: u64,
    /// Telemetry counters owned by this stream (its `stream<N>.*` scope
    /// plus its share of the ingest globals), re-seeded on resume.
    pub counters: BTreeMap<String, u64>,
    /// Frames that survived the full cascade so far.
    pub survivors: Vec<SurvivingFrame>,
    /// Calibrated per-stream thresholds (None before calibration ran).
    #[serde(default)]
    pub thresholds: Option<StreamThresholds>,
    /// The SDD's reference background (pixel engines only; the DES carries
    /// no pixel state).
    #[serde(default)]
    pub sdd: Option<SddFilter>,
    /// SNM confidence band `(c_low, c_high)` (pixel engines only).
    #[serde(default)]
    pub snm_thresholds: Option<(f32, f32)>,
    /// Supervisor restarts already consumed by this stream's stages.
    #[serde(default)]
    pub restarts_used: u64,
    /// Whether the stream's source was given up as lost.
    #[serde(default)]
    pub source_lost: bool,
}

impl StreamCheckpoint {
    /// An empty checkpoint at the start of a stream.
    pub fn fresh(stream: usize) -> Self {
        StreamCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            stream,
            cursor: 0,
            counters: BTreeMap::new(),
            survivors: Vec::new(),
            thresholds: None,
            sdd: None,
            snm_thresholds: None,
            restarts_used: 0,
            source_lost: false,
        }
    }

    /// Bank this stream's counter shares — the one rule both engines
    /// checkpoint by. The `stream<N>.*` scope copies out of `snap` verbatim
    /// (live counters already include what a resumed `base` re-seeded). The
    /// globals record this stream's contribution only — `base`'s share plus
    /// what this run added — so summing the per-stream checkpoints
    /// reconstructs them: `frames_in` source frames admitted to the
    /// pipeline, and `src` the ingest counts in [`SRC_GLOBALS`] order,
    /// `None` when the run had no source plan. A `src.*` key is written when
    /// the base or the run has it, so a banked key survives a resumed
    /// segment without a plan, whatever its value.
    pub(crate) fn bank_counters(
        &mut self,
        base: &StreamCheckpoint,
        snap: &TelemetrySnapshot,
        frames_in: u64,
        src: Option<[u64; 4]>,
    ) {
        let scope = format!("stream{}.", self.stream);
        for (name, v) in &snap.counters {
            if name.starts_with(&scope) {
                self.counters.insert(name.clone(), *v);
            }
        }
        let banked = |name: &str| base.counters.get(name).copied();
        self.counters.insert(
            "pipeline.frames_in".to_string(),
            banked("pipeline.frames_in").unwrap_or(0) + frames_in,
        );
        for (i, name) in SRC_GLOBALS.iter().enumerate() {
            let (was, added) = (banked(name), src.map(|v| v[i]));
            if was.is_some() || added.is_some() {
                self.counters
                    .insert((*name).to_string(), was.unwrap_or(0) + added.unwrap_or(0));
            }
        }
    }
}

/// Names of the ingest globals a stream banks its share of.
pub(crate) const SRC_GLOBALS: [&str; 4] = [
    "src.reconnects",
    "src.corrupt",
    "src.reorder_evictions",
    "src.duplicates",
];

/// The checkpoint file for one stream.
pub fn stream_ckpt_path(dir: &Path, stream: usize) -> PathBuf {
    dir.join(format!("stream{stream}.ckpt.json"))
}

/// Atomically persist one stream's checkpoint (write temp, fsync, rename).
pub fn write_stream_checkpoint(dir: &Path, ckpt: &StreamCheckpoint) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".stream{}.ckpt.tmp", ckpt.stream));
    let json = serde_json::to_vec_pretty(ckpt)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    {
        use std::io::Write;
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&json)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, stream_ckpt_path(dir, ckpt.stream))
}

/// Load one stream's checkpoint; `Ok(None)` when none exists yet.
pub fn load_stream_checkpoint(dir: &Path, stream: usize) -> io::Result<Option<StreamCheckpoint>> {
    let path = stream_ckpt_path(dir, stream);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let ckpt: StreamCheckpoint = serde_json::from_slice(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if ckpt.schema_version > CHECKPOINT_SCHEMA_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint schema {} is newer than supported {}",
                ckpt.schema_version, CHECKPOINT_SCHEMA_VERSION
            ),
        ));
    }
    Ok(Some(ckpt))
}

/// Load checkpoints for streams `0..num_streams`; missing streams come back
/// as fresh (a run may have checkpointed some streams and not others).
pub fn load_all(dir: &Path, num_streams: usize) -> io::Result<Vec<StreamCheckpoint>> {
    (0..num_streams)
        .map(|s| Ok(load_stream_checkpoint(dir, s)?.unwrap_or_else(|| StreamCheckpoint::fresh(s))))
        .collect()
}

/// Re-key a checkpoint to a new engine-local stream index: the `stream`
/// field and every `stream<old>.`-scoped counter move to the new index,
/// while index-free series (`pipeline.frames_in`, the `src.*` globals) are
/// carried verbatim. This is what makes a snapshot *portable*: an engine
/// resuming it under a different stream slot re-seeds exactly the counters
/// it would have accumulated had the stream always lived there.
pub fn renumber_checkpoint(ckpt: &StreamCheckpoint, new_stream: usize) -> StreamCheckpoint {
    let mut out = ckpt.clone();
    if ckpt.stream == new_stream {
        return out;
    }
    let old_scope = format!("stream{}.", ckpt.stream);
    let new_scope = format!("stream{}.", new_stream);
    out.stream = new_stream;
    out.counters = ckpt
        .counters
        .iter()
        .map(|(name, v)| match name.strip_prefix(&old_scope) {
            Some(rest) => (format!("{new_scope}{rest}"), *v),
            None => (name.clone(), *v),
        })
        .collect();
    out
}

/// Atomically hand one stream's snapshot from `src_dir` (where it lives as
/// stream `src_stream`) to `dst_dir` as stream `dst_stream` — the
/// checkpoint-riding half of a cluster re-forward. The write into the
/// target directory uses the same temp+fsync+rename protocol as a normal
/// checkpoint, and the source file is removed only after the target rename
/// succeeded, so a crash mid-migration leaves at least one complete copy
/// (at worst both, which resume handles: the source instance is dead or
/// has already dropped the stream from its membership).
///
/// Returns the renumbered snapshot that now lives at the target.
pub fn migrate_stream_checkpoint(
    src_dir: &Path,
    src_stream: usize,
    dst_dir: &Path,
    dst_stream: usize,
) -> io::Result<StreamCheckpoint> {
    let ckpt = load_stream_checkpoint(src_dir, src_stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no checkpoint for stream {src_stream} in {}",
                src_dir.display()
            ),
        )
    })?;
    let moved = renumber_checkpoint(&ckpt, dst_stream);
    write_stream_checkpoint(dst_dir, &moved)?;
    fs::remove_file(stream_ckpt_path(src_dir, src_stream))?;
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffsva_ckpt_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(stream: usize) -> StreamCheckpoint {
        let mut ck = StreamCheckpoint::fresh(stream);
        ck.cursor = 512;
        ck.counters.insert("stream0.sdd.frames_in".into(), 512);
        ck.counters.insert("src.reconnects".into(), 1);
        ck.survivors.push(SurvivingFrame {
            seq: 17,
            pts_ms: 566,
            reference_count: 2,
        });
        ck.thresholds = Some(StreamThresholds {
            delta_diff: 0.01,
            t_pre: 0.5,
            number_of_objects: 1,
        });
        ck.snm_thresholds = Some((0.2, 0.8));
        ck.restarts_used = 1;
        ck
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dir = tmp_dir("roundtrip");
        let ck = sample(0);
        write_stream_checkpoint(&dir, &ck).unwrap();
        let back = load_stream_checkpoint(&dir, 0).unwrap().unwrap();
        assert_eq!(back, ck);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_none_and_load_all_fills_fresh() {
        let dir = tmp_dir("missing");
        assert!(load_stream_checkpoint(&dir, 3).unwrap().is_none());
        write_stream_checkpoint(&dir, &sample(1)).unwrap();
        let all = load_all(&dir, 3).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].cursor, 0);
        assert_eq!(all[1].cursor, 512);
        assert_eq!(all[2].cursor, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_replace_atomically_leaving_no_temp_files() {
        let dir = tmp_dir("atomic");
        let mut ck = sample(2);
        write_stream_checkpoint(&dir, &ck).unwrap();
        ck.cursor = 1024;
        write_stream_checkpoint(&dir, &ck).unwrap();
        let back = load_stream_checkpoint(&dir, 2).unwrap().unwrap();
        assert_eq!(back.cursor, 1024);
        // the temp file must not linger after a successful rename
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renumber_moves_scoped_counters_and_keeps_globals() {
        let ck = sample(0);
        let moved = renumber_checkpoint(&ck, 4);
        assert_eq!(moved.stream, 4);
        assert_eq!(moved.counters.get("stream4.sdd.frames_in"), Some(&512));
        assert!(!moved.counters.contains_key("stream0.sdd.frames_in"));
        assert_eq!(moved.counters.get("src.reconnects"), Some(&1));
        assert_eq!(moved.cursor, ck.cursor);
        assert_eq!(moved.survivors, ck.survivors);
        // same-index renumbering is the identity
        assert_eq!(renumber_checkpoint(&ck, 0), ck);
    }

    #[test]
    fn migrate_hands_the_snapshot_over_atomically() {
        let src = tmp_dir("mig_src");
        let dst = tmp_dir("mig_dst");
        let mut ck = sample(2);
        ck.counters.clear();
        ck.counters.insert("stream2.sdd.frames_in".into(), 512);
        ck.counters.insert("src.reconnects".into(), 1);
        write_stream_checkpoint(&src, &ck).unwrap();
        let moved = migrate_stream_checkpoint(&src, 2, &dst, 0).unwrap();
        assert_eq!(moved.stream, 0);
        // the source file is gone, the target readable and renumbered
        assert!(load_stream_checkpoint(&src, 2).unwrap().is_none());
        let back = load_stream_checkpoint(&dst, 0).unwrap().unwrap();
        assert_eq!(back, moved);
        assert_eq!(back.cursor, 512);
        assert_eq!(back.counters.get("stream0.sdd.frames_in"), Some(&512));
        // a second migration of the same stream fails loudly: the snapshot
        // moved, it was not copied
        assert!(migrate_stream_checkpoint(&src, 2, &dst, 1).is_err());
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn torn_or_future_checkpoints_are_rejected() {
        let dir = tmp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        fs::write(stream_ckpt_path(&dir, 0), b"{ torn").unwrap();
        assert!(load_stream_checkpoint(&dir, 0).is_err());
        let mut future = sample(1);
        future.schema_version = CHECKPOINT_SCHEMA_VERSION + 1;
        write_stream_checkpoint(&dir, &future).unwrap();
        assert!(load_stream_checkpoint(&dir, 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}

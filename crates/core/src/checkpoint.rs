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
//! A checkpoint directory holds one append-only `checkpoints.log` (grammar
//! and recovery rules: DESIGN.md §9). [`CheckpointLog::commit`] appends one
//! checksummed line — a record per stream, its head plus the survivors the
//! log does not hold yet — in one write and one `sync_data`, so a commit is
//! durable when it returns and all-or-nothing across its streams. Reading
//! folds the file; a damaged *last* line is the write a crash tore and is
//! ignored, damage anywhere else is `InvalidData`. Both engines write and
//! accept the same format, extending DES↔RT conformance to resumed runs.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::config::StreamThresholds;
use crate::rt_engine::SurvivingFrame;
use ffsva_models::SddFilter;
use ffsva_telemetry::TelemetrySnapshot;
use ffsva_video::checksum::fnv1a;
use serde::{Deserialize, Serialize};

/// Version of the on-disk format, stamped into every log record: 2 is the
/// log, 1 was a `stream<N>.ckpt.json` file per stream.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

const LOG_FILE: &str = "checkpoints.log";

/// A directory's folded state: each stream's checkpoint by stream index.
pub type Checkpoints = BTreeMap<usize, StreamCheckpoint>;

/// Where and how often to checkpoint, and whether to resume from what is
/// already there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointSpec {
    /// Directory holding the run's `checkpoints.log`.
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
            // the snapshot's own shape, which the log did not change
            schema_version: 1,
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

/// One stream's entry in a commit line.
#[derive(Serialize, Deserialize)]
struct Record {
    schema_version: u32,
    /// Survivors of this stream the log already holds: `ckpt.survivors`
    /// carries only what follows them. 0 is a full record.
    base: usize,
    /// Tombstone: the stream's state left this directory.
    forget: bool,
    ckpt: StreamCheckpoint,
}

fn record(base: usize, forget: bool, ckpt: StreamCheckpoint) -> Record {
    Record {
        schema_version: CHECKPOINT_SCHEMA_VERSION,
        base,
        forget,
        ckpt,
    }
}

fn invalid(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// `<fnv1a-64 of the JSON, 16 hex digits> <compact JSON array>\n`
fn encode_line(records: Vec<Record>, out: &mut Vec<u8>) -> io::Result<()> {
    let json = serde_json::to_vec(&records).map_err(invalid)?;
    out.extend_from_slice(format!("{:016x} ", fnv1a(&json)).as_bytes());
    out.extend_from_slice(&json);
    out.push(b'\n');
    Ok(())
}

/// The JSON of one line, if the line is whole and its checksum holds.
fn checked_json(line: &[u8]) -> Option<&[u8]> {
    let (sum, json) = (line.get(..16)?, line.get(17..)?);
    let sum = u64::from_str_radix(std::str::from_utf8(sum).ok()?, 16).ok()?;
    (line[16] == b' ' && sum == fnv1a(json)).then_some(json)
}

/// A full record replaces the stream's state, a delta extends it and must
/// find exactly `base` survivors, a tombstone removes it.
fn apply(state: &mut Checkpoints, rec: Record) -> io::Result<()> {
    let (stream, mut ckpt) = (rec.ckpt.stream, rec.ckpt);
    let version = rec.schema_version.max(ckpt.schema_version);
    if version > CHECKPOINT_SCHEMA_VERSION {
        return Err(invalid(format!(
            "checkpoint schema {version} is newer than supported {CHECKPOINT_SCHEMA_VERSION}"
        )));
    }
    let prev = state.remove(&stream);
    if rec.forget {
        return Ok(());
    }
    let (at, held) = prev
        .as_ref()
        .map_or((0, 0), |p| (p.cursor, p.survivors.len()));
    if ckpt.cursor < at || (rec.base != 0 && rec.base != held) {
        return Err(invalid(format!(
            "stream {stream}: cursor {} over {} survivors does not follow cursor {at} with {held}",
            ckpt.cursor, rec.base
        )));
    }
    if let (Some(mut prev), true) = (prev, rec.base != 0) {
        prev.survivors.append(&mut ckpt.survivors);
        ckpt.survivors = prev.survivors;
    }
    state.insert(stream, ckpt);
    Ok(())
}

fn fold(bytes: &[u8]) -> io::Result<Checkpoints> {
    let mut state = Checkpoints::new();
    let mut at = 0;
    while at < bytes.len() {
        let end = bytes[at..].iter().position(|&b| b == b'\n');
        let Some(json) = end.and_then(|e| checked_json(&bytes[at..at + e])) else {
            if end.is_some_and(|e| at + e + 1 < bytes.len()) {
                return Err(invalid(format!(
                    "corrupt record at byte {at}, not at the tail"
                )));
            }
            break; // the torn tail
        };
        for rec in serde_json::from_slice::<Vec<Record>>(json).map_err(invalid)? {
            apply(&mut state, rec)?;
        }
        at += json.len() + 18;
    }
    Ok(state)
}

/// Every stream's checkpoint in `dir`, folded from its log on disk; empty
/// when there is none yet. A directory of schema 1 files is refused rather
/// than read as empty: a resume that restarted its streams from zero would
/// emit every survivor a second time.
pub fn load_checkpoints(dir: &Path) -> io::Result<Checkpoints> {
    match fs::read(dir.join(LOG_FILE)) {
        Ok(bytes) => fold(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let legacy = |e: fs::DirEntry| e.file_name().to_string_lossy().ends_with(".ckpt.json");
            if fs::read_dir(dir).is_ok_and(|entries| entries.flatten().any(legacy)) {
                return Err(invalid(format!(
                    "{} holds schema 1 checkpoints (stream<N>.ckpt.json); this build reads \
                     schema {CHECKPOINT_SCHEMA_VERSION} ({LOG_FILE}): re-run without --resume",
                    dir.display()
                )));
            }
            Ok(Checkpoints::new())
        }
        Err(e) => Err(e),
    }
}

/// Replace `dir`'s log by one full record per stream of `state` — the one
/// place with the whole-file protocol: temp file, `fsync`, rename, `fsync`
/// the directory.
fn rewrite(dir: &Path, state: &Checkpoints) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut bytes = Vec::new();
    for ckpt in state.values() {
        encode_line(vec![record(0, false, ckpt.clone())], &mut bytes)?;
    }
    let tmp = dir.join(".checkpoints.log.tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, dir.join(LOG_FILE))?;
    fs::File::open(dir)?.sync_all()
}

/// The append handle on one directory's log — the directory's only writer
/// while it is open. After an error the handle must be dropped: the next
/// `open` cuts off whatever the failed append left.
pub struct CheckpointLog {
    file: fs::File,
    /// Per stream in the log, `(cursor, survivors)`: what the next delta
    /// builds on.
    durable: BTreeMap<usize, (u64, usize)>,
}

impl CheckpointLog {
    /// Open `dir`'s log for appending: what it holds with `resume`, empty
    /// without. Either way the log is first [`rewrite`]n to one full record
    /// per stream — which creates it, compacts its history and cuts off a
    /// torn tail in one step.
    pub fn open(dir: &Path, resume: bool) -> io::Result<CheckpointLog> {
        let state = resume.then(|| load_checkpoints(dir)).transpose()?;
        let state = state.unwrap_or_default();
        rewrite(dir, &state)?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))?;
        let durable = state
            .iter()
            .map(|(&s, ck)| (s, (ck.cursor, ck.survivors.len())))
            .collect();
        Ok(CheckpointLog { file, durable })
    }

    /// Make every checkpoint in `ckpts` durable, all or none: one line, one
    /// write, one `sync_data`. Each must extend what the log holds for its
    /// stream (the survivors are a continuation, the cursor does not go
    /// back) and a stream may appear once.
    pub fn commit(&mut self, ckpts: &[StreamCheckpoint]) -> io::Result<()> {
        let mut records = Vec::with_capacity(ckpts.len());
        for ck in ckpts {
            let (cursor, base) = self.durable.get(&ck.stream).copied().unwrap_or((0, 0));
            if ck.cursor < cursor || ck.survivors.len() < base {
                return Err(invalid(format!(
                    "stream {}: does not extend the log",
                    ck.stream
                )));
            }
            let head = StreamCheckpoint {
                counters: ck.counters.clone(),
                survivors: ck.survivors[base..].to_vec(),
                sdd: ck.sdd.clone(),
                ..*ck
            };
            records.push(record(base, false, head));
        }
        self.append(records)?;
        for ck in ckpts {
            self.durable
                .insert(ck.stream, (ck.cursor, ck.survivors.len()));
        }
        Ok(())
    }

    /// Durably drop `stream` from this directory (its state was handed to
    /// another one).
    pub fn forget(&mut self, stream: usize) -> io::Result<()> {
        self.durable.remove(&stream);
        self.append(vec![record(0, true, StreamCheckpoint::fresh(stream))])
    }

    fn append(&mut self, records: Vec<Record>) -> io::Result<()> {
        let mut line = Vec::new();
        encode_line(records, &mut line)?;
        self.file.write_all(&line)?;
        self.file.sync_data()
    }
}

/// The file that holds `stream`'s durable state: the directory's log.
pub fn stream_ckpt_path(dir: &Path, _stream: usize) -> PathBuf {
    dir.join(LOG_FILE)
}

/// Atomically persist one stream's checkpoint, whatever the log held for it:
/// a compacting [`rewrite`] of the whole directory. Not for a directory a
/// [`CheckpointLog`] is open on.
pub fn write_stream_checkpoint(dir: &Path, ckpt: &StreamCheckpoint) -> io::Result<()> {
    let mut state = load_checkpoints(dir)?;
    state.insert(ckpt.stream, ckpt.clone());
    rewrite(dir, &state)
}

/// Load one stream's checkpoint; `Ok(None)` when none exists yet.
pub fn load_stream_checkpoint(dir: &Path, stream: usize) -> io::Result<Option<StreamCheckpoint>> {
    Ok(load_checkpoints(dir)?.remove(&stream))
}

/// Load checkpoints for streams `0..num_streams`; missing streams come back
/// as fresh (a run may have checkpointed some streams and not others).
pub fn load_all(dir: &Path, num_streams: usize) -> io::Result<Vec<StreamCheckpoint>> {
    let mut state = load_checkpoints(dir)?;
    let fresh = StreamCheckpoint::fresh;
    Ok((0..num_streams)
        .map(|s| state.remove(&s).unwrap_or_else(|| fresh(s)))
        .collect())
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
        // the same through the append path, a delta on top
        let mut log = CheckpointLog::open(&dir, true).unwrap();
        let next = grown(&ck, 3);
        log.commit(std::slice::from_ref(&next)).unwrap();
        assert_eq!(load_stream_checkpoint(&dir, 0).unwrap().unwrap(), next);
        assert_eq!(stream_ckpt_path(&dir, 0), dir.join(LOG_FILE));
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
        // a rewrite takes any state for the stream, an earlier cursor included
        ck.cursor = 256;
        write_stream_checkpoint(&dir, &ck).unwrap();
        let back = load_stream_checkpoint(&dir, 2).unwrap().unwrap();
        assert_eq!(back.cursor, 256);
        // the temp file must not linger after a successful rename
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, [LOG_FILE], "one file, no stray temp");
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

    /// `ck` some frames on, with `more` new survivors.
    fn grown(ck: &StreamCheckpoint, more: u64) -> StreamCheckpoint {
        let mut next = ck.clone();
        next.cursor += 100;
        next.counters
            .insert("pipeline.frames_in".into(), next.cursor);
        for k in 0..more {
            next.survivors.push(SurvivingFrame {
                seq: ck.cursor + k,
                pts_ms: (ck.cursor + k) * 33,
                reference_count: 1,
            });
        }
        next
    }

    /// Three two-stream commits through one handle: the log's bytes, its
    /// length after the second commit, and the state after the second and
    /// after the third.
    fn three_commits(dir: &Path) -> (Vec<u8>, usize, Checkpoints, Vec<StreamCheckpoint>) {
        let mut log = CheckpointLog::open(dir, false).unwrap();
        let first = vec![grown(&sample(0), 2), grown(&sample(1), 0)];
        let second = vec![grown(&first[0], 1), grown(&first[1], 2)];
        let third = vec![grown(&second[0], 3), grown(&second[1], 1)];
        log.commit(&first).unwrap();
        log.commit(&second).unwrap();
        let len_two = fs::read(dir.join(LOG_FILE)).unwrap().len();
        log.commit(&third).unwrap();
        let after_two = second.into_iter().map(|ck| (ck.stream, ck)).collect();
        (
            fs::read(dir.join(LOG_FILE)).unwrap(),
            len_two,
            after_two,
            third,
        )
    }

    #[test]
    fn checkpoint_torn_tail_at_every_offset_loads_the_commit_before() {
        let dir = tmp_dir("torn");
        let (bytes, len_two, after_two, third) = three_commits(&dir);
        let after_three: Checkpoints = third.iter().map(|ck| (ck.stream, ck.clone())).collect();
        assert_eq!(load_checkpoints(&dir).unwrap(), after_three);
        for cut in len_two..bytes.len() {
            fs::write(dir.join(LOG_FILE), &bytes[..cut]).unwrap();
            assert_eq!(load_checkpoints(&dir).unwrap(), after_two, "cut at {cut}");
            // open cuts the tail off; the commit that was lost goes through
            let mut log = CheckpointLog::open(&dir, true).unwrap();
            assert_eq!(load_checkpoints(&dir).unwrap(), after_two, "cut at {cut}");
            log.commit(&third).unwrap();
            assert_eq!(load_checkpoints(&dir).unwrap(), after_three, "cut at {cut}");
        }
        // a whole last line whose checksum fails is a torn tail too
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() = b' ';
        flipped.push(b'\n');
        fs::write(dir.join(LOG_FILE), &flipped).unwrap();
        assert_eq!(load_checkpoints(&dir).unwrap(), after_two);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn is_invalid<T: std::fmt::Debug>(r: io::Result<T>) -> bool {
        matches!(&r, Err(e) if e.kind() == io::ErrorKind::InvalidData)
    }

    #[test]
    fn checkpoint_corruption_before_the_tail_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let (bytes, len_two, _, _) = three_commits(&dir);
        let log = dir.join(LOG_FILE);
        // one flipped byte in the middle commit, in its JSON and in its checksum
        let len_one = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        for at in [len_one + 40, len_one + 3] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            fs::write(&log, &bad).unwrap();
            assert!(is_invalid(load_checkpoints(&dir)), "flip at {at}");
            assert!(is_invalid(CheckpointLog::open(&dir, true).map(|_| ())));
            assert!(is_invalid(write_stream_checkpoint(&dir, &sample(0))));
        }
        // a checksum that is not hex
        let mut bad = bytes.clone();
        bad[len_one..len_one + 4].copy_from_slice(b"zzzz");
        fs::write(&log, &bad).unwrap();
        assert!(is_invalid(load_checkpoints(&dir)));
        // the middle commit gone: the third is a delta over survivors that
        // are not there
        let mut gap = bytes[..len_one].to_vec();
        gap.extend_from_slice(&bytes[len_two..]);
        fs::write(&log, &gap).unwrap();
        assert!(is_invalid(load_checkpoints(&dir)));
        // arbitrary bytes are a torn tail or an error, never a panic
        for junk in [&b"\n\n\n"[..], b"0 {}\n0 {}\n", &[0xff; 40], b"\n"] {
            fs::write(&log, junk).unwrap();
            let _ = load_checkpoints(&dir);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log of the given records, one line each, checksums valid.
    fn write_records(dir: &Path, records: Vec<Record>) {
        let mut bytes = Vec::new();
        for rec in records {
            encode_line(vec![rec], &mut bytes).unwrap();
        }
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join(LOG_FILE), bytes).unwrap();
    }

    #[test]
    fn checkpoint_records_that_do_not_follow_are_refused() {
        let dir = tmp_dir("hostile");
        let delta = |base, ckpt| record(base, false, ckpt);
        // a delta with no base, and one over the wrong base
        write_records(&dir, vec![delta(1, sample(0))]);
        assert!(is_invalid(load_checkpoints(&dir)));
        write_records(
            &dir,
            vec![record(0, false, sample(0)), delta(2, grown(&sample(0), 1))],
        );
        assert!(is_invalid(load_checkpoints(&dir)));
        // a stream that repeats with a shrinking cursor
        let mut earlier = sample(0);
        earlier.cursor = 100;
        write_records(
            &dir,
            vec![record(0, false, sample(0)), record(0, false, earlier)],
        );
        assert!(is_invalid(load_checkpoints(&dir)));
        // ... which the handle refuses to write in the first place
        let mut log = CheckpointLog::open(&dir, false).unwrap();
        log.commit(&[grown(&sample(0), 2)]).unwrap();
        assert!(is_invalid(log.commit(&[sample(0)])));
        // a tombstone makes room for any state again
        log.forget(0).unwrap();
        assert!(load_checkpoints(&dir).unwrap().is_empty());
        log.commit(&[sample(0)]).unwrap();
        assert_eq!(load_stream_checkpoint(&dir, 0).unwrap(), Some(sample(0)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_and_older_checkpoint_schemas_are_refused() {
        let dir = tmp_dir("schema");
        let mut future = sample(1);
        future.schema_version = CHECKPOINT_SCHEMA_VERSION + 1;
        write_stream_checkpoint(&dir, &future).unwrap();
        assert!(is_invalid(load_stream_checkpoint(&dir, 1)));
        // even as the last line: its checksum holds, so it is not a torn tail
        let mut rec = record(0, false, sample(1));
        rec.schema_version = CHECKPOINT_SCHEMA_VERSION + 1;
        write_records(&dir, vec![record(0, false, sample(0)), rec]);
        assert!(is_invalid(load_checkpoints(&dir)));
        // a schema 1 directory is named, not restarted from zero
        fs::remove_file(dir.join(LOG_FILE)).unwrap();
        fs::write(dir.join("stream0.ckpt.json"), b"{}").unwrap();
        let e = CheckpointLog::open(&dir, true).map(|_| ()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("schema 1"), "{e}");
        assert!(is_invalid(load_all(&dir, 1)));
        // starting over is allowed, and from then on the log is what counts
        let mut log = CheckpointLog::open(&dir, false).unwrap();
        log.commit(&[sample(0)]).unwrap();
        assert_eq!(load_all(&dir, 1).unwrap(), [sample(0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Fold ≡ memory: whatever sequence of commits (several streams a call,
    /// survivors growing), tombstones, compacting rewrites and re-opens ran,
    /// the directory read back is the model.
    #[test]
    fn checkpoint_fold_equals_memory_over_random_histories() {
        let dir = tmp_dir("model");
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for history in 0..200 {
            let _ = fs::remove_dir_all(&dir);
            let mut model = Checkpoints::new();
            let mut log = CheckpointLog::open(&dir, false).unwrap();
            for step in 0..4 + next(10) {
                match next(8) {
                    0 => {
                        let stream = next(4) as usize;
                        log.forget(stream).unwrap();
                        model.remove(&stream);
                    }
                    1 => {
                        drop(log);
                        let mut ck = sample(next(4) as usize);
                        ck.cursor = next(1000);
                        write_stream_checkpoint(&dir, &ck).unwrap();
                        model.insert(ck.stream, ck);
                        log = CheckpointLog::open(&dir, true).unwrap();
                    }
                    2 => {
                        drop(log);
                        log = CheckpointLog::open(&dir, true).unwrap();
                    }
                    _ => {
                        let first = next(4) as usize;
                        let batch: Vec<StreamCheckpoint> = (first
                            ..4.min(first + 1 + next(3) as usize))
                            .map(|s| {
                                let base = model.get(&s).cloned();
                                grown(&base.unwrap_or_else(|| StreamCheckpoint::fresh(s)), next(4))
                            })
                            .collect();
                        log.commit(&batch).unwrap();
                        model.extend(batch.into_iter().map(|ck| (ck.stream, ck)));
                    }
                }
                assert_eq!(
                    load_checkpoints(&dir).unwrap(),
                    model,
                    "history {history} step {step}"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

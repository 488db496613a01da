//! Unreliable frame sources: deterministic ingest-fault injection.
//!
//! Real camera feeds disconnect, stutter, corrupt payloads, and deliver
//! frames late or twice. This module models all of that *deterministically*,
//! keyed on frame sequence numbers, mirroring `ffsva_sched::fault`: the same
//! [`SourceFaultPlan`] reproduces the same ingest weather in the
//! discrete-event engine and in the threaded engine, so the DES↔RT
//! conformance suite extends to flaky sources.
//!
//! Pieces:
//!
//! * [`FrameSource`] — the pull interface unifying clip-backed and
//!   generator-backed streams, with a `position()` cursor for checkpointing.
//! * [`SourceFaultPlan`] — a validated, serializable set of per-stream
//!   source faults with a CLI grammar
//!   (`stream<S>.src:disconnect@N+DURms|corrupt@N|drop@N..M|reorder@N+K|dup@N`).
//! * [`Turbulence`] — the pure state machine that turns a clean in-order
//!   frame stream plus a [`SourceInjector`] into the faulted delivery
//!   sequence. Both engines run this exact code, which is what makes ingest
//!   accounting bit-identical across them.
//! * [`UnreliableSource`] — the RT-side wrapper: applies [`Turbulence`] to a
//!   real [`FrameSource`], corrupting payload *bytes* (while claiming the
//!   original checksum) so the ingest worker's checksum validation is
//!   exercised for real.
//! * [`plan_reconnect`] — the pure capped-exponential-backoff arithmetic
//!   deciding whether a disconnect is survived (`Reconnected`) or degrades
//!   the stream (`Lost`). The RT engine sleeps the waited time for real; the
//!   DES adds it to virtual time — the *decision* is identical.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::checksum::{fnv1a_continue, frame_checksum, FNV_OFFSET};
use crate::frame::{Frame, PixelFormat, StreamId};
use crate::generator::{LabeledFrame, VideoStream};
use crate::truth::GroundTruth;

// ---------------------------------------------------------------------------
// frame sources

/// A pull-based frame stream both engines can ingest from.
pub trait FrameSource: Send {
    /// The next frame, or `None` when the stream has ended cleanly.
    fn next_frame(&mut self) -> Option<LabeledFrame>;

    /// Frames consumed from the underlying stream so far — including any
    /// resume base. This is the cursor a checkpoint persists.
    fn position(&self) -> u64;
}

/// A source backed by an in-memory clip (recorded or pre-generated).
pub struct ClipSource {
    frames: std::vec::IntoIter<LabeledFrame>,
    pos: u64,
}

impl ClipSource {
    pub fn new(clip: Vec<LabeledFrame>) -> Self {
        ClipSource {
            frames: clip.into_iter(),
            pos: 0,
        }
    }

    /// Resume: skip the first `skip` frames (already accounted by a
    /// checkpoint); `position()` continues from `skip`.
    pub fn starting_at(clip: Vec<LabeledFrame>, skip: u64) -> Self {
        let mut frames = clip.into_iter();
        for _ in 0..skip {
            if frames.next().is_none() {
                break;
            }
        }
        ClipSource { frames, pos: skip }
    }
}

impl FrameSource for ClipSource {
    fn next_frame(&mut self) -> Option<LabeledFrame> {
        let lf = self.frames.next()?;
        self.pos += 1;
        Some(lf)
    }

    fn position(&self) -> u64 {
        self.pos
    }
}

/// A source that renders frames on demand from the synthetic generator.
pub struct GeneratorSource {
    stream: VideoStream,
    remaining: u64,
    pos: u64,
}

impl GeneratorSource {
    /// A generator-backed source producing `frames` frames.
    pub fn new(stream: VideoStream, frames: u64) -> Self {
        GeneratorSource {
            stream,
            remaining: frames,
            pos: 0,
        }
    }
}

impl FrameSource for GeneratorSource {
    fn next_frame(&mut self) -> Option<LabeledFrame> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.pos += 1;
        Some(self.stream.next_frame())
    }

    fn position(&self) -> u64 {
        self.pos
    }
}

// ---------------------------------------------------------------------------
// fault plan

/// A single source-side fault, keyed on frame sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SourceFault {
    /// One-shot: before delivering the first frame with `seq >= at_frame`
    /// the link goes down for `dur_ms` of source time. The ingest worker
    /// retries with capped exponential backoff ([`plan_reconnect`]); budget
    /// exhaustion degrades the stream to `SourceLost`.
    DisconnectAt { at_frame: u64, dur_ms: u64 },
    /// One-shot: the first frame with `seq >= at_frame` arrives with a
    /// corrupted payload (its claimed checksum no longer matches the bytes).
    CorruptAt { at_frame: u64 },
    /// Persistent: frames with `from <= seq < to` are silently lost at the
    /// source (the downstream sees a sequence gap).
    DropRange { from: u64, to: u64 },
    /// One-shot: the first frame with `seq >= at_frame` is held back until
    /// `by` later frames have been delivered (bounded out-of-order/late
    /// delivery). Arrivals later than the reorder buffer are evicted.
    ReorderAt { at_frame: u64, by: u64 },
    /// One-shot: the first frame with `seq >= at_frame` is delivered twice.
    DuplicateAt { at_frame: u64 },
}

impl fmt::Display for SourceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SourceFault::DisconnectAt { at_frame, dur_ms } => {
                write!(f, "disconnect@{at_frame}+{dur_ms}ms")
            }
            SourceFault::CorruptAt { at_frame } => write!(f, "corrupt@{at_frame}"),
            SourceFault::DropRange { from, to } => write!(f, "drop@{from}..{to}"),
            SourceFault::ReorderAt { at_frame, by } => write!(f, "reorder@{at_frame}+{by}"),
            SourceFault::DuplicateAt { at_frame } => write!(f, "dup@{at_frame}"),
        }
    }
}

/// One source fault bound to a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SourceFaultEntry {
    pub stream: usize,
    pub fault: SourceFault,
}

impl fmt::Display for SourceFaultEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}.src:{}", self.stream, self.fault)
    }
}

/// A deterministic, validated set of source faults.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SourceFaultPlan {
    entries: Vec<SourceFaultEntry>,
}

impl SourceFaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: add one fault.
    pub fn with(mut self, stream: usize, fault: SourceFault) -> Self {
        self.entries.push(SourceFaultEntry { stream, fault });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[SourceFaultEntry] {
        &self.entries
    }

    /// Reject plans neither engine can honour identically.
    pub fn validate(&self) -> Result<(), String> {
        for e in &self.entries {
            match e.fault {
                SourceFault::DisconnectAt { dur_ms, .. } => {
                    if dur_ms == 0 {
                        return Err(format!("{e}: disconnect duration must be >= 1 ms"));
                    }
                }
                SourceFault::DropRange { from, to } => {
                    if to <= from {
                        return Err(format!("{e}: empty drop range (need from < to)"));
                    }
                }
                SourceFault::ReorderAt { by, .. } => {
                    if by == 0 {
                        return Err(format!("{e}: reorder displacement must be >= 1"));
                    }
                }
                SourceFault::CorruptAt { .. } | SourceFault::DuplicateAt { .. } => {}
            }
        }
        Ok(())
    }

    /// Build the injector for one stream. Each call creates fresh one-shot
    /// state, so build injectors once per run.
    pub fn injector(&self, stream: usize) -> SourceInjector {
        let mut inj = SourceInjector::noop();
        for e in &self.entries {
            if e.stream != stream {
                continue;
            }
            match e.fault {
                SourceFault::DisconnectAt { at_frame, dur_ms } => {
                    inj.disconnects.push(Disconnect {
                        one: OneShot::new(at_frame),
                        dur_ms,
                    });
                }
                SourceFault::CorruptAt { at_frame } => inj.corrupts.push(OneShot::new(at_frame)),
                SourceFault::DropRange { from, to } => inj.drops.push((from, to)),
                SourceFault::ReorderAt { at_frame, by } => inj.reorders.push(Reorder {
                    one: OneShot::new(at_frame),
                    by,
                }),
                SourceFault::DuplicateAt { at_frame } => inj.dups.push(OneShot::new(at_frame)),
            }
        }
        inj
    }

    /// Parse the CLI grammar: a comma- or semicolon-separated list of
    /// `stream<S>.src:<fault>` where `<fault>` is one of
    /// `disconnect@<n>+<ms>ms`, `corrupt@<n>`, `drop@<n>..<m>`,
    /// `reorder@<n>+<k>`, `dup@<n>`.
    ///
    /// Example: `stream1.src:disconnect@100+500ms,stream0.src:drop@10..20`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = SourceFaultPlan::new();
        for part in spec.split([',', ';']) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (coord, fault) = part
                .split_once(':')
                .ok_or_else(|| format!("`{part}`: expected stream<S>.src:<fault>"))?;
            let (stream_s, stage_s) = coord
                .split_once('.')
                .ok_or_else(|| format!("`{coord}`: expected stream<S>.src"))?;
            let stream: usize = stream_s
                .strip_prefix("stream")
                .ok_or_else(|| format!("`{stream_s}`: expected stream<S>"))?
                .parse()
                .map_err(|_| format!("`{stream_s}`: bad stream index"))?;
            if stage_s != "src" {
                return Err(format!(
                    "`{stage_s}`: source faults target `src` (stage faults go in --fault-plan)"
                ));
            }
            let (kind, arg) = fault
                .split_once('@')
                .ok_or_else(|| format!("`{fault}`: expected <kind>@<arg>"))?;
            let fault = match kind {
                "corrupt" => SourceFault::CorruptAt {
                    at_frame: arg.parse().map_err(|_| format!("`{arg}`: bad frame seq"))?,
                },
                "dup" => SourceFault::DuplicateAt {
                    at_frame: arg.parse().map_err(|_| format!("`{arg}`: bad frame seq"))?,
                },
                "disconnect" => {
                    let (at_s, dur_s) = arg
                        .split_once('+')
                        .ok_or_else(|| format!("`{arg}`: expected <frame>+<ms>ms"))?;
                    let at_frame = at_s
                        .parse()
                        .map_err(|_| format!("`{at_s}`: bad frame seq"))?;
                    let dur_ms: u64 = dur_s
                        .strip_suffix("ms")
                        .ok_or_else(|| format!("`{dur_s}`: expected <ms>ms"))?
                        .parse()
                        .map_err(|_| format!("`{dur_s}`: bad duration"))?;
                    SourceFault::DisconnectAt { at_frame, dur_ms }
                }
                "drop" => {
                    let (from_s, to_s) = arg
                        .split_once("..")
                        .ok_or_else(|| format!("`{arg}`: expected <from>..<to>"))?;
                    SourceFault::DropRange {
                        from: from_s
                            .parse()
                            .map_err(|_| format!("`{from_s}`: bad frame seq"))?,
                        to: to_s
                            .parse()
                            .map_err(|_| format!("`{to_s}`: bad frame seq"))?,
                    }
                }
                "reorder" => {
                    let (at_s, by_s) = arg
                        .split_once('+')
                        .ok_or_else(|| format!("`{arg}`: expected <frame>+<k>"))?;
                    SourceFault::ReorderAt {
                        at_frame: at_s
                            .parse()
                            .map_err(|_| format!("`{at_s}`: bad frame seq"))?,
                        by: by_s
                            .parse()
                            .map_err(|_| format!("`{by_s}`: bad displacement"))?,
                    }
                }
                other => return Err(format!("unknown source fault kind `{other}`")),
            };
            plan.entries.push(SourceFaultEntry { stream, fault });
        }
        plan.validate()?;
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// injector

#[derive(Debug, Clone)]
struct OneShot {
    at_frame: u64,
    fired: Arc<AtomicBool>,
}

impl OneShot {
    fn new(at_frame: u64) -> Self {
        OneShot {
            at_frame,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Fire exactly once, on the first `seq >= at_frame` — shared across
    /// clones (a resumed or restarted worker must not re-fire).
    fn check(&self, seq: u64) -> bool {
        seq >= self.at_frame && !self.fired.swap(true, Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
struct Disconnect {
    one: OneShot,
    dur_ms: u64,
}

#[derive(Debug, Clone)]
struct Reorder {
    one: OneShot,
    by: u64,
}

/// What the source does with the frame it is about to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceAction {
    Deliver,
    /// Payload corrupted in transit (checksum will mismatch).
    Corrupt,
    /// Silently lost at the source.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Held back until this many later frames have been delivered.
    DelayBy(u64),
}

/// Per-stream source fault state shared across worker restarts and clones.
#[derive(Debug, Clone, Default)]
pub struct SourceInjector {
    disconnects: Vec<Disconnect>,
    corrupts: Vec<OneShot>,
    drops: Vec<(u64, u64)>,
    reorders: Vec<Reorder>,
    dups: Vec<OneShot>,
}

impl SourceInjector {
    /// An injector that never fires — the zero-cost default.
    pub fn noop() -> Self {
        Self::default()
    }

    pub fn is_noop(&self) -> bool {
        self.disconnects.is_empty()
            && self.corrupts.is_empty()
            && self.drops.is_empty()
            && self.reorders.is_empty()
            && self.dups.is_empty()
    }

    /// Link outages firing before the frame with this seq is delivered
    /// (one-shot each; several entries can mature on the same frame).
    pub fn disconnects_before(&self, seq: u64) -> Vec<u64> {
        self.disconnects
            .iter()
            .filter(|d| d.one.check(seq))
            .map(|d| d.dur_ms)
            .collect()
    }

    /// The fate of the frame with this seq. Precedence when several faults
    /// target one frame: drop > corrupt > reorder > duplicate (a one-shot
    /// that loses the race stays armed for the next frame).
    pub fn action(&self, seq: u64) -> SourceAction {
        if self.drops.iter().any(|&(from, to)| from <= seq && seq < to) {
            return SourceAction::Drop;
        }
        if self.corrupts.iter().any(|o| o.check(seq)) {
            return SourceAction::Corrupt;
        }
        if let Some(by) = self
            .reorders
            .iter()
            .find_map(|r| r.one.check(seq).then_some(r.by))
        {
            return SourceAction::DelayBy(by);
        }
        if self.dups.iter().any(|o| o.check(seq)) {
            return SourceAction::Duplicate;
        }
        SourceAction::Deliver
    }

    /// Resume support: mark every one-shot aimed strictly before `first_seq`
    /// as already fired, so a resumed run does not replay faults whose
    /// effects are already in the checkpointed counters.
    pub fn fast_forward(&self, first_seq: u64) {
        let expire = |o: &OneShot| {
            if o.at_frame < first_seq {
                o.fired.store(true, Ordering::Relaxed);
            }
        };
        self.disconnects.iter().for_each(|d| expire(&d.one));
        self.corrupts.iter().for_each(expire);
        self.reorders.iter().for_each(|r| expire(&r.one));
        self.dups.iter().for_each(expire);
    }
}

// ---------------------------------------------------------------------------
// turbulence: the shared delivery-disorder state machine

/// One event on the faulted delivery timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceEvent<T> {
    /// A frame crossing the link. `corrupt` marks a payload whose checksum
    /// will not validate (the DES, having no pixels, carries the flag
    /// directly; the RT wrapper corrupts real bytes).
    Frame { seq: u64, item: T, corrupt: bool },
    /// A frame silently lost at the source.
    Dropped { seq: u64 },
    /// The link goes down for `dur_ms` before the next delivery.
    Disconnect { dur_ms: u64 },
}

/// Turns a clean, in-order frame stream into the faulted delivery sequence
/// dictated by a [`SourceInjector`]. Pure and engine-agnostic: feed frames
/// in seq order, get delivery events out; both engines run this exact code
/// so their ingest accounting is bit-identical.
#[derive(Debug, Clone)]
pub struct Turbulence<T> {
    inj: SourceInjector,
    /// Held-back frames: (deliveries still to pass, seq, item).
    delayed: Vec<(u64, u64, T)>,
    dropped: u64,
}

impl<T: Clone> Turbulence<T> {
    pub fn new(inj: SourceInjector) -> Self {
        Turbulence {
            inj,
            delayed: Vec::new(),
            dropped: 0,
        }
    }

    /// Offer the next clean frame; returns the delivery events it causes
    /// (possibly none — a dropped frame plus no matured holds).
    pub fn feed(&mut self, seq: u64, item: T) -> Vec<SourceEvent<T>> {
        let mut out = Vec::new();
        for dur_ms in self.inj.disconnects_before(seq) {
            out.push(SourceEvent::Disconnect { dur_ms });
        }
        match self.inj.action(seq) {
            SourceAction::Drop => {
                self.dropped += 1;
                out.push(SourceEvent::Dropped { seq });
            }
            SourceAction::Corrupt => self.deliver(&mut out, seq, item, true),
            SourceAction::DelayBy(by) => self.delayed.push((by, seq, item)),
            SourceAction::Duplicate => {
                self.deliver(&mut out, seq, item.clone(), false);
                self.deliver(&mut out, seq, item, false);
            }
            SourceAction::Deliver => self.deliver(&mut out, seq, item, false),
        }
        out
    }

    /// The stream ended: flush still-held frames in seq order.
    pub fn finish(&mut self) -> Vec<SourceEvent<T>> {
        self.delayed.sort_by_key(|&(_, seq, _)| seq);
        self.delayed
            .drain(..)
            .map(|(_, seq, item)| SourceEvent::Frame {
                seq,
                item,
                corrupt: false,
            })
            .collect()
    }

    /// Frames silently lost at the source so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Emit one frame; every delivery brings held-back frames one step
    /// closer to release, and matured holds follow immediately (they do not
    /// tick the countdowns themselves, so holds cannot cascade).
    fn deliver(&mut self, out: &mut Vec<SourceEvent<T>>, seq: u64, item: T, corrupt: bool) {
        out.push(SourceEvent::Frame { seq, item, corrupt });
        for d in &mut self.delayed {
            d.0 = d.0.saturating_sub(1);
        }
        self.delayed.sort_by_key(|&(left, seq, _)| (left, seq));
        while let Some(&(0, _, _)) = self.delayed.first() {
            let (_, seq, item) = self.delayed.remove(0);
            out.push(SourceEvent::Frame {
                seq,
                item,
                corrupt: false,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// reconnect arithmetic

/// Retry/backoff parameters for surviving a source disconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReconnectPolicy {
    /// Reconnect attempts before giving the stream up as `SourceLost`.
    pub retry_budget: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_ms: u64,
    /// Ceiling on any single backoff.
    pub backoff_cap_ms: u64,
}

/// The outcome of riding out one link outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconnectOutcome {
    /// The link came back within the retry budget after `waited_ms` of
    /// cumulative backoff across `attempts` attempts.
    Reconnected { attempts: u32, waited_ms: u64 },
    /// The budget exhausted first: the stream degrades to `SourceLost`.
    Lost { attempts: u32, waited_ms: u64 },
}

/// Pure capped-exponential-backoff arithmetic: given an outage of
/// `outage_ms`, how many attempts and how much cumulative wait until the
/// link is back — or `Lost` if the budget runs out first. Both engines call
/// this with the same inputs, so reconnect-vs-SourceLost decisions (and the
/// waited time) are identical; only *how* the wait elapses differs (real
/// sleep in RT, virtual time in the DES).
pub fn plan_reconnect(outage_ms: u64, policy: ReconnectPolicy) -> ReconnectOutcome {
    let base = policy.backoff_ms.max(1);
    let cap = policy.backoff_cap_ms.max(base);
    let mut waited_ms = 0u64;
    for attempt in 1..=policy.retry_budget {
        let backoff = base
            .saturating_mul(1u64 << (u64::from(attempt) - 1).min(20))
            .min(cap);
        waited_ms = waited_ms.saturating_add(backoff);
        if waited_ms >= outage_ms {
            return ReconnectOutcome::Reconnected {
                attempts: attempt,
                waited_ms,
            };
        }
    }
    ReconnectOutcome::Lost {
        attempts: policy.retry_budget,
        waited_ms,
    }
}

// ---------------------------------------------------------------------------
// the RT-side wrapper

/// What an ingest worker pulls from an [`UnreliableSource`].
#[derive(Debug, Clone)]
pub enum SourceItem {
    /// A frame plus the checksum the source *claims* for its payload. A
    /// corrupted frame carries the original checksum over flipped bytes, so
    /// validation (`frame_checksum(&lf.frame) != claimed_checksum`) fails.
    Frame {
        lf: LabeledFrame,
        claimed_checksum: u64,
    },
    /// A frame was silently lost at the source (sequence gap follows).
    Dropped { seq: u64 },
    /// The link dropped for `dur_ms`; the worker must reconnect (or give
    /// the stream up) before the next frame.
    Disconnect { dur_ms: u64 },
    /// Clean end of stream.
    End,
}

/// Wraps a [`FrameSource`] in deterministic ingest weather. Corruption is
/// real: payload bytes are flipped while the claimed checksum stays that of
/// the original payload, so the ingest worker's validation path is the
/// thing that catches it.
pub struct UnreliableSource<S> {
    inner: S,
    turb: Turbulence<LabeledFrame>,
    queue: VecDeque<SourceItem>,
    done: bool,
}

impl<S: FrameSource> UnreliableSource<S> {
    pub fn new(inner: S, inj: SourceInjector) -> Self {
        UnreliableSource {
            inner,
            turb: Turbulence::new(inj),
            queue: VecDeque::new(),
            done: false,
        }
    }

    /// The next delivery event. Frames arrive possibly corrupted,
    /// duplicated, reordered, or not at all; `End` is terminal.
    pub fn next_item(&mut self) -> SourceItem {
        loop {
            if let Some(item) = self.queue.pop_front() {
                return item;
            }
            if self.done {
                return SourceItem::End;
            }
            match self.inner.next_frame() {
                Some(lf) => {
                    let seq = lf.frame.seq;
                    for ev in self.turb.feed(seq, lf) {
                        let item = realize(ev);
                        self.queue.push_back(item);
                    }
                }
                None => {
                    self.done = true;
                    for ev in self.turb.finish() {
                        let item = realize(ev);
                        self.queue.push_back(item);
                    }
                }
            }
        }
    }

    /// Frames consumed from the underlying stream (the checkpoint cursor).
    pub fn position(&self) -> u64 {
        self.inner.position()
    }

    /// Frames silently lost at the source so far.
    pub fn dropped(&self) -> u64 {
        self.turb.dropped()
    }

    /// Give up mid-stream (e.g. after `SourceLost`): frames still held by
    /// the reorder fault plus everything unread count as lost with the link.
    /// Only *distinct frames* count — queued drop/disconnect markers are not
    /// frames, and a duplicated frame is one loss, not two — so the
    /// conservation identity survives faults stacked on the same frame.
    pub fn abandon(&mut self) -> u64 {
        let mut seqs: std::collections::BTreeSet<u64> = self
            .turb
            .finish()
            .iter()
            .filter_map(|ev| match ev {
                SourceEvent::Frame { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        for item in self.queue.drain(..) {
            if let SourceItem::Frame { lf, .. } = item {
                seqs.insert(lf.frame.seq);
            }
        }
        let mut lost = seqs.len() as u64;
        while self.inner.next_frame().is_some() {
            lost += 1;
        }
        self.done = true;
        lost
    }
}

fn realize(ev: SourceEvent<LabeledFrame>) -> SourceItem {
    match ev {
        SourceEvent::Frame { item, corrupt, .. } => {
            let claimed_checksum = frame_checksum(&item.frame);
            let lf = if corrupt { corrupt_payload(item) } else { item };
            SourceItem::Frame {
                lf,
                claimed_checksum,
            }
        }
        SourceEvent::Dropped { seq } => SourceItem::Dropped { seq },
        SourceEvent::Disconnect { dur_ms } => SourceItem::Disconnect { dur_ms },
    }
}

/// Flip a prefix of the payload bytes, keeping geometry valid so the damage
/// is only detectable by checksum (exactly what a torn network read looks
/// like to a decoder).
fn corrupt_payload(lf: LabeledFrame) -> LabeledFrame {
    let f = &lf.frame;
    let mut data = f.data.to_vec();
    for b in data.iter_mut().take(32) {
        *b ^= 0x5A;
    }
    let frame = match f.format {
        PixelFormat::Gray8 => Frame::gray8(f.stream, f.seq, f.pts_ms, f.width, f.height, data),
        PixelFormat::Rgb8 => Frame::rgb8(f.stream, f.seq, f.pts_ms, f.width, f.height, data),
    };
    LabeledFrame {
        frame,
        truth: lf.truth,
    }
}

// ---------------------------------------------------------------------------
// network-attached source

/// Stream metadata sent once per connection before any frame record.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireHeader {
    pub stream: StreamId,
    pub width: usize,
    pub height: usize,
    pub format: PixelFormat,
    /// Total frames the server intends to deliver (the announced budget a
    /// puller can bound its loop on).
    pub total: u64,
}

/// Upper bound on one wire record (64 MiB) — anything larger is a framing
/// error, rejected before allocation.
pub const MAX_WIRE_RECORD: usize = 64 << 20;

fn wire_checksum(seq: u64, pts_ms: u64, truth: &[u8], rle: &[u8]) -> u64 {
    let mut h = fnv1a_continue(FNV_OFFSET, &seq.to_le_bytes());
    h = fnv1a_continue(h, &pts_ms.to_le_bytes());
    h = fnv1a_continue(h, truth);
    fnv1a_continue(h, rle)
}

/// Encode one labeled frame as a wire record payload (no length prefix):
/// `seq u64 | pts_ms u64 | truth_len u32 + truth JSON | rle_len u32 + RLE
/// pixels | checksum u64`, all little-endian — the FFSV1 record layout,
/// reused so the framing has exactly one on-disk/on-wire shape.
pub fn encode_wire_frame(lf: &LabeledFrame) -> Vec<u8> {
    let truth = serde_json::to_vec(&lf.truth).expect("serializable truth");
    let rle = crate::storage::rle_encode(lf.frame.pixels());
    let mut out = Vec::with_capacity(32 + truth.len() + rle.len());
    out.extend_from_slice(&lf.frame.seq.to_le_bytes());
    out.extend_from_slice(&lf.frame.pts_ms.to_le_bytes());
    out.extend_from_slice(&(truth.len() as u32).to_le_bytes());
    out.extend_from_slice(&truth);
    out.extend_from_slice(&(rle.len() as u32).to_le_bytes());
    out.extend_from_slice(&rle);
    out.extend_from_slice(
        &wire_checksum(lf.frame.seq, lf.frame.pts_ms, &truth, &rle).to_le_bytes(),
    );
    out
}

/// Decode one wire record payload against the connection's [`WireHeader`],
/// verifying the record checksum and the RLE geometry.
pub fn decode_wire_frame(buf: &[u8], header: &WireHeader) -> std::io::Result<LabeledFrame> {
    use std::io::{Error, ErrorKind};
    let bad = |d: &str| Error::new(ErrorKind::InvalidData, format!("wire record: {d}"));
    let take = |buf: &[u8], at: usize, n: usize| -> std::io::Result<Vec<u8>> {
        buf.get(at..at + n)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| bad("truncated"))
    };
    let u64_at = |at: usize| -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(take(buf, at, 8)?.try_into().unwrap()))
    };
    let u32_at = |at: usize| -> std::io::Result<u32> {
        Ok(u32::from_le_bytes(take(buf, at, 4)?.try_into().unwrap()))
    };
    let seq = u64_at(0)?;
    let pts_ms = u64_at(8)?;
    let tlen = u32_at(16)? as usize;
    let truth_bytes = take(buf, 20, tlen)?;
    let rlen = u32_at(20 + tlen)? as usize;
    let rle = take(buf, 24 + tlen, rlen)?;
    let stored = u64_at(24 + tlen + rlen)?;
    let computed = wire_checksum(seq, pts_ms, &truth_bytes, &rle);
    if stored != computed {
        return Err(bad("checksum mismatch"));
    }
    let truth: GroundTruth =
        serde_json::from_slice(&truth_bytes).map_err(|e| bad(&e.to_string()))?;
    let expect = header.format.frame_len(header.width, header.height)?;
    let pixels = crate::storage::rle_decode(&rle, expect)?;
    let frame = match header.format {
        PixelFormat::Gray8 => Frame::gray8(
            header.stream,
            seq,
            pts_ms,
            header.width,
            header.height,
            pixels,
        ),
        PixelFormat::Rgb8 => Frame::rgb8(
            header.stream,
            seq,
            pts_ms,
            header.width,
            header.height,
            pixels,
        ),
    };
    Ok(LabeledFrame { frame, truth })
}

fn read_exact_u32(s: &mut impl std::io::Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    s.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// A [`FrameSource`] pulling length-prefixed frames over TCP.
///
/// Protocol, client side: connect, send the resume position (`u64` LE —
/// the index of the first frame wanted), read one `u32`-length-prefixed
/// [`WireHeader`] JSON, then `u32`-length-prefixed frame records; a zero
/// length is the clean end of stream.
///
/// Every socket read and write carries a deadline (`io_timeout`), so a hung
/// peer looks exactly like a dead link: the source redials with the same
/// capped-exponential backoff arithmetic [`plan_reconnect`] models, sending
/// the current position so reconnection never duplicates or skips a frame.
/// When the retry budget burns out the source marks itself [`lost`]
/// (`SocketSource::lost`) and `next_frame` returns `None` — the caller
/// degrades the stream to `SourceLost` quarantine, never a hung loop.
pub struct SocketSource {
    addr: String,
    policy: ReconnectPolicy,
    io_timeout: std::time::Duration,
    conn: Option<(std::net::TcpStream, WireHeader)>,
    pos: u64,
    total: Option<u64>,
    lost: bool,
    done: bool,
    reconnects: u64,
}

impl SocketSource {
    /// A lazily-dialed socket source; the first `next_frame` connects.
    pub fn new(
        addr: impl Into<String>,
        policy: ReconnectPolicy,
        io_timeout: std::time::Duration,
    ) -> Self {
        SocketSource {
            addr: addr.into(),
            policy,
            io_timeout,
            conn: None,
            pos: 0,
            total: None,
            lost: false,
            done: false,
            reconnects: 0,
        }
    }

    /// Resume support: start pulling at frame index `start` (already
    /// accounted by a checkpoint); `position()` continues from `start`.
    pub fn resume_at(mut self, start: u64) -> Self {
        self.pos = start;
        self
    }

    /// The link died and the retry budget is exhausted: whatever was not
    /// pulled is gone. Terminal.
    pub fn lost(&self) -> bool {
        self.lost
    }

    /// Redial attempts so far (not counting the initial connect).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The server's announced frame budget, once a header has been read.
    pub fn announced_total(&self) -> Option<u64> {
        self.total
    }

    fn dial(&mut self) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind, Write};
        let stream = std::net::TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let mut stream = stream;
        stream.write_all(&self.pos.to_le_bytes())?;
        let hlen = read_exact_u32(&mut stream)? as usize;
        if hlen == 0 || hlen > 1 << 16 {
            return Err(Error::new(ErrorKind::InvalidData, "bad wire header length"));
        }
        let mut hjson = vec![0u8; hlen];
        std::io::Read::read_exact(&mut stream, &mut hjson)?;
        let header: WireHeader =
            serde_json::from_slice(&hjson).map_err(|e| Error::new(ErrorKind::InvalidData, e))?;
        header.format.frame_len(header.width, header.height)?;
        self.total = Some(header.total);
        self.conn = Some((stream, header));
        Ok(())
    }

    fn pull_once(&mut self) -> std::io::Result<Option<LabeledFrame>> {
        use std::io::{Error, ErrorKind, Read};
        if self.conn.is_none() {
            self.dial()?;
        }
        let (stream, header) = self.conn.as_mut().expect("dialed");
        let len = read_exact_u32(stream)? as usize;
        if len == 0 {
            return Ok(None);
        }
        if len > MAX_WIRE_RECORD {
            return Err(Error::new(ErrorKind::InvalidData, "oversized wire record"));
        }
        let mut buf = vec![0u8; len];
        stream.read_exact(&mut buf)?;
        decode_wire_frame(&buf, header).map(Some)
    }
}

impl FrameSource for SocketSource {
    fn next_frame(&mut self) -> Option<LabeledFrame> {
        if self.done || self.lost {
            return None;
        }
        let mut attempt = 0u32;
        let base = self.policy.backoff_ms.max(1);
        let cap = self.policy.backoff_cap_ms.max(base);
        let mut backoff = base;
        loop {
            match self.pull_once() {
                Ok(Some(lf)) => {
                    self.pos += 1;
                    return Some(lf);
                }
                Ok(None) => {
                    self.done = true;
                    self.conn = None;
                    return None;
                }
                Err(_) => {
                    // dead or hung link: redial at the current position with
                    // capped-exponential backoff until the budget burns out
                    self.conn = None;
                    if attempt >= self.policy.retry_budget {
                        self.lost = true;
                        return None;
                    }
                    attempt += 1;
                    self.reconnects += 1;
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                    backoff = backoff.saturating_mul(2).min(cap);
                }
            }
        }
    }

    fn position(&self) -> u64 {
        self.pos
    }
}

/// Fault knobs for [`spawn_frame_server`] — deterministic network weather
/// from the server side, complementing the client-side [`SourceFaultPlan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameServerOptions {
    /// Cut each connection (no terminator) after sending this many records:
    /// a mid-stream disconnect the client must ride out by redialing.
    pub disconnect_after: Option<u64>,
    /// Stop accepting after this many connections; later redials are
    /// refused, so a client degrades to lost. `None` = keep accepting until
    /// some client drains the clip cleanly.
    pub max_conns: Option<usize>,
}

/// Serve `frames` over TCP on an ephemeral localhost port, one connection
/// at a time, honouring resume positions. Returns the bound address and the
/// accept-loop handle; the loop exits after a client drains the clip
/// cleanly, or after `max_conns` connections.
pub fn spawn_frame_server(
    frames: Vec<LabeledFrame>,
    opts: FrameServerOptions,
) -> std::io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        let mut conns = 0usize;
        let max = opts.max_conns.unwrap_or(usize::MAX);
        while conns < max {
            let Ok((mut stream, _)) = listener.accept() else {
                break;
            };
            conns += 1;
            if serve_wire_conn(&mut stream, &frames, opts.disconnect_after).unwrap_or(false) {
                break; // a client reached the clean end of stream
            }
        }
    });
    Ok((addr, handle))
}

/// One connection: read the resume position, send header + records, then
/// the zero-length terminator. `Ok(true)` iff the terminator was sent.
fn serve_wire_conn(
    stream: &mut std::net::TcpStream,
    frames: &[LabeledFrame],
    disconnect_after: Option<u64>,
) -> std::io::Result<bool> {
    use std::io::{Read, Write};
    let io_timeout = std::time::Duration::from_secs(5);
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let mut start = [0u8; 8];
    stream.read_exact(&mut start)?;
    let start = u64::from_le_bytes(start) as usize;
    let header = match frames.first() {
        Some(lf) => WireHeader {
            stream: lf.frame.stream,
            width: lf.frame.width,
            height: lf.frame.height,
            format: lf.frame.format,
            total: frames.len() as u64,
        },
        None => WireHeader {
            stream: 0,
            width: 1,
            height: 1,
            format: PixelFormat::Gray8,
            total: 0,
        },
    };
    let hjson = serde_json::to_vec(&header).expect("serializable header");
    stream.write_all(&(hjson.len() as u32).to_le_bytes())?;
    stream.write_all(&hjson)?;
    let mut sent = 0u64;
    for lf in frames.iter().skip(start) {
        if disconnect_after.is_some_and(|cut| sent >= cut) {
            return Ok(false); // drop the link mid-stream, no terminator
        }
        let rec = encode_wire_frame(lf);
        stream.write_all(&(rec.len() as u32).to_le_bytes())?;
        stream.write_all(&rec)?;
        sent += 1;
    }
    stream.write_all(&0u32.to_le_bytes())?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::ObjectClass;
    use crate::workloads;

    #[test]
    fn parse_round_trips_the_grammar() {
        let spec = "stream1.src:disconnect@100+500ms, stream0.src:corrupt@5;\
                    stream0.src:drop@10..20,stream2.src:reorder@40+3,stream2.src:dup@7";
        let plan = SourceFaultPlan::parse(spec).unwrap();
        assert_eq!(plan.entries().len(), 5);
        assert_eq!(
            plan.entries()[0],
            SourceFaultEntry {
                stream: 1,
                fault: SourceFault::DisconnectAt {
                    at_frame: 100,
                    dur_ms: 500,
                },
            }
        );
        assert_eq!(
            plan.entries()[2].fault,
            SourceFault::DropRange { from: 10, to: 20 }
        );
        assert_eq!(
            plan.entries()[3].fault,
            SourceFault::ReorderAt {
                at_frame: 40,
                by: 3
            }
        );
        // Display re-emits the exact grammar
        for e in plan.entries() {
            let reparsed = SourceFaultPlan::parse(&e.to_string()).unwrap();
            assert_eq!(reparsed.entries()[0], *e);
        }
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(SourceFaultPlan::parse("src:corrupt@1").is_err());
        assert!(SourceFaultPlan::parse("stream0.sdd:corrupt@1").is_err());
        assert!(SourceFaultPlan::parse("stream0.src:melt@1").is_err());
        assert!(SourceFaultPlan::parse("stream0.src:disconnect@5").is_err());
        assert!(SourceFaultPlan::parse("stream0.src:disconnect@5+0ms").is_err());
        assert!(SourceFaultPlan::parse("stream0.src:drop@9..9").is_err());
        assert!(SourceFaultPlan::parse("stream0.src:reorder@5+0").is_err());
    }

    #[test]
    fn serde_round_trip() {
        let plan = SourceFaultPlan::parse("stream0.src:disconnect@10+250ms,stream1.src:drop@0..5")
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: SourceFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn one_shots_fire_once_even_across_clones() {
        let plan = SourceFaultPlan::new()
            .with(0, SourceFault::CorruptAt { at_frame: 5 })
            .with(
                0,
                SourceFault::DisconnectAt {
                    at_frame: 5,
                    dur_ms: 100,
                },
            );
        let inj = plan.injector(0);
        let resumed = inj.clone(); // a restarted worker shares fault state
        assert_eq!(inj.action(4), SourceAction::Deliver);
        assert!(inj.disconnects_before(4).is_empty());
        assert_eq!(resumed.disconnects_before(5), vec![100]);
        assert!(inj.disconnects_before(6).is_empty());
        assert_eq!(inj.action(5), SourceAction::Corrupt);
        assert_eq!(resumed.action(6), SourceAction::Deliver);
    }

    #[test]
    fn injector_coordinates_and_noop() {
        let plan = SourceFaultPlan::new().with(2, SourceFault::DuplicateAt { at_frame: 1 });
        assert!(plan.injector(0).is_noop());
        assert!(!plan.injector(2).is_noop());
        assert!(SourceFaultPlan::new().is_empty());
    }

    #[test]
    fn fast_forward_expires_only_past_one_shots() {
        let plan = SourceFaultPlan::new()
            .with(0, SourceFault::CorruptAt { at_frame: 5 })
            .with(0, SourceFault::DuplicateAt { at_frame: 50 });
        let inj = plan.injector(0);
        inj.fast_forward(10);
        // corrupt@5 already accounted pre-resume; dup@50 still pending
        assert_eq!(inj.action(10), SourceAction::Deliver);
        assert_eq!(inj.action(50), SourceAction::Duplicate);
    }

    fn feed_all(turb: &mut Turbulence<u64>, n: u64) -> Vec<SourceEvent<u64>> {
        let mut events: Vec<SourceEvent<u64>> = Vec::new();
        for seq in 0..n {
            events.extend(turb.feed(seq, seq));
        }
        events.extend(turb.finish());
        events
    }

    fn delivered_seqs(events: &[SourceEvent<u64>]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                SourceEvent::Frame { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn turbulence_reorders_within_the_window() {
        let inj = SourceFaultPlan::new()
            .with(0, SourceFault::ReorderAt { at_frame: 3, by: 2 })
            .injector(0);
        let events = feed_all(&mut Turbulence::new(inj), 8);
        // frame 3 held until two later frames delivered: 0 1 2 4 5 3 6 7
        assert_eq!(delivered_seqs(&events), vec![0, 1, 2, 4, 5, 3, 6, 7]);
    }

    #[test]
    fn turbulence_flushes_holds_at_end_of_stream() {
        let inj = SourceFaultPlan::new()
            .with(
                0,
                SourceFault::ReorderAt {
                    at_frame: 4,
                    by: 100,
                },
            )
            .injector(0);
        let events = feed_all(&mut Turbulence::new(inj), 6);
        assert_eq!(delivered_seqs(&events), vec![0, 1, 2, 3, 5, 4]);
    }

    #[test]
    fn turbulence_drops_dups_and_corrupts() {
        let inj = SourceFaultPlan::new()
            .with(0, SourceFault::DropRange { from: 1, to: 3 })
            .with(0, SourceFault::DuplicateAt { at_frame: 4 })
            .with(0, SourceFault::CorruptAt { at_frame: 5 })
            .injector(0);
        let mut turb = Turbulence::new(inj);
        let events = feed_all(&mut turb, 6);
        assert_eq!(delivered_seqs(&events), vec![0, 3, 4, 4, 5]);
        assert_eq!(turb.dropped(), 2);
        let corrupt: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                SourceEvent::Frame {
                    seq, corrupt: true, ..
                } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(corrupt, vec![5]);
        assert!(events
            .iter()
            .any(|e| matches!(e, SourceEvent::Dropped { seq: 1 })));
    }

    #[test]
    fn reconnect_arithmetic_caps_and_exhausts() {
        let policy = ReconnectPolicy {
            retry_budget: 6,
            backoff_ms: 50,
            backoff_cap_ms: 1000,
        };
        // 500 ms outage: 50+100+200+400 = 750 >= 500 after 4 attempts
        assert_eq!(
            plan_reconnect(500, policy),
            ReconnectOutcome::Reconnected {
                attempts: 4,
                waited_ms: 750,
            }
        );
        // budget covers at most 50+100+200+400+800+1000 = 2550 ms
        assert_eq!(
            plan_reconnect(60_000, policy),
            ReconnectOutcome::Lost {
                attempts: 6,
                waited_ms: 2550,
            }
        );
        // zero budget loses immediately
        assert_eq!(
            plan_reconnect(
                1,
                ReconnectPolicy {
                    retry_budget: 0,
                    backoff_ms: 50,
                    backoff_cap_ms: 1000,
                }
            ),
            ReconnectOutcome::Lost {
                attempts: 0,
                waited_ms: 0,
            }
        );
        // determinism: same inputs, same outcome
        assert_eq!(plan_reconnect(500, policy), plan_reconnect(500, policy));
    }

    fn tiny_clip(n: usize) -> Vec<LabeledFrame> {
        let mut cam = VideoStream::new(7, workloads::test_tiny(ObjectClass::Car, 0.3, 7));
        cam.clip(n)
    }

    #[test]
    fn clip_source_tracks_position_and_resumes() {
        let clip = tiny_clip(10);
        let mut src = ClipSource::new(clip.clone());
        assert_eq!(src.position(), 0);
        assert_eq!(src.next_frame().unwrap().frame.seq, clip[0].frame.seq);
        assert_eq!(src.position(), 1);

        let mut resumed = ClipSource::starting_at(clip.clone(), 4);
        assert_eq!(resumed.position(), 4);
        assert_eq!(resumed.next_frame().unwrap().frame.seq, clip[4].frame.seq);
        let mut rest = 1;
        while resumed.next_frame().is_some() {
            rest += 1;
        }
        assert_eq!(rest as usize, clip.len() - 4);
    }

    #[test]
    fn generator_source_bounds_the_stream() {
        let cam = VideoStream::new(3, workloads::test_tiny(ObjectClass::Car, 0.3, 3));
        let mut src = GeneratorSource::new(cam, 5);
        let mut n = 0;
        while src.next_frame().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(src.position(), 5);
    }

    #[test]
    fn unreliable_source_corrupts_bytes_but_claims_original_checksum() {
        let clip = tiny_clip(6);
        let inj = SourceFaultPlan::new()
            .with(0, SourceFault::CorruptAt { at_frame: 2 })
            .injector(0);
        let mut src = UnreliableSource::new(ClipSource::new(clip), inj);
        let mut seen = 0;
        let mut corrupt_seqs = Vec::new();
        loop {
            match src.next_item() {
                SourceItem::Frame {
                    lf,
                    claimed_checksum,
                } => {
                    seen += 1;
                    if frame_checksum(&lf.frame) != claimed_checksum {
                        corrupt_seqs.push(lf.frame.seq);
                    }
                }
                SourceItem::End => break,
                SourceItem::Dropped { .. } | SourceItem::Disconnect { .. } => {}
            }
        }
        assert_eq!(seen, 6);
        assert_eq!(corrupt_seqs, vec![2]);
        assert_eq!(src.position(), 6);
    }

    #[test]
    fn unreliable_source_emits_disconnect_then_the_frame() {
        let clip = tiny_clip(4);
        let inj = SourceFaultPlan::new()
            .with(
                0,
                SourceFault::DisconnectAt {
                    at_frame: 2,
                    dur_ms: 300,
                },
            )
            .injector(0);
        let mut src = UnreliableSource::new(ClipSource::new(clip), inj);
        let mut log = Vec::new();
        loop {
            match src.next_item() {
                SourceItem::Frame { lf, .. } => log.push(format!("f{}", lf.frame.seq)),
                SourceItem::Disconnect { dur_ms } => log.push(format!("d{dur_ms}")),
                SourceItem::Dropped { seq } => log.push(format!("x{seq}")),
                SourceItem::End => break,
            }
        }
        assert_eq!(log, vec!["f0", "f1", "d300", "f2", "f3"]);
    }

    fn fast_reconnect() -> ReconnectPolicy {
        ReconnectPolicy {
            retry_budget: 6,
            backoff_ms: 2,
            backoff_cap_ms: 10,
        }
    }

    fn io_timeout() -> std::time::Duration {
        std::time::Duration::from_millis(2000)
    }

    fn pull_all(src: &mut SocketSource) -> Vec<LabeledFrame> {
        let mut out = Vec::new();
        while let Some(lf) = src.next_frame() {
            out.push(lf);
        }
        out
    }

    #[test]
    fn wire_codec_round_trips_and_rejects_damage() {
        let clip = tiny_clip(3);
        let header = WireHeader {
            stream: clip[0].frame.stream,
            width: clip[0].frame.width,
            height: clip[0].frame.height,
            format: clip[0].frame.format,
            total: clip.len() as u64,
        };
        for lf in &clip {
            let rec = encode_wire_frame(lf);
            let back = decode_wire_frame(&rec, &header).unwrap();
            assert_eq!(back.frame.seq, lf.frame.seq);
            assert_eq!(back.frame.pts_ms, lf.frame.pts_ms);
            assert_eq!(back.frame.pixels(), lf.frame.pixels());
            assert_eq!(
                back.truth.count(ObjectClass::Car),
                lf.truth.count(ObjectClass::Car)
            );
            // any flipped byte fails the checksum; truncation fails framing
            let mut torn = rec.clone();
            torn[rec.len() / 2] ^= 0xFF;
            assert!(decode_wire_frame(&torn, &header).is_err());
            assert!(decode_wire_frame(&rec[..rec.len() - 1], &header).is_err());
        }
    }

    #[test]
    fn empty_and_overflowing_wire_dimensions_are_refused_not_panics() {
        let clip = tiny_clip(1);
        let rec = encode_wire_frame(&clip[0]);
        for (width, height) in [(0, 200), (300, 0), (usize::MAX, 2)] {
            let header = WireHeader {
                stream: 0,
                width,
                height,
                format: PixelFormat::Gray8,
                total: 1,
            };
            let err = decode_wire_frame(&rec, &header).expect_err("refused");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{width}x{height}"
            );

            // the same header on the wire: the dial fails, every redial
            // fails, the source ends lost having delivered nothing
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let hjson = serde_json::to_vec(&header).unwrap();
            let server = std::thread::spawn(move || {
                use std::io::{Read, Write};
                for _ in 0..2 {
                    let (mut conn, _) = listener.accept().unwrap();
                    conn.read_exact(&mut [0u8; 8]).unwrap();
                    conn.write_all(&(hjson.len() as u32).to_le_bytes()).unwrap();
                    conn.write_all(&hjson).unwrap();
                }
            });
            let policy = ReconnectPolicy {
                retry_budget: 1,
                backoff_ms: 1,
                backoff_cap_ms: 1,
            };
            let mut src = SocketSource::new(addr.to_string(), policy, io_timeout());
            assert!(src.next_frame().is_none());
            assert!(src.lost(), "{width}x{height}");
            assert_eq!(src.announced_total(), None, "the header was never accepted");
            server.join().unwrap();
        }
    }

    #[test]
    fn socket_source_streams_a_clip_bit_identical() {
        let clip = tiny_clip(8);
        let (addr, server) =
            spawn_frame_server(clip.clone(), FrameServerOptions::default()).unwrap();
        let mut src = SocketSource::new(addr.to_string(), fast_reconnect(), io_timeout());
        let got = pull_all(&mut src);
        server.join().unwrap();
        assert_eq!(got.len(), clip.len());
        for (g, want) in got.iter().zip(&clip) {
            assert_eq!(g.frame.seq, want.frame.seq);
            assert_eq!(g.frame.pixels(), want.frame.pixels());
        }
        assert_eq!(src.position(), 8);
        assert_eq!(src.announced_total(), Some(8));
        assert!(!src.lost());
    }

    #[test]
    fn socket_source_rides_out_mid_stream_disconnects() {
        let clip = tiny_clip(10);
        // every connection is cut after 4 records: the client must redial
        // (at its current position) at least twice to drain 10 frames
        let (addr, server) = spawn_frame_server(
            clip.clone(),
            FrameServerOptions {
                disconnect_after: Some(4),
                max_conns: None,
            },
        )
        .unwrap();
        let mut src = SocketSource::new(addr.to_string(), fast_reconnect(), io_timeout());
        let got = pull_all(&mut src);
        server.join().unwrap();
        let seqs: Vec<u64> = got.iter().map(|lf| lf.frame.seq).collect();
        let want: Vec<u64> = clip.iter().map(|lf| lf.frame.seq).collect();
        assert_eq!(seqs, want, "reconnects must not duplicate or skip");
        assert!(src.reconnects() >= 2, "got {}", src.reconnects());
        assert!(!src.lost());
    }

    #[test]
    fn socket_source_degrades_to_lost_when_the_server_goes_away() {
        let clip = tiny_clip(10);
        // one connection only, cut after 3 records; redials are refused
        let (addr, server) = spawn_frame_server(
            clip,
            FrameServerOptions {
                disconnect_after: Some(3),
                max_conns: Some(1),
            },
        )
        .unwrap();
        let mut src = SocketSource::new(
            addr.to_string(),
            ReconnectPolicy {
                retry_budget: 2,
                backoff_ms: 2,
                backoff_cap_ms: 4,
            },
            io_timeout(),
        );
        let got = pull_all(&mut src);
        server.join().unwrap();
        assert_eq!(got.len(), 3, "partial delivery before the loss");
        assert!(src.lost(), "budget exhaustion must mark the source lost");
        assert_eq!(src.position(), 3);
        assert!(src.next_frame().is_none(), "lost is terminal");
    }

    #[test]
    fn socket_source_resumes_at_a_checkpoint_cursor() {
        let clip = tiny_clip(9);
        let (addr, server) =
            spawn_frame_server(clip.clone(), FrameServerOptions::default()).unwrap();
        let mut src =
            SocketSource::new(addr.to_string(), fast_reconnect(), io_timeout()).resume_at(5);
        assert_eq!(src.position(), 5);
        let got = pull_all(&mut src);
        server.join().unwrap();
        let seqs: Vec<u64> = got.iter().map(|lf| lf.frame.seq).collect();
        let want: Vec<u64> = clip[5..].iter().map(|lf| lf.frame.seq).collect();
        assert_eq!(seqs, want);
        assert_eq!(src.position(), 9);
    }

    #[test]
    fn unreliable_source_composes_over_a_socket() {
        // the deterministic fault grammar applies to a network-attached
        // source exactly as it does to a local clip
        let clip = tiny_clip(6);
        let (addr, server) = spawn_frame_server(clip, FrameServerOptions::default()).unwrap();
        let inj = SourceFaultPlan::new()
            .with(0, SourceFault::CorruptAt { at_frame: 2 })
            .injector(0);
        let sock = SocketSource::new(addr.to_string(), fast_reconnect(), io_timeout());
        let mut src = UnreliableSource::new(sock, inj);
        let mut corrupt_seqs = Vec::new();
        let mut seen = 0;
        loop {
            match src.next_item() {
                SourceItem::Frame {
                    lf,
                    claimed_checksum,
                } => {
                    seen += 1;
                    if frame_checksum(&lf.frame) != claimed_checksum {
                        corrupt_seqs.push(lf.frame.seq);
                    }
                }
                SourceItem::End => break,
                SourceItem::Dropped { .. } | SourceItem::Disconnect { .. } => {}
            }
        }
        server.join().unwrap();
        assert_eq!(seen, 6);
        assert_eq!(corrupt_seqs, vec![2]);
        assert_eq!(src.position(), 6);
    }

    #[test]
    fn abandon_counts_everything_not_yet_delivered() {
        let clip = tiny_clip(10);
        let inj = SourceFaultPlan::new()
            .with(
                0,
                SourceFault::ReorderAt {
                    at_frame: 1,
                    by: 50,
                },
            )
            .injector(0);
        let mut src = UnreliableSource::new(ClipSource::new(clip), inj);
        // pull two deliveries (frames 0 and 2; frame 1 is held back)
        let mut delivered = 0;
        while delivered < 2 {
            if let SourceItem::Frame { .. } = src.next_item() {
                delivered += 1;
            }
        }
        // held frame 1 + unread frames 4..10 (frame 3 may sit in the queue)
        let lost = src.abandon();
        assert_eq!(delivered as u64 + lost + src.dropped(), 10);
        assert!(matches!(src.next_item(), SourceItem::End));
    }
}

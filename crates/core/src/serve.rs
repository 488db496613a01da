//! `serve` — the crash-safe resident daemon behind `ffsva serve`.
//!
//! Wraps a [`ClusterSession`] (the fleet control plane of [`crate::cluster`])
//! in a long-running process with a dependency-light HTTP/1.1 control API
//! over `std::net`:
//!
//! * `POST /streams` / `DELETE /streams/<id>` — register and drop streams at
//!   runtime. Admission rides the existing [`AdmissionController`]; a
//!   rejection answers `429` with a `Retry-After` derived from the placement
//!   backoff ([`ClusterSession::admission_retry_after_s`]).
//! * `GET /healthz`, `GET /readyz` — liveness and drain gating. Both are
//!   lock-free: a wedged epoch can never wedge the health surface.
//! * `GET /telemetry` — one-shot JSON snapshot of the full registry.
//! * `GET /telemetry/stream` — NDJSON change feed ([`SnapshotFeed`]).
//! * `POST /drain` — the API-side twin of SIGTERM.
//!
//! Robustness contract: every control-API read has a deadline; a malformed
//! request is rejected without touching engine state; epochs run atomically
//! under the session mutex, so a drain observed between epochs leaves an
//! on-disk state (`manifest.json` + per-stream checkpoints) from which
//! `serve --resume` continues with bit-identical survivor sets — including
//! under active stage- and source-fault plans, because the fired-latch
//! vector rides the manifest.
//!
//! Network-attached cameras register through the `{"kind":"socket"}` stream
//! spec: the daemon pulls the clip over [`SocketSource`] (length-prefixed
//! frames over TCP, same deterministic fault grammar and reconnect backoff
//! as `UnreliableSource`) and derives the decision trace from the shipped
//! ground truth. Link loss beyond the reconnect budget degrades to a
//! partial registration flagged `source_lost`, never a daemon fault.

use crate::cluster::{Cluster, ClusterSession, SessionManifest, StreamStatus};
use crate::config::{FfsVaConfig, StreamThresholds};
use crate::instance::Placement;
use crate::rt_engine::SurvivingFrame;
use crate::sim::StreamInput;
use ffsva_models::FrameTrace;
use ffsva_sched::ClusterFaultPlan;
use ffsva_telemetry::{ndjson_line, Counter, SnapshotFeed, Telemetry};
use ffsva_video::{
    FrameSource, LabeledFrame, ObjectClass, ReconnectPolicy, SocketSource, SourceFaultPlan,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request-line / header-line byte cap.
const MAX_LINE: usize = 8 << 10;
/// Headers accepted per request.
const MAX_HEADERS: usize = 32;
/// Request-body byte cap.
const MAX_BODY: usize = 1 << 20;
/// Per-connection socket deadline (read and write).
const CONN_DEADLINE: Duration = Duration::from_secs(5);
/// Frames a socket registration will pull before calling the camera done.
const MAX_SOCKET_FRAMES: u64 = 100_000;
/// Inline/synthetic trace-length cap.
const MAX_TRACE_FRAMES: usize = 1_000_000;
/// Poll cadence of the NDJSON telemetry feed.
const FEED_POLL: Duration = Duration::from_millis(25);

/// On-disk file names under the state directory.
pub const MANIFEST_FILE: &str = "manifest.json";
pub const ADDR_FILE: &str = "serve.addr";
pub const DRAIN_REPORT_FILE: &str = "drain-report.json";

// ---------------------------------------------------------------------------
// configuration

/// Everything `ffsva serve` needs to bring the daemon up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 lets the OS pick (the real one lands in
    /// `serve.addr`).
    pub addr: String,
    /// Checkpoint root and home of `manifest.json` / `serve.addr` /
    /// `drain-report.json`.
    pub state_dir: PathBuf,
    /// Resident engine instances.
    pub instances: usize,
    /// Frames per stream per control epoch.
    pub epoch_frames: u64,
    /// Instance/stage faults to inject (drill mode).
    pub fault_plan: Option<ClusterFaultPlan>,
    /// Source-link faults to inject (drill mode).
    pub source_plan: Option<SourceFaultPlan>,
    /// Continue from the manifest a previous drain left in `state_dir`.
    pub resume: bool,
    /// Pacing between control epochs (zero = step as fast as work exists).
    pub epoch_interval: Duration,
}

impl ServeConfig {
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            instances: 2,
            epoch_frames: 150,
            fault_plan: None,
            source_plan: None,
            resume: false,
            epoch_interval: Duration::from_millis(0),
        }
    }
}

/// What a clean drain leaves behind (also written as `drain-report.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrainReport {
    pub schema_version: u32,
    /// Control epochs completed before the drain.
    pub epoch: u64,
    /// What triggered the drain: `signal` or `api`.
    pub reason: String,
    /// Final per-stream status, offer order.
    pub streams: Vec<StreamStatus>,
    /// Where the session manifest was persisted.
    pub manifest: String,
}

// ---------------------------------------------------------------------------
// stream specs (the POST /streams body)

/// What a `POST /streams` body may describe.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum StreamSpec {
    /// A trace-generated stream: every `target_every`-th frame is a target
    /// frame (the unit-test workload shape, handy for ops drills).
    Synthetic {
        frames: usize,
        #[serde(default = "default_target_every")]
        target_every: usize,
        /// Per-stream query thresholds (e.g. a tuned config); defaults to
        /// the synthetic-trace-shaped thresholds when omitted.
        #[serde(default)]
        thresholds: Option<StreamThresholds>,
    },
    /// A fully spelled-out decision trace.
    Inline {
        traces: Vec<FrameTrace>,
        thresholds: StreamThresholds,
    },
    /// A network-attached camera speaking the wire protocol of
    /// [`ffsva_video::spawn_frame_server`].
    Socket {
        addr: String,
        /// Target class the trace is derived for (default `car`).
        #[serde(default)]
        target: Option<String>,
        /// Resume cursor sent on connect.
        #[serde(default)]
        resume_at: u64,
        #[serde(default = "default_retry_budget")]
        retry_budget: u32,
        #[serde(default = "default_backoff_ms")]
        backoff_ms: u64,
        #[serde(default = "default_backoff_cap_ms")]
        backoff_cap_ms: u64,
        #[serde(default = "default_io_timeout_ms")]
        io_timeout_ms: u64,
        /// Per-stream query thresholds (e.g. a tuned config); defaults to
        /// the oracle-trace-shaped thresholds when omitted.
        #[serde(default)]
        thresholds: Option<StreamThresholds>,
    },
}

fn default_target_every() -> usize {
    8
}
fn default_retry_budget() -> u32 {
    4
}
fn default_backoff_ms() -> u64 {
    50
}
fn default_backoff_cap_ms() -> u64 {
    1000
}
fn default_io_timeout_ms() -> u64 {
    5000
}

/// A spec resolved into engine input, plus how the resolution went.
pub struct ResolvedStream {
    pub input: StreamInput,
    /// The socket pull exhausted its reconnect budget; the registered trace
    /// is the delivered prefix.
    pub source_lost: bool,
}

/// The default thresholds matching the synthetic trace shape.
fn synthetic_thresholds() -> StreamThresholds {
    StreamThresholds {
        delta_diff: 0.001,
        t_pre: 0.5,
        number_of_objects: 1,
    }
}

/// The synthetic trace row for frame `i`.
fn synthetic_trace(i: usize, target: bool) -> FrameTrace {
    FrameTrace {
        seq: i as u64,
        pts_ms: (i as u64) * 33,
        sdd_distance: if target { 0.01 } else { 0.0001 },
        snm_prob: if target { 0.9 } else { 0.05 },
        tyolo_count: u16::from(target),
        reference_count: u16::from(target),
        truth_count: u16::from(target),
        truth_complete: u16::from(target),
    }
}

/// Derive a decision-trace row from a delivered frame's ground truth: the
/// oracle pattern (`0.01/0.9` vs `0.0001/0.05`) keyed on whether any target
/// object is visible.
fn trace_from_truth(lf: &LabeledFrame, class: ObjectClass) -> FrameTrace {
    let count = lf.truth.count(class);
    let complete = lf.truth.count_complete(class);
    let target = count > 0;
    FrameTrace {
        seq: lf.frame.seq,
        pts_ms: lf.frame.pts_ms,
        sdd_distance: if target { 0.01 } else { 0.0001 },
        snm_prob: if target { 0.9 } else { 0.05 },
        tyolo_count: count as u16,
        reference_count: count as u16,
        truth_count: count as u16,
        truth_complete: complete as u16,
    }
}

fn parse_class(name: &str) -> Result<ObjectClass, String> {
    ObjectClass::ALL
        .iter()
        .copied()
        .find(|c| c.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown target class '{name}'"))
}

impl StreamSpec {
    /// Resolve the spec into engine input. Socket specs pull the camera
    /// here — callers must not hold the session lock across this.
    pub fn resolve(self) -> Result<ResolvedStream, String> {
        match self {
            StreamSpec::Synthetic {
                frames,
                target_every,
                thresholds,
            } => {
                if frames == 0 || frames > MAX_TRACE_FRAMES {
                    return Err(format!("frames must be in 1..={MAX_TRACE_FRAMES}"));
                }
                let traces = (0..frames)
                    .map(|i| synthetic_trace(i, target_every > 0 && i % target_every == 0))
                    .collect();
                Ok(ResolvedStream {
                    input: StreamInput {
                        traces,
                        thresholds: thresholds.unwrap_or_else(synthetic_thresholds),
                    },
                    source_lost: false,
                })
            }
            StreamSpec::Inline { traces, thresholds } => {
                if traces.is_empty() || traces.len() > MAX_TRACE_FRAMES {
                    return Err(format!("traces must hold 1..={MAX_TRACE_FRAMES} frames"));
                }
                for (i, tr) in traces.iter().enumerate() {
                    if tr.seq != i as u64 {
                        return Err(format!(
                            "traces must be seq-numbered from 0 (index {i} has seq {})",
                            tr.seq
                        ));
                    }
                }
                Ok(ResolvedStream {
                    input: StreamInput { traces, thresholds },
                    source_lost: false,
                })
            }
            StreamSpec::Socket {
                addr,
                target,
                resume_at,
                retry_budget,
                backoff_ms,
                backoff_cap_ms,
                io_timeout_ms,
                thresholds,
            } => {
                let class = match target.as_deref() {
                    Some(name) => parse_class(name)?,
                    None => ObjectClass::Car,
                };
                let policy = ReconnectPolicy {
                    retry_budget,
                    backoff_ms,
                    backoff_cap_ms,
                };
                let mut src =
                    SocketSource::new(&addr, policy, Duration::from_millis(io_timeout_ms))
                        .resume_at(resume_at);
                let mut traces = Vec::new();
                while (traces.len() as u64) < MAX_SOCKET_FRAMES {
                    match src.next_frame() {
                        Some(lf) => traces.push(trace_from_truth(&lf, class)),
                        None => break,
                    }
                }
                let lost = src.lost();
                if traces.is_empty() {
                    return Err(if lost {
                        format!("camera {addr} unreachable within the reconnect budget")
                    } else {
                        format!("camera {addr} delivered no frames")
                    });
                }
                // the cluster renumbers per epoch window and expects
                // 0-based traces; a resumed pull restarts the numbering
                for (i, tr) in traces.iter_mut().enumerate() {
                    tr.seq = i as u64;
                }
                Ok(ResolvedStream {
                    input: StreamInput {
                        traces,
                        thresholds: thresholds.unwrap_or_else(synthetic_thresholds),
                    },
                    source_lost: lost,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// minimal HTTP/1.1 plumbing (std::net only)

struct Request {
    method: String,
    path: String,
    query: Option<String>,
    body: Vec<u8>,
}

#[derive(Debug)]
enum HttpError {
    /// Protocol violation — answer 400 and close.
    Malformed(&'static str),
    /// Socket died or timed out — just close.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Read one CRLF/LF-terminated line, bounded by [`MAX_LINE`].
fn read_line_bounded(r: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => break,
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(HttpError::Malformed("line too long"));
                }
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 request"))
}

/// Parse one request with hard caps on every dimension. Engine state is
/// never touched until the request has fully parsed.
fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let start = read_line_bounded(r)?;
    if start.is_empty() {
        return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    let mut parts = start.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("bad request line"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("bad HTTP version")),
    }
    if method.is_empty() || !target.starts_with('/') {
        return Err(HttpError::Malformed("bad request line"));
    }

    let mut content_length: usize = 0;
    for n in 0.. {
        if n > MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        let line = read_line_bounded(r)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("bad header"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::Malformed("body too large"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write one `Connection: close` response; errors only mean the client left.
fn respond(
    w: &mut impl Write,
    status: u16,
    body: &[u8],
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_reason(status),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

fn respond_json(
    w: &mut impl Write,
    status: u16,
    value: &impl Serialize,
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    let body = serde_json::to_vec(value).unwrap_or_else(|_| b"{}".to_vec());
    respond(w, status, &body, extra_headers)
}

fn error_body(msg: &str) -> serde_json::Value {
    serde_json::json!({ "error": msg })
}

// ---------------------------------------------------------------------------
// the daemon

/// Handles the daemon's serve-scope counters (registered on the session's
/// own telemetry, so `GET /telemetry` reports the ops surface too).
#[derive(Clone)]
struct ServeCounters {
    http_requests: Counter,
    http_bad_requests: Counter,
    streams_registered: Counter,
    streams_rejected: Counter,
    streams_dropped: Counter,
    telemetry_events: Counter,
    drains: Counter,
}

impl ServeCounters {
    fn register(tel: &Telemetry) -> Self {
        ServeCounters {
            http_requests: tel.counter("serve.http_requests"),
            http_bad_requests: tel.counter("serve.http_bad_requests"),
            streams_registered: tel.counter("serve.streams_registered"),
            streams_rejected: tel.counter("serve.streams_rejected"),
            streams_dropped: tel.counter("serve.streams_dropped"),
            telemetry_events: tel.counter("serve.telemetry_events"),
            drains: tel.counter("serve.drains"),
        }
    }
}

struct Shared {
    session: Mutex<ClusterSession>,
    draining: AtomicBool,
    /// What asked for the drain (for the report).
    drain_reason: Mutex<String>,
    counters: ServeCounters,
    telemetry: Telemetry,
}

impl Shared {
    fn request_drain(&self, reason: &str) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            *self.drain_reason.lock() = reason.to_string();
        }
    }
}

/// The resident daemon. Build with [`Daemon::start`], drive with
/// [`Daemon::run`]; request a drain from any thread (or a signal handler via
/// [`install_signal_drain`]) with [`Daemon::drain_handle`].
pub struct Daemon {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    state_dir: PathBuf,
    epoch_interval: Duration,
}

/// A clonable handle that can ask the daemon to drain.
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    pub fn drain(&self) {
        self.shared.request_drain("handle");
    }
}

/// Write `bytes` to `path` atomically (tmp + rename) so a crash mid-write
/// never leaves a torn manifest.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

impl Daemon {
    /// Bring the fleet up (fresh, or from a drained manifest with
    /// `cfg.resume`), bind the control socket, and record the bound address
    /// in `serve.addr`.
    pub fn start(sys: FfsVaConfig, cfg: ServeConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        // a resident daemon has no natural epoch horizon; the batch cap
        // would silently freeze the fleet after 1000 epochs
        let cluster_cfg = crate::cluster::ClusterConfig::new(cfg.instances, &cfg.state_dir)
            .with_epoch_frames(cfg.epoch_frames)
            .with_max_epochs(u64::MAX);
        let mut ctrl = Cluster::new(sys, cluster_cfg);
        if let Some(plan) = &cfg.fault_plan {
            ctrl = ctrl.with_fault_plan(plan);
        }
        if let Some(plan) = &cfg.source_plan {
            ctrl = ctrl.with_source_plan(plan);
        }
        let session = if cfg.resume {
            let path = cfg.state_dir.join(MANIFEST_FILE);
            let bytes = std::fs::read(&path).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("--resume: cannot read {}: {e}", path.display()),
                )
            })?;
            let manifest: SessionManifest = serde_json::from_slice(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
            ClusterSession::restore(ctrl, &manifest)?
        } else {
            ctrl.into_session()?
        };

        let telemetry = session.telemetry().clone();
        let counters = ServeCounters::register(&telemetry);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        write_atomic(
            &cfg.state_dir.join(ADDR_FILE),
            local_addr.to_string().as_bytes(),
        )?;

        Ok(Daemon {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                session: Mutex::new(session),
                draining: AtomicBool::new(false),
                drain_reason: Mutex::new("api".to_string()),
                counters,
                telemetry,
            }),
            state_dir: cfg.state_dir,
            epoch_interval: cfg.epoch_interval,
        })
    }

    /// Where the control API listens (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle other threads (tests, signal shims) use to trigger a drain.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until a drain is requested (API, handle, or installed signal),
    /// then drain: the in-flight epoch completes atomically, admission
    /// stops, the manifest and drain report are persisted, and the report
    /// is returned. Stream work advances one control epoch at a time in
    /// between accepts, paced by `epoch_interval`.
    pub fn run(&self) -> io::Result<DrainReport> {
        let mut last_step = Instant::now()
            .checked_sub(self.epoch_interval)
            .unwrap_or_else(Instant::now);
        loop {
            if signal_drain_requested() {
                self.shared.request_drain("signal");
            }
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((conn, _)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_conn(conn, &shared));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            if last_step.elapsed() >= self.epoch_interval {
                let mut session = self.shared.session.lock();
                let stepped = session.step()?;
                drop(session);
                last_step = Instant::now();
                if stepped {
                    continue; // work exists: step again without sleeping
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.drain()
    }

    /// Persist the session and report. Callable exactly once per run (the
    /// run loop exits into it); epochs already on disk stay authoritative.
    fn drain(&self) -> io::Result<DrainReport> {
        let session = self.shared.session.lock();
        let manifest = session.export_manifest();
        let manifest_path = self.state_dir.join(MANIFEST_FILE);
        let bytes = serde_json::to_vec_pretty(&manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
        write_atomic(&manifest_path, &bytes)?;
        let streams = (0..session.stream_count())
            .filter_map(|gid| session.status(gid))
            .collect();
        let report = DrainReport {
            schema_version: 1,
            epoch: session.epoch(),
            reason: self.shared.drain_reason.lock().clone(),
            streams,
            manifest: manifest_path.display().to_string(),
        };
        drop(session);
        let report_bytes = serde_json::to_vec_pretty(&report)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
        write_atomic(&self.state_dir.join(DRAIN_REPORT_FILE), &report_bytes)?;
        self.shared.counters.drains.inc();
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// request handling

fn handle_conn(conn: TcpStream, shared: &Shared) {
    let _ = conn.set_read_timeout(Some(CONN_DEADLINE));
    let _ = conn.set_write_timeout(Some(CONN_DEADLINE));
    let mut reader = BufReader::new(match conn.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    });
    let mut writer = conn;
    match read_request(&mut reader) {
        Ok(req) => {
            shared.counters.http_requests.inc();
            let _ = route(&req, &mut writer, shared);
        }
        Err(HttpError::Malformed(msg)) => {
            shared.counters.http_bad_requests.inc();
            let _ = respond_json(&mut writer, 400, &error_body(msg), &[]);
        }
        Err(HttpError::Io(_)) => {}
    }
}

fn route(req: &Request, w: &mut TcpStream, shared: &Shared) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond_json(w, 200, &serde_json::json!({"status": "ok"}), &[]),
        ("GET", ["readyz"]) => {
            if shared.draining.load(Ordering::SeqCst) {
                respond_json(w, 503, &serde_json::json!({"status": "draining"}), &[])
            } else {
                respond_json(w, 200, &serde_json::json!({"status": "ready"}), &[])
            }
        }
        ("GET", ["telemetry"]) => {
            let snapshot = shared.telemetry.snapshot();
            respond_json(w, 200, &snapshot, &[])
        }
        ("GET", ["telemetry", "stream"]) => stream_telemetry(req, w, shared),
        ("POST", ["streams"]) => register_stream(req, w, shared),
        ("GET", ["streams", id]) => {
            let Ok(gid) = id.parse::<usize>() else {
                return respond_json(w, 400, &error_body("bad stream id"), &[]);
            };
            match shared.session.lock().status(gid) {
                Some(status) => respond_json(w, 200, &status, &[]),
                None => respond_json(w, 404, &error_body("unknown stream"), &[]),
            }
        }
        ("GET", ["streams", id, "survivors"]) => {
            let Ok(gid) = id.parse::<usize>() else {
                return respond_json(w, 400, &error_body("bad stream id"), &[]);
            };
            let session = shared.session.lock();
            let Some(survivors) = session.survivors_of(gid) else {
                drop(session);
                return respond_json(w, 404, &error_body("unknown stream"), &[]);
            };
            let survivors: Vec<SurvivingFrame> = survivors.to_vec();
            drop(session);
            respond_json(w, 200, &survivors, &[])
        }
        ("DELETE", ["streams", id]) => {
            let Ok(gid) = id.parse::<usize>() else {
                return respond_json(w, 400, &error_body("bad stream id"), &[]);
            };
            let mut session = shared.session.lock();
            if session.status(gid).is_none() {
                drop(session);
                return respond_json(w, 404, &error_body("unknown stream"), &[]);
            }
            let removed = session.remove(gid);
            drop(session);
            if removed {
                shared.counters.streams_dropped.inc();
                respond_json(
                    w,
                    200,
                    &serde_json::json!({"id": gid, "state": "dropped"}),
                    &[],
                )
            } else {
                respond_json(w, 409, &error_body("stream already terminal"), &[])
            }
        }
        ("POST", ["drain"]) => {
            shared.request_drain("api");
            let epoch = shared.session.lock().epoch();
            respond_json(
                w,
                202,
                &serde_json::json!({"draining": true, "epoch": epoch}),
                &[],
            )
        }
        _ => respond_json(w, 404, &error_body("no such endpoint"), &[]),
    }
}

fn register_stream(req: &Request, w: &mut TcpStream, shared: &Shared) -> io::Result<()> {
    if shared.draining.load(Ordering::SeqCst) {
        return respond_json(w, 503, &error_body("draining"), &[]);
    }
    let spec: StreamSpec = match serde_json::from_slice(&req.body) {
        Ok(spec) => spec,
        Err(e) => {
            shared.counters.http_bad_requests.inc();
            return respond_json(w, 400, &error_body(&format!("bad stream spec: {e}")), &[]);
        }
    };
    // socket specs dial the camera here, outside the session lock
    let resolved = match spec.resolve() {
        Ok(r) => r,
        Err(msg) => {
            let status = if msg.contains("unreachable") {
                502
            } else {
                400
            };
            if status == 400 {
                shared.counters.http_bad_requests.inc();
            }
            return respond_json(w, status, &error_body(&msg), &[]);
        }
    };
    // a drain may have started while the camera was being pulled
    if shared.draining.load(Ordering::SeqCst) {
        return respond_json(w, 503, &error_body("draining"), &[]);
    }
    let mut session = shared.session.lock();
    let total = resolved.input.traces.len() as u64;
    let (gid, placement) = session.offer(resolved.input);
    let retry_after = session.admission_retry_after_s();
    drop(session);
    match placement {
        Placement::Admitted { instance } => {
            shared.counters.streams_registered.inc();
            respond_json(
                w,
                201,
                &serde_json::json!({
                    "id": gid,
                    "state": "running",
                    "instance": instance,
                    "total_frames": total,
                    "source_lost": resolved.source_lost,
                }),
                &[],
            )
        }
        Placement::Rejected => {
            shared.counters.streams_rejected.inc();
            respond_json(
                w,
                429,
                &serde_json::json!({
                    "id": gid,
                    "state": "rejected",
                    "retry_after_s": retry_after,
                }),
                &[("Retry-After", retry_after.to_string())],
            )
        }
    }
}

/// NDJSON change feed: emits the baseline snapshot, then only deltas, until
/// `max` events (query `?max=N`, default 32), a drain, or the client leaves.
fn stream_telemetry(req: &Request, w: &mut TcpStream, shared: &Shared) -> io::Result<()> {
    let max: u64 = req
        .query
        .as_deref()
        .and_then(|q| {
            q.split('&')
                .find_map(|kv| kv.strip_prefix("max="))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(32);
    write!(
        w,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    let mut feed = SnapshotFeed::new();
    let mut sent = 0u64;
    while sent < max {
        let event = feed.next_event(&shared.telemetry);
        match event {
            Some(ev) => {
                w.write_all(ndjson_line(&ev).as_bytes())?;
                w.flush()?;
                shared.counters.telemetry_events.inc();
                sent += 1;
            }
            None => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(FEED_POLL);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// signals

static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // store-only: async-signal-safe
    SIGNAL_DRAIN.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT into a drain request, checked by
/// [`Daemon::run`] every loop turn. No-op off Unix.
#[cfg(unix)]
pub fn install_signal_drain() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as usize);
        signal(SIGINT, on_signal as usize);
    }
}

#[cfg(not(unix))]
pub fn install_signal_drain() {}

/// Whether an installed signal has asked for a drain.
pub fn signal_drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req(text: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(text.as_bytes().to_vec()))
    }

    #[test]
    fn request_parser_enforces_every_cap() {
        let r = req("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.query.is_none());
        assert!(r.body.is_empty());

        let r = req("GET /telemetry/stream?max=3 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/telemetry/stream");
        assert_eq!(r.query.as_deref(), Some("max=3"));

        let r = req("POST /streams HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.body, b"abcd");

        assert!(matches!(
            req("GARBAGE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            req("GET /x SMTP/1.0\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        assert!(matches!(req(&long), Err(HttpError::Malformed(_))));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat(MAX_HEADERS + 2)
        );
        assert!(matches!(req(&many), Err(HttpError::Malformed(_))));
        let huge = format!(
            "POST /s HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(req(&huge), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn synthetic_spec_resolves_to_the_unit_test_trace_shape() {
        let spec = StreamSpec::Synthetic {
            frames: 16,
            target_every: 4,
            thresholds: None,
        };
        let r = spec.resolve().unwrap();
        assert!(!r.source_lost);
        assert_eq!(r.input.traces.len(), 16);
        assert_eq!(r.input.traces[0].tyolo_count, 1);
        assert_eq!(r.input.traces[1].tyolo_count, 0);
        assert_eq!(r.input.traces[4].truth_complete, 1);
        assert_eq!(r.input.thresholds, synthetic_thresholds());
        assert!(StreamSpec::Synthetic {
            frames: 0,
            target_every: 4,
            thresholds: None,
        }
        .resolve()
        .is_err());
    }

    #[test]
    fn synthetic_spec_honors_per_stream_thresholds() {
        // A registered (e.g. tuned) threshold set rides the spec instead of
        // being silently replaced by the defaults: t_pre above the synthetic
        // target probability means nothing can pass the SNM gate.
        let strict = StreamThresholds {
            delta_diff: 0.001,
            t_pre: 0.95,
            number_of_objects: 1,
        };
        let r = StreamSpec::Synthetic {
            frames: 16,
            target_every: 4,
            thresholds: Some(strict),
        }
        .resolve()
        .unwrap();
        assert_eq!(r.input.thresholds, strict);
        // and the JSON form (what POST /streams receives) carries it too
        let json = r#"{"kind":"synthetic","frames":8,
                       "thresholds":{"delta_diff":0.5,"t_pre":0.25,"number_of_objects":2}}"#;
        let spec: StreamSpec = serde_json::from_str(json).unwrap();
        let r = spec.resolve().unwrap();
        assert_eq!(r.input.thresholds.number_of_objects, 2);
        assert!((r.input.thresholds.t_pre - 0.25).abs() < 1e-6);
    }

    #[test]
    fn inline_spec_requires_zero_based_seq_numbering() {
        let mut traces: Vec<FrameTrace> = (0..4).map(|i| synthetic_trace(i, false)).collect();
        let ok = StreamSpec::Inline {
            traces: traces.clone(),
            thresholds: synthetic_thresholds(),
        };
        assert!(ok.resolve().is_ok());
        traces[2].seq = 7;
        let bad = StreamSpec::Inline {
            traces,
            thresholds: synthetic_thresholds(),
        };
        assert!(bad.resolve().is_err());
    }

    #[test]
    fn stream_specs_round_trip_as_tagged_json() {
        let json = r#"{"kind":"synthetic","frames":32}"#;
        let spec: StreamSpec = serde_json::from_str(json).unwrap();
        match spec {
            StreamSpec::Synthetic {
                frames,
                target_every,
                thresholds,
            } => {
                assert_eq!(frames, 32);
                assert_eq!(target_every, 8);
                assert!(thresholds.is_none());
            }
            other => panic!("wrong spec: {other:?}"),
        }
        let json = r#"{"kind":"socket","addr":"127.0.0.1:9","target":"person"}"#;
        let spec: StreamSpec = serde_json::from_str(json).unwrap();
        match spec {
            StreamSpec::Socket {
                addr,
                target,
                retry_budget,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:9");
                assert_eq!(target.as_deref(), Some("person"));
                assert_eq!(retry_budget, 4);
            }
            other => panic!("wrong spec: {other:?}"),
        }
        assert!(serde_json::from_str::<StreamSpec>(r#"{"kind":"laser"}"#).is_err());
    }
}

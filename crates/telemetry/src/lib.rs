//! `ffsva-telemetry` — lock-cheap pipeline metrics shared by both FFS-VA
//! execution engines.
//!
//! FFS-VA's contribution is pipeline *mechanics* — per-stage threads, bounded
//! feedback queues, the shared T-YOLO round-robin — so the observability
//! layer is organized around named per-stream/per-stage series:
//!
//! * [`Counter`] — monotonically increasing `u64` (frames in/out/dropped).
//! * [`Gauge`] — last value + high-water mark (queue depth).
//! * [`Histogram`] — fixed-bucket distribution (latency, depth-on-push).
//!
//! Handles are registered once through the [`Telemetry`] registry (the only
//! lock, taken at registration and snapshot time) and then updated with
//! relaxed atomics, so instrumentation is cheap enough to stay always-on in
//! the hot stage loops. [`TelemetrySnapshot`] freezes every series into
//! serializable `BTreeMap`s (deterministic JSON key order), and
//! [`PipelineDigest`] reduces a snapshot to a run's headline numbers.
//!
//! Both engines emit the **same series names** (DESIGN.md §Telemetry), which
//! is what makes a DES↔RT telemetry-conformance test possible: all counters
//! whose name contains `".frames_"` are deterministic frame counts and must
//! match exactly between engines for a fixed seed; names under the `des.` /
//! `rt.` prefixes are engine-private and excluded.
//!
//! ```
//! use ffsva_telemetry::{PipelineDigest, Telemetry, LATENCY_BOUNDS_US};
//!
//! let tel = Telemetry::new();
//! tel.counter("stream0.sdd.frames_in").add(900);
//! tel.counter("pipeline.frames_in").add(900);
//! tel.histogram("latency.e2e_us", LATENCY_BOUNDS_US).record(1500.0);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("stream0.sdd.frames_in"), 900);
//! let digest = PipelineDigest::from_snapshot(&snap, 1_000_000.0);
//! assert_eq!(digest.throughput_fps, 900.0);
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-tolerant lock: a thread that panicked while holding the registry
/// lock (e.g. an instrumented stage dying mid-registration) must not wedge
/// telemetry export for everyone else — the registry's invariants are
/// per-entry, so recovering the guard is always safe.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pipeline stages every engine reports on, in cascade order.
pub const STAGES: [&str; 4] = ["sdd", "snm", "tyolo", "reference"];

/// Histogram bounds (µs) for end-to-end and reference-path latencies:
/// exponential 50 µs … 100 s, overflow bucket beyond.
pub const LATENCY_BOUNDS_US: &[f64] = &[
    50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7,
    2e7, 5e7, 1e8,
];

/// Histogram bounds for queue depth observed at push time.
pub const DEPTH_BOUNDS: &[f64] = &[
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 128.0, 256.0, 1024.0,
];

/// Histogram bounds for SNM batch sizes actually formed.
pub const BATCH_BOUNDS: &[f64] = &[
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
];

// ---------------------------------------------------------------------------
// instruments

/// Monotonic counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (no-op sink).
    pub fn detached() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    last: AtomicU64,
    max: AtomicU64,
}

/// Gauge tracking the last set value and the high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    pub fn detached() -> Self {
        Self::default()
    }

    pub fn set(&self, v: u64) {
        self.0.last.store(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn last(&self) -> u64 {
        self.0.last.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    /// Ascending bucket upper bounds; one extra overflow bucket past the end.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bit patterns updated by CAS.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Fixed-bucket histogram (no allocation after registration, no locks).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram(Arc::new(HistInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    pub fn detached() -> Self {
        Self::with_bounds(LATENCY_BOUNDS_US)
    }

    /// Record one sample.
    pub fn record(&self, v: f64) {
        let i = self.0.bounds.partition_point(|&b| b < v);
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.0.sum_bits, |s| s + v);
        atomic_f64_update(&self.0.min_bits, |m| m.min(v));
        atomic_f64_update(&self.0.max_bits, |m| m.max(v));
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// registry

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metrics registry. Cloning shares the registry; handles returned by
/// the accessors are cheap to clone and update without touching the lock.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<Registry>>,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        lock_recovering(&self.inner)
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        lock_recovering(&self.inner)
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or register the histogram `name` with the given bucket bounds
    /// (bounds of an already-registered histogram win).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        lock_recovering(&self.inner)
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Freeze every registered series.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let g = lock_recovering(&self.inner);
        TelemetrySnapshot {
            counters: g
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: g
                .gauges
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            last: v.last(),
                            max: v.max(),
                        },
                    )
                })
                .collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, h)| {
                    let count = h.0.count.load(Ordering::Relaxed);
                    let (min, max) = if count == 0 {
                        (0.0, 0.0)
                    } else {
                        (
                            f64::from_bits(h.0.min_bits.load(Ordering::Relaxed)),
                            f64::from_bits(h.0.max_bits.load(Ordering::Relaxed)),
                        )
                    };
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: h.0.bounds.clone(),
                            buckets: h
                                .0
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count,
                            sum: f64::from_bits(h.0.sum_bits.load(Ordering::Relaxed)),
                            min,
                            max,
                        },
                    )
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// snapshots

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    pub last: u64,
    pub max: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimated from the buckets: the upper bound of
    /// the bucket holding the rank, clamped to the observed min/max (exact
    /// for integer-valued series whose bounds enumerate the small values).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let bound = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A frozen view of every registered series, serializable as stable JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All deterministic frame-count series: counters whose name contains
    /// `".frames_"`. This is the DES↔RT conformance domain — identical names
    /// *and* values are required between engines for a fixed seed.
    pub fn frames_counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(k, _)| k.contains(".frames_"))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Series names excluding the engine-private `des.` / `rt.` prefixes —
    /// the name set both engines must emit identically.
    pub fn conformant_names(&self) -> Vec<String> {
        let keep = |k: &&String| !k.starts_with("des.") && !k.starts_with("rt.");
        let mut names: Vec<String> = self.counters.keys().filter(keep).cloned().collect();
        names.extend(self.gauges.keys().filter(keep).cloned());
        names.extend(self.histograms.keys().filter(keep).cloned());
        names.sort();
        names
    }

    /// Sum of all counters ending in `.{stage}.{field}` (per-stream series
    /// aggregate here).
    pub fn stage_total(&self, stage: &str, field: &str) -> u64 {
        let suffix = format!(".{}.{}", stage, field);
        self.counters
            .iter()
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| *v)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// pre-wired instrument bundles

/// The deterministic per-stage frame accounting both engines share.
///
/// `frames_quarantined` counts frames disposed because their stage was
/// fault-quarantined (injected panic, or the supervisor's give-up drain);
/// it stays 0 on healthy runs but is registered unconditionally so the
/// DES↔RT conformance name set is identical with and without faults.
#[derive(Debug, Clone)]
pub struct StageTelemetry {
    pub frames_in: Counter,
    pub frames_out: Counter,
    pub frames_dropped: Counter,
    pub frames_quarantined: Counter,
}

impl StageTelemetry {
    /// Register `{scope}.frames_in/out/dropped/quarantined`
    /// (e.g. scope `stream0.sdd`).
    pub fn register(tel: &Telemetry, scope: &str) -> Self {
        StageTelemetry {
            frames_in: tel.counter(&format!("{}.frames_in", scope)),
            frames_out: tel.counter(&format!("{}.frames_out", scope)),
            frames_dropped: tel.counter(&format!("{}.frames_dropped", scope)),
            frames_quarantined: tel.counter(&format!("{}.frames_quarantined", scope)),
        }
    }

    /// Detached counters for uninstrumented callers.
    pub fn noop() -> Self {
        StageTelemetry {
            frames_in: Counter::detached(),
            frames_out: Counter::detached(),
            frames_dropped: Counter::detached(),
            frames_quarantined: Counter::detached(),
        }
    }
}

/// Supervision accounting for one supervised stage: restarts attempted,
/// give-ups (restart budget exhausted), and total backoff wall time. These
/// series are engine-private (`rt.` scopes) — the DES has no real restarts.
#[derive(Debug, Clone)]
pub struct SupervisorTelemetry {
    pub restarts: Counter,
    pub give_ups: Counter,
    pub backoff_ms: Counter,
}

impl SupervisorTelemetry {
    /// Register `{scope}.restarts/give_ups/backoff_ms`
    /// (e.g. scope `rt.supervisor.stream0.snm`).
    pub fn register(tel: &Telemetry, scope: &str) -> Self {
        SupervisorTelemetry {
            restarts: tel.counter(&format!("{}.restarts", scope)),
            give_ups: tel.counter(&format!("{}.give_ups", scope)),
            backoff_ms: tel.counter(&format!("{}.backoff_ms", scope)),
        }
    }

    /// Detached counters for unsupervised callers.
    pub fn noop() -> Self {
        SupervisorTelemetry {
            restarts: Counter::detached(),
            give_ups: Counter::detached(),
            backoff_ms: Counter::detached(),
        }
    }
}

/// Queue-level accounting: depth (gauge + at-push histogram), wall time a
/// producer spent blocked pushing (RT engines; the DES engine models stalls
/// in virtual time and leaves this 0), and backpressure events.
#[derive(Debug, Clone)]
pub struct QueueTelemetry {
    pub depth: Gauge,
    pub depth_on_push: Histogram,
    pub blocked_push_us: Counter,
    pub backpressure: Counter,
}

impl QueueTelemetry {
    /// Register `{scope}.depth`, `{scope}.depth_on_push`,
    /// `{scope}.blocked_push_us`, `{scope}.backpressure`
    /// (e.g. scope `queue.snm`).
    pub fn register(tel: &Telemetry, scope: &str) -> Self {
        QueueTelemetry {
            depth: tel.gauge(&format!("{}.depth", scope)),
            depth_on_push: tel.histogram(&format!("{}.depth_on_push", scope), DEPTH_BOUNDS),
            blocked_push_us: tel.counter(&format!("{}.blocked_push_us", scope)),
            backpressure: tel.counter(&format!("{}.backpressure", scope)),
        }
    }
}

/// Sharded stage-pool accounting (`rt.pool.*` scopes, engine-private): queue
/// depth across the pool's shards, work items a worker completed for a
/// foreign shard (steals), and the pool's busy fraction in basis points.
#[derive(Debug, Clone)]
pub struct PoolTelemetry {
    /// Total buffered work items across every shard (sampled by workers).
    pub queue_depth: Gauge,
    /// Work quanta executed by a worker outside its home shard.
    pub steal_count: Counter,
    /// Pool-wide busy percentage, 0–100 (set at pool shutdown from the
    /// accumulated busy-time / wall-time ratio).
    pub worker_busy_pct: Gauge,
}

impl PoolTelemetry {
    /// Register `{scope}.queue_depth/steal_count/worker_busy_pct`
    /// (e.g. scope `rt.pool.sdd`).
    pub fn register(tel: &Telemetry, scope: &str) -> Self {
        PoolTelemetry {
            queue_depth: tel.gauge(&format!("{}.queue_depth", scope)),
            steal_count: tel.counter(&format!("{}.steal_count", scope)),
            worker_busy_pct: tel.gauge(&format!("{}.worker_busy_pct", scope)),
        }
    }

    /// Detached instruments for uninstrumented pools.
    pub fn noop() -> Self {
        PoolTelemetry {
            queue_depth: Gauge::detached(),
            steal_count: Counter::detached(),
            worker_busy_pct: Gauge::detached(),
        }
    }
}

// ---------------------------------------------------------------------------
// snapshot feed

/// One emission from a [`SnapshotFeed`]: a monotonically numbered snapshot
/// plus the names of the series that changed since the previous emission.
///
/// `changed` is what lets a dashboard tail the feed cheaply — on most ticks
/// only a handful of counters moved, and an empty diff is never emitted
/// (the feed suppresses it), so the event stream is quiet when the system
/// is idle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FeedEvent {
    /// Event number, starting at 0 for the feed's first emission.
    pub seq: u64,
    /// Sorted names of counters/gauges/histograms that differ from the
    /// previously emitted snapshot (every name, on the first emission).
    pub changed: Vec<String>,
    /// The full frozen registry at emission time.
    pub snapshot: TelemetrySnapshot,
}

/// Change-detecting poller over a [`Telemetry`] registry, the engine behind
/// `GET /telemetry/stream`: each [`SnapshotFeed::next_event`] call snapshots
/// the registry and emits only if something moved since the last emission.
#[derive(Debug, Clone, Default)]
pub struct SnapshotFeed {
    last: Option<TelemetrySnapshot>,
    seq: u64,
}

impl SnapshotFeed {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the registry; `Some(event)` iff anything changed since the
    /// previously emitted event. The first poll always emits (baseline).
    pub fn next_event(&mut self, tel: &Telemetry) -> Option<FeedEvent> {
        let snap = tel.snapshot();
        let changed = match &self.last {
            None => {
                let mut names: Vec<String> = snap.counters.keys().cloned().collect();
                names.extend(snap.gauges.keys().cloned());
                names.extend(snap.histograms.keys().cloned());
                names.sort();
                names
            }
            Some(prev) => {
                if *prev == snap {
                    return None;
                }
                let mut names = Vec::new();
                for (k, v) in &snap.counters {
                    if prev.counters.get(k) != Some(v) {
                        names.push(k.clone());
                    }
                }
                for (k, v) in &snap.gauges {
                    if prev.gauges.get(k) != Some(v) {
                        names.push(k.clone());
                    }
                }
                for (k, v) in &snap.histograms {
                    if prev.histograms.get(k) != Some(v) {
                        names.push(k.clone());
                    }
                }
                names.sort();
                names
            }
        };
        let ev = FeedEvent {
            seq: self.seq,
            changed,
            snapshot: snap.clone(),
        };
        self.last = Some(snap);
        self.seq += 1;
        Some(ev)
    }
}

/// Render one feed event as a Server-Sent Events frame
/// (`id:` = event seq, `event: telemetry`, one `data:` line of JSON).
pub fn sse_frame(ev: &FeedEvent) -> String {
    let json = serde_json::to_string(ev).expect("feed event serializes");
    format!("id: {}\nevent: telemetry\ndata: {}\n\n", ev.seq, json)
}

/// Render one feed event as a newline-delimited-JSON line.
pub fn ndjson_line(ev: &FeedEvent) -> String {
    let mut json = serde_json::to_string(ev).expect("feed event serializes");
    json.push('\n');
    json
}

// ---------------------------------------------------------------------------
// digest

/// A run's headline numbers, as `ffsva analyze --telemetry` and
/// `ffsva simulate --telemetry` write them next to the full snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineDigest {
    /// Frames entering the pipeline per second of run time.
    pub throughput_fps: f64,
    /// Per-stage processing rate (frames entering the stage / run time).
    pub stage_fps: BTreeMap<String, f64>,
    /// Per-stage drop rate (dropped / entered; the reference stage drops 0).
    pub stage_drop_rate: BTreeMap<String, f64>,
    /// p99 of the queue depth observed at push time, per stage queue.
    pub queue_depth_p99: BTreeMap<String, f64>,
    pub latency_e2e_p50_us: f64,
    pub latency_e2e_p99_us: f64,
    pub latency_ref_p50_us: f64,
    pub latency_ref_p99_us: f64,
}

impl PipelineDigest {
    /// Reduce a snapshot to the gate metrics. `elapsed_us` is the run's
    /// makespan: virtual for the DES engine, wall time for the RT engine.
    pub fn from_snapshot(snap: &TelemetrySnapshot, elapsed_us: f64) -> Self {
        let elapsed = elapsed_us.max(1e-9);
        let mut stage_fps = BTreeMap::new();
        let mut stage_drop_rate = BTreeMap::new();
        let mut queue_depth_p99 = BTreeMap::new();
        for stage in STAGES {
            let frames_in = snap.stage_total(stage, "frames_in");
            let dropped = snap.stage_total(stage, "frames_dropped");
            stage_fps.insert(stage.to_string(), frames_in as f64 * 1e6 / elapsed);
            stage_drop_rate.insert(
                stage.to_string(),
                if frames_in == 0 {
                    0.0
                } else {
                    dropped as f64 / frames_in as f64
                },
            );
            let p99 = snap
                .histograms
                .get(&format!("queue.{}.depth_on_push", stage))
                .map(|h| h.quantile(0.99))
                .unwrap_or(0.0);
            queue_depth_p99.insert(stage.to_string(), p99);
        }
        let q = |name: &str, p: f64| {
            snap.histograms
                .get(name)
                .map(|h| h.quantile(p))
                .unwrap_or(0.0)
        };
        PipelineDigest {
            throughput_fps: snap.counter("pipeline.frames_in") as f64 * 1e6 / elapsed,
            stage_fps,
            stage_drop_rate,
            queue_depth_p99,
            latency_e2e_p50_us: q("latency.e2e_us", 0.5),
            latency_e2e_p99_us: q("latency.e2e_us", 0.99),
            latency_ref_p50_us: q("latency.ref_us", 0.5),
            latency_ref_p99_us: q("latency.ref_us", 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_register_and_update() {
        let tel = Telemetry::new();
        let c = tel.counter("a.frames_in");
        c.inc();
        c.add(4);
        // same name returns the same underlying cell
        assert_eq!(tel.counter("a.frames_in").get(), 5);
        let g = tel.gauge("queue.a.depth");
        g.set(3);
        g.set(1);
        assert_eq!(g.last(), 1);
        assert_eq!(g.max(), 3);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("a.frames_in"), 5);
        assert_eq!(snap.gauges["queue.a.depth"].max, 3);
    }

    #[test]
    fn histogram_buckets_quantiles_and_stats() {
        let tel = Telemetry::new();
        let h = tel.histogram("lat", &[10.0, 100.0, 1000.0]);
        for v in [
            5.0, 7.0, 50.0, 60.0, 70.0, 80.0, 500.0, 900.0, 5000.0, 9000.0,
        ] {
            h.record(v);
        }
        let snap = tel.snapshot();
        let hs = &snap.histograms["lat"];
        assert_eq!(hs.count, 10);
        assert_eq!(hs.buckets, vec![2, 4, 2, 2]);
        assert!((hs.mean() - 1567.2).abs() < 1e-9);
        assert_eq!(hs.min, 5.0);
        assert_eq!(hs.max, 9000.0);
        // p50 lands in the (10, 100] bucket -> bound 100
        assert_eq!(hs.quantile(0.5), 100.0);
        // p99+ lands in the overflow bucket -> observed max
        assert_eq!(hs.quantile(0.99), 9000.0);
        assert_eq!(hs.quantile(1.0), 9000.0);
        // q=0 clamps to min via the first bound
        assert_eq!(hs.quantile(0.0), 10.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let tel = Telemetry::new();
        let _ = tel.histogram("empty", DEPTH_BOUNDS);
        let hs = &tel.snapshot().histograms["empty"];
        assert_eq!(hs.count, 0);
        assert_eq!(hs.quantile(0.99), 0.0);
        assert_eq!(hs.mean(), 0.0);
        assert_eq!(hs.min, 0.0);
        assert_eq!(hs.max, 0.0);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let tel = Telemetry::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = tel.counter("hot.frames_in");
                let h = tel.histogram("hot.lat", LATENCY_BOUNDS_US);
                thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("hot.frames_in"), 40_000);
        assert_eq!(snap.histograms["hot.lat"].count, 40_000);
        assert_eq!(
            snap.histograms["hot.lat"].buckets.iter().sum::<u64>(),
            40_000
        );
    }

    #[test]
    fn snapshot_scopes_frames_and_conformance_domains() {
        let tel = Telemetry::new();
        tel.counter("stream0.sdd.frames_in").add(10);
        tel.counter("stream1.sdd.frames_in").add(20);
        tel.counter("stream0.sdd.frames_dropped").add(3);
        tel.counter("snm.batches").add(7);
        tel.counter("des.events_processed").add(99);
        tel.gauge("queue.sdd.depth").set(2);
        let snap = tel.snapshot();

        let frames = snap.frames_counters();
        assert_eq!(frames.len(), 3);
        assert!(frames.keys().all(|k| k.contains(".frames_")));
        assert_eq!(snap.stage_total("sdd", "frames_in"), 30);
        assert_eq!(snap.stage_total("sdd", "frames_dropped"), 3);

        let names = snap.conformant_names();
        assert!(names.contains(&"snm.batches".to_string()));
        assert!(names.contains(&"queue.sdd.depth".to_string()));
        assert!(!names.iter().any(|n| n.starts_with("des.")));
    }

    #[test]
    fn stage_and_queue_bundles_register_expected_names() {
        let tel = Telemetry::new();
        let st = StageTelemetry::register(&tel, "stream0.snm");
        st.frames_in.add(4);
        st.frames_out.add(3);
        st.frames_dropped.inc();
        let qt = QueueTelemetry::register(&tel, "queue.snm");
        qt.depth.set(5);
        qt.depth_on_push.record(5.0);
        qt.backpressure.inc();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("stream0.snm.frames_in"), 4);
        assert_eq!(snap.counter("stream0.snm.frames_out"), 3);
        assert_eq!(snap.counter("stream0.snm.frames_dropped"), 1);
        assert_eq!(snap.counter("queue.snm.backpressure"), 1);
        assert_eq!(snap.gauges["queue.snm.depth"].max, 5);
        assert_eq!(snap.histograms["queue.snm.depth_on_push"].count, 1);
        // noop bundle updates nothing registered
        let noop = StageTelemetry::noop();
        noop.frames_in.add(100);
        assert_eq!(tel.snapshot().counter("stream0.snm.frames_in"), 4);
    }

    #[test]
    fn supervisor_bundle_registers_expected_names() {
        let tel = Telemetry::new();
        let sup = SupervisorTelemetry::register(&tel, "rt.supervisor.stream0.snm");
        sup.restarts.inc();
        sup.restarts.inc();
        sup.give_ups.inc();
        sup.backoff_ms.add(30);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("rt.supervisor.stream0.snm.restarts"), 2);
        assert_eq!(snap.counter("rt.supervisor.stream0.snm.give_ups"), 1);
        assert_eq!(snap.counter("rt.supervisor.stream0.snm.backoff_ms"), 30);
        // supervision series are rt.-private: excluded from conformance
        assert!(snap.conformant_names().is_empty());
    }

    #[test]
    fn pool_bundle_registers_expected_names() {
        let tel = Telemetry::new();
        let pt = PoolTelemetry::register(&tel, "rt.pool.sdd");
        pt.queue_depth.set(12);
        pt.queue_depth.set(3);
        pt.steal_count.add(5);
        pt.worker_busy_pct.set(87);
        let snap = tel.snapshot();
        assert_eq!(snap.gauges["rt.pool.sdd.queue_depth"].max, 12);
        assert_eq!(snap.gauges["rt.pool.sdd.queue_depth"].last, 3);
        assert_eq!(snap.counter("rt.pool.sdd.steal_count"), 5);
        assert_eq!(snap.gauges["rt.pool.sdd.worker_busy_pct"].last, 87);
        // pool series are rt.-private: excluded from DES↔RT conformance
        assert!(snap.conformant_names().is_empty());
        // noop bundle updates nothing registered
        let noop = PoolTelemetry::noop();
        noop.steal_count.add(100);
        assert_eq!(tel.snapshot().counter("rt.pool.sdd.steal_count"), 5);
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let tel = Telemetry::new();
        tel.counter("a.frames_in").inc();
        // Poison the registry mutex: panic while holding it.
        let t2 = tel.clone();
        let _ = thread::spawn(move || {
            let _g = t2.inner.lock().unwrap();
            panic!("die holding the registry lock");
        })
        .join();
        // Registration and snapshot must both still work.
        tel.counter("a.frames_in").add(2);
        tel.counter("b.frames_in").inc();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("a.frames_in"), 3);
        assert_eq!(snap.counter("b.frames_in"), 1);
    }

    #[test]
    fn digest_reduces_snapshot_to_gate_metrics() {
        let tel = Telemetry::new();
        for (s, n_in, n_drop) in [
            ("sdd", 1000u64, 700u64),
            ("snm", 300, 150),
            ("tyolo", 150, 50),
        ] {
            tel.counter(&format!("stream0.{}.frames_in", s)).add(n_in);
            tel.counter(&format!("stream0.{}.frames_dropped", s))
                .add(n_drop);
        }
        tel.counter("stream0.reference.frames_in").add(100);
        tel.counter("pipeline.frames_in").add(1000);
        // `quantile` is nearest-rank: p99 of 100 samples is the 99th, so two
        // of them have to be high for p99 to read high
        let qh = tel.histogram("queue.snm.depth_on_push", DEPTH_BOUNDS);
        let lh = tel.histogram("latency.e2e_us", LATENCY_BOUNDS_US);
        for _ in 0..98 {
            qh.record(2.0);
            lh.record(900.0);
        }
        for _ in 0..2 {
            qh.record(8.0);
            lh.record(40_000.0);
        }

        let d = PipelineDigest::from_snapshot(&tel.snapshot(), 2_000_000.0);
        assert_eq!(d.throughput_fps, 500.0);
        assert_eq!(d.stage_fps["sdd"], 500.0);
        assert_eq!(d.stage_fps["reference"], 50.0);
        assert!((d.stage_drop_rate["sdd"] - 0.7).abs() < 1e-12);
        assert_eq!(d.stage_drop_rate["reference"], 0.0);
        assert_eq!(d.queue_depth_p99["snm"], 8.0);
        assert_eq!(d.queue_depth_p99["sdd"], 0.0);
        assert_eq!(d.latency_e2e_p50_us, 1e3);
        assert_eq!(d.latency_e2e_p99_us, 40_000.0);
    }

    #[test]
    fn snapshot_feed_emits_only_on_change_with_sorted_diffs() {
        let tel = Telemetry::new();
        tel.counter("serve.http_requests").add(2);
        tel.gauge("queue.sdd.depth").set(1);
        let mut feed = SnapshotFeed::new();

        // first poll: baseline event listing every series
        let ev0 = feed.next_event(&tel).expect("baseline emits");
        assert_eq!(ev0.seq, 0);
        assert_eq!(
            ev0.changed,
            vec![
                "queue.sdd.depth".to_string(),
                "serve.http_requests".to_string()
            ]
        );
        assert_eq!(ev0.snapshot.counter("serve.http_requests"), 2);

        // quiet registry: no event
        assert!(feed.next_event(&tel).is_none());

        // one counter moves + one new series registers: both named, sorted
        tel.counter("serve.http_requests").inc();
        tel.counter("cluster.epochs").inc();
        let ev1 = feed.next_event(&tel).expect("change emits");
        assert_eq!(ev1.seq, 1);
        assert_eq!(
            ev1.changed,
            vec![
                "cluster.epochs".to_string(),
                "serve.http_requests".to_string()
            ]
        );

        // wire formats: SSE frame fields and a parseable NDJSON line
        let frame = sse_frame(&ev1);
        assert!(frame.starts_with("id: 1\nevent: telemetry\ndata: {"));
        assert!(frame.ends_with("\n\n"));
        let line = ndjson_line(&ev1);
        assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
        let back: FeedEvent = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(back, ev1);
    }

    #[test]
    fn snapshot_json_roundtrip_is_stable() {
        let tel = Telemetry::new();
        tel.counter("stream0.sdd.frames_in").add(9);
        tel.gauge("queue.sdd.depth").set(2);
        tel.histogram("latency.e2e_us", &[10.0, 100.0]).record(42.0);
        let snap = tel.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}

//! Pieces the live workloads share: node options, the delivery ledger, the
//! quiescent frame-accounting check and the per-layer tally.

use crate::stamp::{self, Stamp};
use crate::stats::{hist_quantile, Summary};
use crate::trace::Recorder;
use netsim::SimDuration;
use obs::{LogHistogram, MetricsRegistry};
use srm::{Delivery, SourceId, SrmAgent};
use srm_transport::{NodeHandle, NodeOptions, TransportStats};
use std::collections::BTreeMap;
use std::time::Duration;

/// Pre-seeded one-way distance between members: request and repair timers
/// scale with it, standing in for a wide-area RTT of 20 ms on loopback.
pub const DIST_MS: u64 = 10;

/// A pass that has not delivered everything by then counts the rest as
/// failed.
pub const PASS_DEADLINE: Duration = Duration::from_secs(30);
/// Generator back-off when a poll finds little delivered.
pub const POLL_BACKOFF: Duration = Duration::from_micros(100);

/// One metrics registry per node in the traced run; none otherwise.
pub fn registries(traced: bool, n: usize) -> Vec<MetricsRegistry> {
    if traced {
        (0..n).map(|_| MetricsRegistry::new()).collect()
    } else {
        Vec::new()
    }
}

/// Options every live node gets: a seed derived from the workload seed,
/// distances pre-seeded to [`DIST_MS`] towards members `1..=members`, and
/// no periodic session messages, so that the timers keep that scale and a
/// node is idle once its ADUs are delivered. `reg` turns on the metrics
/// registry (traced run).
pub fn node_options(o: &mut NodeOptions, members: u64, seed: u64, reg: Option<&MetricsRegistry>) {
    o.seed = seed;
    o.session_enabled = false;
    o.metrics = reg.cloned();
    for peer in 1..=members {
        if SourceId(peer) != o.id {
            o.initial_distances
                .push((SourceId(peer), SimDuration::from_millis(DIST_MS)));
        }
    }
}

/// One receiver's deliveries of the stamped ADUs `base..base + n`.
pub struct Ledger {
    base: u64,
    seen: Vec<bool>,
    got: u64,
    wrong: u64,
    dups: u64,
}

impl Ledger {
    pub fn new(base: u64, n: u64) -> Self {
        Ledger {
            base,
            seen: vec![false; n as usize],
            got: 0,
            wrong: 0,
            dups: 0,
        }
    }

    /// Check one delivery: its stamp if it is intact, in range and new.
    pub fn check(&mut self, d: &Delivery) -> Option<Stamp> {
        let Some(s) = stamp::parse(&d.payload) else {
            self.wrong += 1;
            return None;
        };
        let Some(slot) = s
            .seq
            .checked_sub(self.base)
            .and_then(|i| self.seen.get_mut(i as usize))
        else {
            self.wrong += 1;
            return None;
        };
        if std::mem::replace(slot, true) {
            self.dups += 1;
            return None;
        }
        self.got += 1;
        Some(s)
    }

    /// Distinct intact deliveries so far.
    pub fn got(&self) -> u64 {
        self.got
    }

    pub fn complete(&self) -> bool {
        self.got == self.seen.len() as u64
    }

    pub fn dups(&self) -> u64 {
        self.dups
    }

    /// Missing, wrong and duplicated deliveries.
    pub fn failed(&self) -> u64 {
        (self.seen.len() as u64 - self.got) + self.wrong + self.dups
    }
}

/// Snapshot a node's counters once it is quiescent and check frame
/// accounting. A snapshot can race a flush in progress, so it is retried
/// after a reactor round-trip before a violation is reported.
pub fn accounted(node: &NodeHandle, who: &str, problems: &mut Vec<String>) -> TransportStats {
    let mut s = node.stats();
    for _ in 0..5 {
        node.ping(Duration::from_secs(2));
        s = node.stats();
        if s.frames_accounted() {
            return s;
        }
    }
    problems.push(format!("{who}: frame accounting broken: {s:?}"));
    s
}

/// Stage histograms read from node registries (seconds, or frames).
const HISTS: [&str; 7] = [
    "stage.queue_s",
    "stage.decode_s",
    "stage.handle_s",
    "stage.send_s",
    "batch.inbound_drain",
    "batch.recv_frames",
    "batch.send_frames",
];

/// Per-layer counts summed over every node and session of a run.
#[derive(Default)]
pub struct Tally {
    hists: BTreeMap<&'static str, LogHistogram>,
    pool_misses: u64,
    frames_sent: u64,
    frames_received: u64,
    inbound_overflow: u64,
    send_errors: u64,
    chaos_dropped: u64,
    requests: u64,
    repairs: u64,
    held_down: u64,
    gave_up: u64,
    recovery_ms: Vec<f64>,
    /// Duplicate deliveries seen by the generator.
    pub dups: u64,
    /// ADUs published.
    pub adus: u64,
}

impl Tally {
    pub fn registry(&mut self, reg: &MetricsRegistry) {
        for name in HISTS {
            self.hists
                .entry(name)
                .or_default()
                .merge(&reg.histogram(name).snapshot());
        }
        self.pool_misses += reg.counter("pool.misses").get();
    }

    pub fn stats(&mut self, s: &TransportStats) {
        self.frames_sent += s.frames_sent;
        self.frames_received += s.frames_received;
        self.inbound_overflow += s.inbound_overflow;
        self.send_errors += s.send_errors;
        self.chaos_dropped += s.chaos_dropped;
    }

    pub fn agent(&mut self, a: &SrmAgent) {
        let m = &a.metrics;
        self.requests += m.requests_sent;
        self.repairs += m.repairs_sent;
        self.held_down += m.requests_held_down;
        for r in m.recoveries.values() {
            self.gave_up += u64::from(r.gave_up);
            if let Some(d) = r.recovery_delay() {
                self.recovery_ms.push(d.as_secs_f64() * 1e3);
            }
        }
    }

    /// Write the per-layer metrics this tally covers.
    pub fn emit(
        mut self,
        tr: &Recorder,
        layers: &mut BTreeMap<&'static str, f64>,
        report: &mut Vec<String>,
    ) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut put = |k: &'static str, v: f64| {
            layers.insert(k, v);
        };
        for (name, p50, p99) in [
            (
                "runtime.exec",
                "runtime.exec_us.p50",
                Some("runtime.exec_us.p99"),
            ),
            (
                "runtime.take_delivered",
                "runtime.take_delivered_us.p50",
                None,
            ),
            ("hub.send", "hub.send_us.p50", Some("hub.send_us.p99")),
        ] {
            if let Some(s) = Summary::of(&mut tr.durations_us(name)) {
                put(p50, s.p50);
                if let Some(k) = p99 {
                    put(k, s.p99);
                }
                report.push(format!("{name}: {}", s.describe("us")));
            }
        }
        put(
            "runtime.frames_sent_per_adu",
            ratio(self.frames_sent, self.adus),
        );
        put("runtime.inbound_overflow", self.inbound_overflow as f64);
        put("runtime.send_errors", self.send_errors as f64);
        let q = |h: &BTreeMap<&str, LogHistogram>, name: &str, q: f64| {
            h.get(name).map_or(0.0, |h| hist_quantile(h, q))
        };
        for (hist, p50, p99) in [
            ("stage.queue_s", "stage.queue_us.p50", "stage.queue_us.p99"),
            (
                "stage.decode_s",
                "stage.decode_us.p50",
                "stage.decode_us.p99",
            ),
            (
                "stage.handle_s",
                "stage.handle_us.p50",
                "stage.handle_us.p99",
            ),
            ("stage.send_s", "stage.send_us.p50", "stage.send_us.p99"),
        ] {
            put(p50, q(&self.hists, hist, 0.5) * 1e6);
            put(p99, q(&self.hists, hist, 0.99) * 1e6);
        }
        put(
            "batch.inbound_drain.p50",
            q(&self.hists, "batch.inbound_drain", 0.5),
        );
        put(
            "batch.recv_frames.p50",
            q(&self.hists, "batch.recv_frames", 0.5),
        );
        put(
            "batch.send_frames.p50",
            q(&self.hists, "batch.send_frames", 0.5),
        );
        put(
            "pool.misses_per_frame",
            ratio(self.pool_misses, self.frames_received),
        );
        put("chaos.dropped", self.chaos_dropped as f64);
        put(
            "srm.requests_per_loss",
            ratio(self.requests, self.chaos_dropped),
        );
        put(
            "srm.repairs_per_loss",
            ratio(self.repairs, self.chaos_dropped),
        );
        put(
            "srm.held_down_per_loss",
            ratio(self.held_down, self.chaos_dropped),
        );
        put("srm.gave_up", self.gave_up as f64);
        put("srm.dup_deliveries", self.dups as f64);
        if let Some(s) = Summary::of(&mut self.recovery_ms) {
            put("srm.recovery_ms.p50", s.p50);
            put("srm.recovery_ms.p99", s.p99);
            report.push(format!(
                "srm recovery delay (RecoveryRecord): {}",
                s.describe("ms")
            ));
        }
        report.push(format!(
            "losses injected {}: requests {} ({:.3}/loss), repairs {} ({:.3}/loss), held down {}, gave up {}",
            self.chaos_dropped,
            self.requests,
            ratio(self.requests, self.chaos_dropped),
            self.repairs,
            ratio(self.repairs, self.chaos_dropped),
            self.held_down,
            self.gave_up
        ));
    }
}

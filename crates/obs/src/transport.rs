//! Typed transport-layer events: chaos actions, socket errors, reactor
//! supervision, and peer-liveness transitions.
//!
//! The recovery [`Recorder`](crate::Recorder) stream is ADU-keyed and pinned
//! by golden-trace files, so transport-level happenings (a frame eaten by the
//! chaos plan, a recv-thread respawn, a peer declared dead) get their own
//! event vocabulary and their own log.  A [`TransportLog`] follows the same
//! rules as the recovery recorder: disabled by default, a single branch when
//! off, and never touching protocol RNG or timers — enabling it cannot change
//! what the run does, only what is observed.
//!
//! [`Timeline`](crate::Timeline) merges transport records into the same
//! deterministic JSONL stream (transport lines sort just after same-instant
//! recovery events of the same member), and [`RunSummary`](crate::RunSummary)
//! renders a per-member transport table — but only when any transport events
//! exist, so simulator reports stay byte-identical.

use std::collections::VecDeque;
use std::fmt::Write as _;

use netsim::{SimDuration, SimTime};

use crate::event::fmt_time;

/// One transport-layer happening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEventKind {
    /// The chaos plan dropped an outgoing frame (Bernoulli or burst loss).
    ChaosDrop {
        /// Flow label of the dropped frame (data/request/repair/session...).
        flow: u32,
    },
    /// The chaos plan sent an extra copy of an outgoing frame.
    ChaosDuplicate {
        /// Flow label of the duplicated frame.
        flow: u32,
    },
    /// The chaos plan held an outgoing frame back in the delay queue.
    ChaosDelay {
        /// Flow label of the delayed frame.
        flow: u32,
        /// How long the frame was held before release.
        by: SimDuration,
    },
    /// The chaos plan flipped bits in an outgoing frame's header.
    ChaosCorrupt {
        /// Flow label of the corrupted frame.
        flow: u32,
    },
    /// A frame towards one destination was swallowed by an active
    /// blackhole/partition window.
    Blackholed {
        /// Flow label of the swallowed frame.
        flow: u32,
    },
    /// The recv loop hit a socket error.
    SocketError {
        /// `io::ErrorKind`-style label, e.g. `"connection reset"`.
        detail: String,
        /// Whether the supervisor classified it transient (retried) or fatal.
        transient: bool,
    },
    /// The supervisor respawned the recv thread after a panic or fatal error.
    RecvRespawn {
        /// 1-based respawn attempt number.
        attempt: u32,
    },
    /// The recv loop exited for good; `reason` explains why.
    RecvExit {
        /// Exit reason, e.g. `"shutdown"` or `"respawn budget exhausted"`.
        reason: String,
    },
    /// Multicast join failed and the node fell back to the unicast mesh.
    ModeFallback {
        /// Number of unicast peers in the fallback mesh.
        peers: u64,
    },
    /// An inbound datagram failed envelope/wire decoding.
    DecodeError {
        /// Decode failure class, e.g. `"truncated"` or `"length_mismatch"`.
        reason: String,
    },
    /// High-water marks of the reactor's queues, recorded once at reactor
    /// shutdown (live depths are registry gauges; this pins the peaks into
    /// the offline stream).
    QueueHighWater {
        /// Peak timer-wheel length over the reactor's lifetime.
        wheel: u64,
        /// Peak chaos DelayQueue length over the reactor's lifetime.
        delayq: u64,
    },
    /// A peer previously suspect/dead was heard from again.
    PeerAlive {
        /// The peer's member id.
        peer: u64,
    },
    /// A peer missed enough session intervals to be suspect.
    PeerSuspect {
        /// The peer's member id.
        peer: u64,
    },
    /// A peer missed enough session intervals to be declared dead.
    PeerDead {
        /// The peer's member id.
        peer: u64,
    },
    /// The durable ADU store was replayed after a restart: the member
    /// rejoined with its page catalog rebuilt from the write-ahead log.
    StoreRehydrate {
        /// ADU records recovered from the log.
        adus: u64,
        /// Log segments replayed.
        segments: u64,
        /// Bytes dropped from the log tail (torn or corrupt final record).
        truncated_bytes: u64,
    },
    /// A repair was served by reading the payload back from the durable
    /// store — the ADU had been evicted from (or never re-entered) RAM.
    StoreDiskRepair,
}

impl TransportEventKind {
    /// Stable snake_case name used in JSONL output and filters.
    pub fn name(&self) -> &'static str {
        match self {
            TransportEventKind::ChaosDrop { .. } => "chaos_drop",
            TransportEventKind::ChaosDuplicate { .. } => "chaos_duplicate",
            TransportEventKind::ChaosDelay { .. } => "chaos_delay",
            TransportEventKind::ChaosCorrupt { .. } => "chaos_corrupt",
            TransportEventKind::Blackholed { .. } => "blackholed",
            TransportEventKind::SocketError { .. } => "socket_error",
            TransportEventKind::RecvRespawn { .. } => "recv_respawn",
            TransportEventKind::RecvExit { .. } => "recv_exit",
            TransportEventKind::ModeFallback { .. } => "mode_fallback",
            TransportEventKind::DecodeError { .. } => "decode_error",
            TransportEventKind::QueueHighWater { .. } => "queue_high_water",
            TransportEventKind::PeerAlive { .. } => "peer_alive",
            TransportEventKind::PeerSuspect { .. } => "peer_suspect",
            TransportEventKind::PeerDead { .. } => "peer_dead",
            TransportEventKind::StoreRehydrate { .. } => "store_rehydrate",
            TransportEventKind::StoreDiskRepair => "store_disk_repair",
        }
    }

    /// Append this kind's detail fields as `,"k":v` JSON fragments.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        match self {
            TransportEventKind::ChaosDrop { flow }
            | TransportEventKind::ChaosDuplicate { flow }
            | TransportEventKind::ChaosCorrupt { flow }
            | TransportEventKind::Blackholed { flow } => {
                let _ = write!(out, ",\"flow\":{flow}");
            }
            TransportEventKind::ChaosDelay { flow, by } => {
                let _ = write!(out, ",\"flow\":{},\"by\":{}", flow, fmt_time(SimTime::ZERO + *by));
            }
            TransportEventKind::SocketError { detail, transient } => {
                let _ = write!(
                    out,
                    ",\"detail\":\"{}\",\"transient\":{}",
                    crate::json::escape(detail),
                    transient
                );
            }
            TransportEventKind::RecvRespawn { attempt } => {
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            TransportEventKind::RecvExit { reason } => {
                let _ = write!(out, ",\"reason\":\"{}\"", crate::json::escape(reason));
            }
            TransportEventKind::ModeFallback { peers } => {
                let _ = write!(out, ",\"peers\":{peers}");
            }
            TransportEventKind::DecodeError { reason } => {
                let _ = write!(out, ",\"reason\":\"{}\"", crate::json::escape(reason));
            }
            TransportEventKind::QueueHighWater { wheel, delayq } => {
                let _ = write!(out, ",\"wheel\":{wheel},\"delayq\":{delayq}");
            }
            TransportEventKind::PeerAlive { peer }
            | TransportEventKind::PeerSuspect { peer }
            | TransportEventKind::PeerDead { peer } => {
                let _ = write!(out, ",\"peer\":{peer}");
            }
            TransportEventKind::StoreRehydrate { adus, segments, truncated_bytes } => {
                let _ = write!(
                    out,
                    ",\"adus\":{adus},\"segments\":{segments},\"truncated_bytes\":{truncated_bytes}"
                );
            }
            TransportEventKind::StoreDiskRepair => {}
        }
    }
}

/// A captured transport event: timestamp + kind + log-local sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportRecord {
    /// Time on the node's clock axis the event occurred.
    pub at: SimTime,
    /// What happened.
    pub kind: TransportEventKind,
    /// Log-local sequence number (monotone per log).
    pub seq: u64,
}

/// Captures the transport event stream of one node.
///
/// Mirrors [`Recorder`](crate::Recorder): disabled by default, one branch
/// when off, sequence numbering survives drains, and
/// [`TransportLog::enable_bounded`] keeps a ring of the most recent events
/// with a dropped count for long live runs.
#[derive(Debug, Clone, Default)]
pub struct TransportLog {
    enabled: bool,
    /// `None` = unbounded; `Some(cap)` = ring of the most recent `cap`.
    cap: Option<usize>,
    seq: u64,
    events: VecDeque<TransportRecord>,
    dropped: u64,
}

impl TransportLog {
    /// A fresh, disabled log.
    pub fn new() -> Self {
        TransportLog::default()
    }

    /// Turn capture on, unbounded.  Events before the call are simply not
    /// captured.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.cap = None;
    }

    /// Turn capture on with a ring of the most recent `cap` events; evicted
    /// events are counted in [`TransportLog::dropped_events`].  A `cap` of 0
    /// records nothing.
    pub fn enable_bounded(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = Some(cap);
    }

    /// Is this log capturing events?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The ring capacity, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.cap
    }

    /// Number of events evicted from the ring since enabling.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events have been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Record one event.  No-op (single branch) when disabled.
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: TransportEventKind) {
        if !self.enabled {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if let Some(cap) = self.cap {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(TransportRecord { at, kind, seq });
    }

    /// Drain the captured events, keeping enabled-state and sequence counter
    /// (crash/restart cycles keep numbering monotone).
    pub fn take_events(&mut self) -> Vec<TransportRecord> {
        std::mem::take(&mut self.events).into()
    }

    /// Iterate the captured events without draining, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TransportRecord> {
        self.events.iter()
    }

    /// Merge another log's drained events into this one, restoring the global
    /// time order and re-stamping sequence numbers.  Used when a node keeps
    /// two capture points (e.g. the reactor and the agent) that must end up
    /// as one per-member stream.  In bounded mode the merged stream is
    /// trimmed back to capacity from the oldest end.
    pub fn absorb(&mut self, mut other: Vec<TransportRecord>) {
        if other.is_empty() {
            return;
        }
        let mut all: Vec<TransportRecord> = std::mem::take(&mut self.events).into();
        all.append(&mut other);
        // Stable by-time sort keeps same-instant events in their original
        // relative order within each source stream.
        all.sort_by_key(|e| e.at.as_nanos());
        if let Some(cap) = self.cap {
            if all.len() > cap {
                let excess = all.len() - cap;
                all.drain(..excess);
                self.dropped += excess as u64;
            }
        }
        for (i, e) in all.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        self.seq = all.len() as u64;
        self.events = all.into();
    }
}

/// Per-node transport counters, aggregated from a drained event stream —
/// one row of the RunSummary transport table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportSummary {
    /// Member id.
    pub member: u64,
    /// Frames dropped by the chaos plan (Bernoulli + burst loss).
    pub chaos_dropped: u64,
    /// Extra frame copies injected by the chaos plan.
    pub chaos_duplicated: u64,
    /// Frames held back in the delay queue.
    pub chaos_delayed: u64,
    /// Frames with chaos-flipped header bits.
    pub chaos_corrupted: u64,
    /// Per-destination frames swallowed by blackhole windows.
    pub blackholed: u64,
    /// Socket errors seen by the recv loop (transient + fatal).
    pub socket_errors: u64,
    /// Recv-thread respawns performed by the supervisor.
    pub respawns: u64,
    /// Inbound datagrams that failed envelope/wire decoding.
    pub decode_errors: u64,
    /// Peer transitions into the suspect state.
    pub peers_suspected: u64,
    /// Peer transitions into the dead state.
    pub peers_died: u64,
    /// Peak timer-wheel length over the reactor's lifetime.
    pub wheel_hw: u64,
    /// Peak chaos DelayQueue length over the reactor's lifetime.
    pub delayq_hw: u64,
    /// Repairs served by reading the durable store instead of RAM.
    pub disk_repairs: u64,
}

impl TransportSummary {
    /// A zeroed summary for `member`.
    pub fn new(member: u64) -> Self {
        TransportSummary { member, ..TransportSummary::default() }
    }

    /// Tally an event stream (borrowed or drained) into a summary row.
    pub fn from_events<'a, I>(member: u64, events: I) -> Self
    where
        I: IntoIterator<Item = &'a TransportRecord>,
    {
        let mut s = TransportSummary::new(member);
        for e in events {
            match &e.kind {
                TransportEventKind::ChaosDrop { .. } => s.chaos_dropped += 1,
                TransportEventKind::ChaosDuplicate { .. } => s.chaos_duplicated += 1,
                TransportEventKind::ChaosDelay { .. } => s.chaos_delayed += 1,
                TransportEventKind::ChaosCorrupt { .. } => s.chaos_corrupted += 1,
                TransportEventKind::Blackholed { .. } => s.blackholed += 1,
                TransportEventKind::SocketError { .. } => s.socket_errors += 1,
                TransportEventKind::RecvRespawn { .. } => s.respawns += 1,
                TransportEventKind::DecodeError { .. } => s.decode_errors += 1,
                TransportEventKind::PeerSuspect { .. } => s.peers_suspected += 1,
                TransportEventKind::PeerDead { .. } => s.peers_died += 1,
                TransportEventKind::QueueHighWater { wheel, delayq } => {
                    s.wheel_hw = s.wheel_hw.max(*wheel);
                    s.delayq_hw = s.delayq_hw.max(*delayq);
                }
                TransportEventKind::StoreDiskRepair => s.disk_repairs += 1,
                TransportEventKind::RecvExit { .. }
                | TransportEventKind::ModeFallback { .. }
                | TransportEventKind::PeerAlive { .. }
                | TransportEventKind::StoreRehydrate { .. } => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_captures_nothing() {
        let mut log = TransportLog::new();
        log.record(SimTime::ZERO, TransportEventKind::ChaosDrop { flow: 0 });
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn enabled_log_numbers_monotonically_across_drains() {
        let mut log = TransportLog::new();
        log.enable();
        log.record(SimTime::ZERO, TransportEventKind::ChaosDrop { flow: 0 });
        log.record(SimTime::ZERO, TransportEventKind::RecvRespawn { attempt: 1 });
        let evs = log.take_events();
        assert_eq!((evs[0].seq, evs[1].seq), (0, 1));
        log.record(SimTime::ZERO, TransportEventKind::PeerDead { peer: 3 });
        assert_eq!(log.events().next().unwrap().seq, 2);
    }

    #[test]
    fn bounded_log_keeps_most_recent_and_counts_drops() {
        let mut log = TransportLog::new();
        log.enable_bounded(2);
        for flow in 0..5 {
            log.record(SimTime::ZERO, TransportEventKind::ChaosDrop { flow });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped_events(), 3);
        let evs = log.take_events();
        assert_eq!((evs[0].seq, evs[1].seq), (3, 4));
    }

    #[test]
    fn bounded_absorb_trims_oldest() {
        let t = SimTime::from_nanos;
        let mut a = TransportLog::new();
        a.enable_bounded(2);
        a.record(t(10), TransportEventKind::ChaosDrop { flow: 0 });
        a.record(t(30), TransportEventKind::ChaosDrop { flow: 1 });
        a.absorb(vec![TransportRecord {
            at: t(20),
            kind: TransportEventKind::Blackholed { flow: 2 },
            seq: 0,
        }]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped_events(), 1, "the t=10 event was trimmed");
        let kinds: Vec<&'static str> = a.events().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["blackholed", "chaos_drop"]);
    }

    #[test]
    fn absorb_restores_time_order_and_reseqs() {
        let t = SimTime::from_nanos;
        let mut a = TransportLog::new();
        a.enable();
        a.record(t(10), TransportEventKind::ChaosDrop { flow: 0 });
        a.record(t(30), TransportEventKind::ChaosDrop { flow: 1 });
        let mut b = TransportLog::new();
        b.enable();
        b.record(t(20), TransportEventKind::DecodeError { reason: "truncated".into() });
        a.absorb(b.take_events());
        let evs: Vec<&TransportRecord> = a.events().collect();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[1].kind.name(), "decode_error");
        assert_eq!((evs[0].seq, evs[1].seq, evs[2].seq), (0, 1, 2));
    }

    #[test]
    fn summary_tallies_kinds() {
        let t = SimTime::from_nanos;
        let mut log = TransportLog::new();
        log.enable();
        log.record(t(1), TransportEventKind::ChaosDrop { flow: 0 });
        log.record(t(2), TransportEventKind::ChaosDrop { flow: 3 });
        log.record(t(3), TransportEventKind::Blackholed { flow: 2 });
        log.record(t(4), TransportEventKind::PeerSuspect { peer: 2 });
        log.record(t(5), TransportEventKind::PeerDead { peer: 2 });
        log.record(t(6), TransportEventKind::PeerAlive { peer: 2 });
        let s = TransportSummary::from_events(9, log.events());
        assert_eq!(s.member, 9);
        assert_eq!(s.chaos_dropped, 2);
        assert_eq!(s.blackholed, 1);
        assert_eq!(s.peers_suspected, 1);
        assert_eq!(s.peers_died, 1);
    }

    #[test]
    fn summary_takes_max_of_high_water_events() {
        let t = SimTime::from_nanos;
        let mut log = TransportLog::new();
        log.enable();
        log.record(t(1), TransportEventKind::QueueHighWater { wheel: 10, delayq: 2 });
        log.record(t(2), TransportEventKind::QueueHighWater { wheel: 7, delayq: 5 });
        let s = TransportSummary::from_events(1, log.events());
        assert_eq!(s.wheel_hw, 10);
        assert_eq!(s.delayq_hw, 5);
    }
}

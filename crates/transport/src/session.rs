//! The session core shared by `srm-node` and `srm-hub`.
//!
//! The paper's sessions are light-weight (§I) because all per-session
//! state is small: an agent, its timers, its RNG and its peers. This module
//! holds that state exactly once, whatever process hosts it:
//!
//! - [`Session`]: one agent with its [`TimerWheel`], seeded RNG, envelope
//!   source id, receive sequence, [`Mode`], joined groups and send
//!   filters (quota, [`ChaosState`]). It owns the single [`srm::Driver`]
//!   implementation, so every agent entry point — start, packet, timer,
//!   exec — goes through [`Session::drive`].
//! - [`Tx`]: one send half over one socket. Every logical send encodes once
//!   into a pooled slab, fans out per destination through the filters, and
//!   goes out in batched syscalls at [`Tx::flush`].
//! - [`run_reactor`]: the one reactor loop, generic over a [`Host`]. A node
//!   hosts one session on its own socket; a hub shard hosts a map of
//!   sessions on a clone of the hub's socket.
//! - [`run_recv`]: the one supervised receive loop, handing every received
//!   buffer to a sink (the node's reactor channel, or the hub's demux).
//!
//! ## Send filters and frame accounting
//!
//! A logical send meets the filters in one fixed order: the quota token
//! bucket, then the chaos verdict ([`ChaosState::filter`]), then — per
//! destination — the plan's RNG-free blackhole windows and drop-nth rules.
//! A group-scoped plan applies none of its rules to other groups' frames.
//! Every chaos action is counted and logged where it is decided. Quota and
//! the verdict act before the fan-out and are counted on their own; every
//! per-destination attempt is counted exactly once:
//!
//! ```text
//! frames_attempted == frames_sent + frames_dropped + blackholed + send_errors
//! ```
//!
//! A frame too large for the envelope's length field is refused at encode
//! and counted as one send error per destination, so the invariant holds
//! and nothing panics.

use crate::batch::{make_backend, BatchOptions, BatchSocket, RecvFrame, SendFrame};
use crate::chaos::{ChaosPlan, ChaosState};
use crate::clock::WallClock;
use crate::envelope::{Envelope, EnvelopeError, EnvelopeView, HEADER_LEN, MAX_PAYLOAD};
use crate::pool::{BufferPool, PoolBuf};
use crate::runtime::Mode;
use crate::supervise::{
    run_supervised, ExitReason, StepOutcome, SupervisePolicy, SupervisionEvent,
};
use crate::wheel::TimerWheel;
use bytes::Bytes;
use netsim::{
    GroupId, NodeId, Packet, PacketBody, PacketId, SendOptions, SimDuration, SimTime, TimerId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srm::rate::TokenBucket;
use srm::{Clock, Driver, SrmAgent, Transport};
use std::collections::BTreeSet;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Receive-slab size: one max-size UDP datagram, so batching can never
/// truncate a frame.
pub(crate) const MAX_DATAGRAM: usize = 64 * 1024;

/// Initial size of the send-side encode slabs. SRM control traffic and
/// framed data fit comfortably; a larger encode grows its slab once and
/// the grown slab recycles at the new size.
const TX_SLAB_BYTES: usize = 2048;

/// How long a reactor sleeps when nothing is scheduled. Purely a
/// responsiveness bound — channel events wake it immediately.
const IDLE_WAIT: Duration = Duration::from_millis(250);

/// Read timeout on a receive thread's socket, bounding shutdown latency.
const RECV_POLL: Duration = Duration::from_millis(25);

/// Flow-kind labels indexed by [`flow_slot`]; the last slot collects flows
/// outside the four the protocol defines.
const FLOW_KINDS: [&str; 5] = ["data", "request", "repair", "session", "other"];

/// Map a wire flow label to a `FLOW_KINDS` slot.
fn flow_slot(flow: u32) -> usize {
    (flow as usize).min(FLOW_KINDS.len() - 1)
}

/// The atomic counters behind both `TransportStats` (one node) and
/// `HubStats` (one hub, shared by its demux thread and every shard).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub frames_attempted: AtomicU64,
    pub frames_sent: AtomicU64,
    pub frames_dropped: AtomicU64,
    pub frames_received: AtomicU64,
    pub blackholed: AtomicU64,
    pub send_errors: AtomicU64,
    pub chaos_dropped: AtomicU64,
    pub chaos_duplicated: AtomicU64,
    pub chaos_delayed: AtomicU64,
    pub chaos_corrupted: AtomicU64,
    pub decode_errors: AtomicU64,
    pub recv_transient_errors: AtomicU64,
    pub recv_respawns: AtomicU64,
    pub recv_deaths: AtomicU64,
    pub mode_fallbacks: AtomicU64,
    pub inbound_overflow: AtomicU64,
    pub rx_unjoined_group: AtomicU64,
    pub demux_splits: AtomicU64,
    pub max_wheel_len: AtomicU64,
    pub max_delayq_len: AtomicU64,
}

/// Add `n` to a shared counter.
pub(crate) fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

/// Which shared counter a registry mirror reads.
pub(crate) type Field = fn(&Counters) -> &AtomicU64;

/// Registry counters mirroring shared [`Counters`]. Every source is
/// cumulative, so `set_total` keeps the mirrors monotone (snapshot deltas
/// stay restart-aware).
pub(crate) struct Mirrors(Vec<(obs::Counter, Field)>);

impl Mirrors {
    pub(crate) fn new(reg: &obs::MetricsRegistry, fields: &[(&str, Field)]) -> Self {
        Mirrors(fields.iter().map(|&(name, f)| (reg.counter(name), f)).collect())
    }

    pub(crate) fn refresh(&self, c: &Counters) {
        for (mirror, field) in &self.0 {
            mirror.set_total(field(c).load(Ordering::Relaxed));
        }
    }
}

/// The frames one received buffer carries: a plain datagram (`seg == 0`)
/// is one frame; a GRO-coalesced buffer splits at `seg`-byte boundaries,
/// the last frame possibly shorter. Always yields at least one chunk, so
/// an empty buffer is still seen (and counted) once as undecodable. The
/// envelope length field re-validates every chunk, so a mis-sliced
/// boundary surfaces as a decode error, never a bad frame.
pub(crate) fn gro_segments(data: &[u8], seg: u32) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
    let stride = match seg as usize {
        0 => data.len().max(1),
        s => s,
    };
    let n = data.len().div_ceil(stride).max(1);
    (0..n).map(move |i| &data[(i * stride).min(data.len())..((i + 1) * stride).min(data.len())])
}

/// Registry handles for the send path; `None` on [`Tx`] costs one branch.
struct TxMetrics {
    /// Logical multicasts by flow kind (pre fan-out; the per-destination
    /// totals live in `frames.*`).
    tx: [obs::Counter; 5],
    /// Encode + fan-out time per logical multicast.
    stage_send: obs::Histo,
    /// Frames per send syscall at flush time.
    batch_send: obs::Histo,
}

/// Registry handles for the receive side of [`run_reactor`]; a reactor
/// without a registry passes `None`.
pub(crate) struct RxProbes {
    /// Frames handed to a session, by flow kind.
    rx: [obs::Counter; 5],
    /// recv-thread capture → reactor dequeue.
    queue: obs::Histo,
    /// Reactor dequeue → envelope decoded.
    decode: obs::Histo,
    /// Session handling time per inbound frame (filter, packet, agent).
    handle: obs::Histo,
    /// Channel events handled per reactor wakeup (the coalescing window).
    drain: obs::Histo,
}

impl RxProbes {
    pub(crate) fn new(reg: &obs::MetricsRegistry) -> Self {
        RxProbes {
            rx: FLOW_KINDS.map(|k| reg.counter(&format!("rx.frames.{k}"))),
            queue: reg.histogram("stage.queue_s"),
            decode: reg.histogram("stage.decode_s"),
            handle: reg.histogram("stage.handle_s"),
            drain: reg.histogram("batch.inbound_drain"),
        }
    }
}

/// One encoded frame queued for the next flush.
struct PendingFrame {
    dest: SocketAddr,
    /// `Some(ttl)` in multicast mode: the flush sets the socket's multicast
    /// TTL per run of equal values. `None` on a mesh.
    ttl: Option<u8>,
    /// The encoded envelope, shared (not copied) across the fan-out.
    data: Arc<PoolBuf>,
}

/// The send half of one reactor, shared by every session it hosts: a
/// batched sender with pooled encode slabs and a per-wakeup flush queue,
/// plus the reactor's clock, counters and transport event log.
pub(crate) struct Tx {
    /// Kept alongside the batched backend for socket options
    /// (`set_multicast_ttl_v4`, `join_multicast_v4`).
    socket: UdpSocket,
    batch: Box<dyn BatchSocket>,
    pub(crate) clock: WallClock,
    pub(crate) counters: Arc<Counters>,
    /// Reactor-side transport events: blackholes, send and decode errors,
    /// supervision events forwarded from the receive thread.
    pub(crate) log: obs::TransportLog,
    /// Recycled encode slabs: steady-state sending allocates nothing per
    /// datagram (dropping a flushed frame returns its slab).
    pub(crate) pool: BufferPool,
    queue: Vec<PendingFrame>,
    results: Vec<io::Result<()>>,
    /// Frames per send syscall (from [`BatchOptions::send_batch`]).
    max_batch: usize,
    metrics: Option<TxMetrics>,
    /// Prefix for stderr lines (`srm-node[1]`, `srm-hub[shard 0]`).
    pub(crate) name: String,
    decode_fails: u64,
    unjoined: u64,
}

impl Tx {
    /// A send half on `socket`, batching its sends through `send_sock`
    /// (a clone of it). Built on the reactor thread, so its slab pool is
    /// allocated where it is used.
    pub(crate) fn new(
        socket: UdpSocket,
        send_sock: UdpSocket,
        batch: &BatchOptions,
        clock: WallClock,
        counters: Arc<Counters>,
        metrics: Option<&obs::MetricsRegistry>,
        name: String,
    ) -> Tx {
        Tx {
            batch: make_backend(send_sock, batch),
            socket,
            clock,
            counters,
            log: obs::TransportLog::new(),
            pool: BufferPool::new(batch.pool_slabs, TX_SLAB_BYTES),
            queue: Vec::new(),
            results: Vec::new(),
            max_batch: batch.send_batch.clamp(1, crate::batch::MAX_BATCH),
            metrics: metrics.map(|r| TxMetrics {
                tx: FLOW_KINDS.map(|k| r.counter(&format!("tx.frames.{k}"))),
                stage_send: r.histogram("stage.send_s"),
                batch_send: r.histogram("batch.send_frames"),
            }),
            name,
            decode_fails: 0,
            unjoined: 0,
        }
    }

    /// Encode once into a pooled slab; `None` when the payload cannot fit
    /// the envelope's u16 length field.
    fn encode(&mut self, env: Envelope) -> Option<Arc<PoolBuf>> {
        if env.payload.len() > MAX_PAYLOAD {
            return None;
        }
        let mut buf = self.pool.try_take().unwrap_or_else(|| {
            self.pool.note_miss();
            PoolBuf::copied_from(&[])
        });
        env.encode_into(&mut buf);
        Some(Arc::new(buf))
    }

    /// Push every queued frame to the socket in batched syscalls, settling
    /// `frames_sent`/`send_errors` per destination and logging each error.
    /// Runs of equal multicast TTL share one `set_multicast_ttl_v4` call.
    pub(crate) fn flush(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let now = self.clock.now();
        let queue = std::mem::take(&mut self.queue);
        for run in queue.chunk_by(|a, b| a.ttl == b.ttl) {
            if let Some(t) = run[0].ttl {
                let _ = self.socket.set_multicast_ttl_v4(u32::from(t));
            }
            for chunk in run.chunks(self.max_batch) {
                let frames: Vec<SendFrame<'_>> =
                    chunk.iter().map(|p| SendFrame { dest: p.dest, data: &p.data }).collect();
                self.results.clear();
                self.batch.send_batch(&frames, &mut self.results);
                if let Some(m) = &self.metrics {
                    m.batch_send.record(frames.len() as f64);
                }
                for (p, r) in chunk.iter().zip(self.results.iter()) {
                    match r {
                        Ok(()) => bump(&self.counters.frames_sent, 1),
                        Err(e) => {
                            bump(&self.counters.send_errors, 1);
                            self.log.record(
                                now,
                                obs::TransportEventKind::SocketError {
                                    detail: format!("send_to {}: {e}", p.dest),
                                    transient: crate::supervise::classify(e.kind())
                                        == crate::supervise::ErrorClass::Transient,
                                },
                            );
                        }
                    }
                }
            }
        }
        // Reclaim the queue's allocation; dropping the contents returns
        // the encode slabs to the pool.
        self.queue = queue;
        self.queue.clear();
    }

    /// Count (and sample to stderr) a datagram that failed to decode.
    fn undecodable(&mut self, e: EnvelopeError) {
        bump(&self.counters.decode_errors, 1);
        self.log.record(
            self.clock.now(),
            obs::TransportEventKind::DecodeError { reason: e.label().to_string() },
        );
        self.decode_fails += 1;
        // The first few in full, then one per 256: a corruption storm
        // cannot flood stderr.
        if self.decode_fails <= 5 || self.decode_fails.is_multiple_of(256) {
            eprintln!(
                "{}: rejected undecodable datagram ({e}); {} total",
                self.name, self.decode_fails
            );
        }
    }

    /// Count (and sample to stderr) a well-formed frame for a group no
    /// session here has joined — almost always a misconfigured peer, or a
    /// hub group that was never created.
    /// Count and log one chaos action at the point it is decided.
    fn chaos_action(&mut self, at: SimTime, kind: obs::TransportEventKind) {
        use obs::TransportEventKind as K;
        let c = &self.counters;
        let counter = match &kind {
            K::ChaosDrop { .. } => &c.chaos_dropped,
            K::ChaosCorrupt { .. } => &c.chaos_corrupted,
            K::ChaosDelay { .. } => &c.chaos_delayed,
            K::ChaosDuplicate { .. } => &c.chaos_duplicated,
            other => unreachable!("not a chaos action: {other:?}"),
        };
        bump(counter, 1);
        self.log.record(at, kind);
    }

    fn unjoined(&mut self, env: &EnvelopeView<'_>) {
        bump(&self.counters.rx_unjoined_group, 1);
        self.unjoined += 1;
        if self.unjoined <= 5 || self.unjoined.is_multiple_of(1024) {
            eprintln!(
                "{}: dropping frame from {} for unjoined group {} ({} total) — \
                 sender misconfigured, or group not created here",
                self.name, env.src, env.group, self.unjoined
            );
        }
    }
}

/// A session's token bucket (§III-E) and the frames it refused.
pub(crate) struct Quota {
    pub bucket: TokenBucket,
    pub refused: u64,
}

/// The per-session state the driver borrows for one agent entry point.
pub(crate) struct Core {
    pub wheel: TimerWheel,
    rng: StdRng,
    /// The member id the agent runs as, as it appears in envelopes.
    pub src: u32,
    pub mode: Mode,
    pub joined: BTreeSet<GroupId>,
    /// Unicast peers to degrade to if a multicast join fails.
    pub fallback_peers: Vec<SocketAddr>,
    /// The chaos plan on this session's sends, with its own seeded RNG.
    pub chaos: Option<ChaosState>,
    /// Logical multicasts that reached the fan-out.
    pub tx_frames: u64,
}

impl Core {
    /// Encode once and fan out per destination through the chaos plan's
    /// blackhole windows and drop-nth rules. Chaos-held frames re-enter
    /// here on release.
    fn fan_out(
        &mut self,
        tx: &mut Tx,
        now: SimTime,
        group: GroupId,
        payload: Bytes,
        opts: SendOptions,
    ) {
        if opts.ttl == 0 {
            // A zero-TTL datagram never leaves the host.
            return;
        }
        self.tx_frames += 1;
        let wire = tx.encode(Envelope {
            src: self.src,
            group: group.0,
            ttl: opts.ttl,
            initial_ttl: opts.ttl,
            admin_scoped: opts.admin_scoped,
            flow: opts.flow,
            payload,
        });
        // One per-destination attempt: the single place every outgoing
        // frame's fate is decided and counted.
        let flow = opts.flow;
        let mut chaos = self.chaos.as_mut().filter(|c| c.plan.applies_to(group));
        let mut attempt = |dest: SocketAddr, rule_dest: Option<SocketAddr>, ttl: Option<u8>| {
            bump(&tx.counters.frames_attempted, 1);
            if chaos.as_ref().is_some_and(|c| c.plan.blackholed(now, rule_dest)) {
                bump(&tx.counters.blackholed, 1);
                tx.log.record(now, obs::TransportEventKind::Blackholed { flow });
            } else if chaos.as_mut().is_some_and(|c| c.drops_nth(flow, rule_dest)) {
                bump(&tx.counters.frames_dropped, 1);
            } else if let Some(data) = &wire {
                tx.queue.push(PendingFrame { dest, ttl, data: Arc::clone(data) });
            } else {
                // Refused at encode: settled here, as a send error.
                bump(&tx.counters.send_errors, 1);
                let detail = format!("send_to {dest}: {}", EnvelopeError::Oversized);
                let kind = obs::TransportEventKind::SocketError { detail, transient: false };
                tx.log.record(now, kind);
            }
        };
        match &self.mode {
            Mode::Mesh { peers } => peers.iter().for_each(|&p| attempt(p, Some(p), None)),
            Mode::Multicast { base } => {
                attempt(SocketAddr::V4(Mode::group_addr(*base, group)), None, Some(opts.ttl))
            }
        }
        if let Some(m) = &tx.metrics {
            m.tx[flow_slot(opts.flow)].inc();
            m.stage_send.record(tx.clock.now().since(now).as_secs_f64());
        }
    }

    fn join(&mut self, tx: &mut Tx, group: GroupId) {
        if !self.joined.insert(group) {
            return;
        }
        let Mode::Multicast { base } = self.mode else {
            return;
        };
        let addr = Mode::group_addr(base, group);
        let Err(e) = tx.socket.join_multicast_v4(addr.ip(), &Ipv4Addr::UNSPECIFIED) else {
            return;
        };
        let now = tx.clock.now();
        if self.fallback_peers.is_empty() {
            // No mesh to fall back to: log and stay in multicast mode
            // (other joins may still succeed).
            tx.log.record(
                now,
                obs::TransportEventKind::SocketError {
                    detail: format!("join group {}: {e}", group.0),
                    transient: false,
                },
            );
            eprintln!(
                "{}: multicast join for group {} failed ({e}); no fallback peers",
                tx.name, group.0
            );
        } else {
            // Degrade to the unicast mesh for *all* traffic: one fan-out
            // path keeps the group-delivery model coherent.
            let peers = std::mem::take(&mut self.fallback_peers);
            bump(&tx.counters.mode_fallbacks, 1);
            tx.log.record(now, obs::TransportEventKind::ModeFallback { peers: peers.len() as u64 });
            eprintln!(
                "{}: multicast join for group {} failed ({e}); \
                 falling back to a unicast mesh of {} peers",
                tx.name,
                group.0,
                peers.len()
            );
            self.mode = Mode::Mesh { peers };
        }
    }
}

/// One hosted SRM session: an agent plus everything a reactor keeps for
/// it. A node runs one; a hub shard runs one per hosted group.
pub(crate) struct Session {
    pub agent: SrmAgent,
    pub core: Core,
    pub quota: Option<Quota>,
    rx_seq: u64,
    /// Frames handed to the agent (post filtering).
    pub rx_frames: u64,
    /// `Some(n)`: deliveries are counted into `n` and discarded after
    /// every agent call (the hub has no application to hand them to).
    /// `None`: they queue for the application's `take_delivered`.
    pub delivered: Option<u64>,
}

impl Session {
    /// A session for `agent` with its timer RNG seeded by `seed`, sending
    /// as `src` through `mode`, with no send filters.
    pub(crate) fn new(agent: SrmAgent, src: u64, seed: u64, mode: Mode) -> Session {
        Session {
            agent,
            core: Core {
                wheel: TimerWheel::new(),
                rng: StdRng::seed_from_u64(seed),
                src: u32::try_from(src).unwrap_or(u32::MAX),
                mode,
                joined: BTreeSet::new(),
                fallback_peers: Vec::new(),
                chaos: None,
                tx_frames: 0,
            },
            quota: None,
            rx_seq: 0,
            rx_frames: 0,
            delivered: None,
        }
    }

    /// Apply `plan` to every outgoing frame, with its own RNG seeded by
    /// `seed`.
    pub(crate) fn set_chaos(&mut self, plan: ChaosPlan, seed: u64) {
        self.core.chaos = Some(ChaosState::new(plan, seed));
    }

    /// Run `f` against the agent behind this session's driver — the one
    /// entry point for start, packets, timers and exec closures.
    pub(crate) fn drive<R>(
        &mut self,
        tx: &mut Tx,
        f: impl FnOnce(&mut SrmAgent, &mut dyn Driver) -> R,
    ) -> R {
        let Session { agent, core, quota, delivered, .. } = self;
        let mut d = SessionDriver { core, tx, quota: quota.as_mut() };
        let r = f(agent, &mut d);
        if let Some(n) = delivered {
            *n += agent.take_delivered().len() as u64;
        }
        r
    }

    /// Handle one decoded frame: drop self-sent and TTL-0 frames, count
    /// it, build the packet and hand it to the agent. Returns whether the
    /// agent saw it.
    pub(crate) fn on_frame(&mut self, tx: &mut Tx, env: EnvelopeView<'_>, len: usize) -> bool {
        // Self-delivery (multicast loopback echo) is the network's job to
        // withhold in the simulator; filter it here — before the copy.
        if env.src == self.core.src || env.ttl == 0 {
            return false;
        }
        self.rx_frames += 1;
        bump(&tx.counters.frames_received, 1);
        self.rx_seq += 1;
        let pkt = Packet::new(
            // One observable hop on a mesh; real multicast hop counts would
            // need the received IP TTL, which std sockets cannot read.
            env.ttl.saturating_sub(1),
            PacketBody {
                id: PacketId(self.rx_seq),
                src: NodeId(env.src),
                group: GroupId(env.group),
                dest: None,
                initial_ttl: env.initial_ttl,
                admin_scoped: env.admin_scoped,
                flow: env.flow,
                size: len as u32,
                payload: Bytes::copy_from_slice(env.payload),
            },
        );
        self.drive(tx, |a, d| a.drive_packet(d, &pkt));
        true
    }

    /// Fire due timers, then release due chaos-held frames to the send
    /// queue (their verdict already ran, so each is acted on at most once).
    pub(crate) fn on_deadline(&mut self, tx: &mut Tx) {
        while let Some(token) = self.core.wheel.pop_expired(tx.clock.now()) {
            self.drive(tx, |a, d| a.drive_timer(d, token));
        }
        while let Some(held) =
            self.core.chaos.as_mut().and_then(|c| c.delayq.pop_due(tx.clock.now()))
        {
            let now = tx.clock.now();
            self.core.fan_out(tx, now, held.group, held.payload, held.opts);
        }
    }

    /// The earlier of the next timer and the next chaos release.
    pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
        let held = self.core.chaos.as_ref().and_then(|c| c.delayq.next_due());
        match (self.core.wheel.next_deadline(), held) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Open a directory-backed write-ahead log under `dir`, rehydrate the
    /// agent from it (restart-after-crash) and log what was restored. A
    /// store that cannot open leaves the session running without
    /// durability.
    pub(crate) fn attach_store(
        &mut self,
        tx: &Tx,
        dir: &Path,
        config: srm_store::StoreConfig,
        cache_per_stream: Option<usize>,
        metrics: Option<&obs::MetricsRegistry>,
    ) {
        let backend = match srm_store::DirBackend::open(dir) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "{}: could not open store {}: {e} (running without durability)",
                    tx.name,
                    dir.display()
                );
                return;
            }
        };
        let mut ds = srm_store::DurableStore::new(Box::new(backend), config);
        if let Some(r) = metrics {
            ds.set_probes(srm_store::StoreProbes::from_registry(r));
        }
        let summary = self.agent.attach_durable_store(Box::new(ds), cache_per_stream);
        self.agent.transport_obs.record(
            tx.clock.now(),
            obs::TransportEventKind::StoreRehydrate {
                adus: summary.names.len() as u64,
                segments: summary.segments,
                truncated_bytes: summary.truncated_bytes,
            },
        );
        if !summary.names.is_empty() || summary.truncated_bytes > 0 {
            eprintln!(
                "{}: rehydrated {} ADUs from {} ({} segments, {} torn bytes dropped)",
                tx.name,
                summary.names.len(),
                dir.display(),
                summary.segments,
                summary.truncated_bytes,
            );
        }
    }
}

/// The wall-clock implementation of the agent's [`Driver`] seam: a
/// borrowed view of one session and its reactor's send half. The protocol
/// code behind it is byte-for-byte the code the simulator runs.
struct SessionDriver<'a> {
    core: &'a mut Core,
    tx: &'a mut Tx,
    quota: Option<&'a mut Quota>,
}

impl Clock for SessionDriver<'_> {
    fn now(&self) -> SimTime {
        self.tx.clock.now()
    }

    fn local_now(&self) -> SimTime {
        self.tx.clock.local_now()
    }
}

impl Transport for SessionDriver<'_> {
    fn multicast(&mut self, group: GroupId, mut payload: Bytes, opts: SendOptions) {
        let now = self.tx.clock.now();
        // Quota gate, charged at wire size (§III-E: the sender's token
        // bucket enforces the session's advertised peak rate).
        if let Some(q) = self.quota.as_deref_mut().filter(|_| opts.ttl != 0) {
            if !q.bucket.try_consume(now, (HEADER_LEN + payload.len()) as f64) {
                q.refused += 1;
                return;
            }
        }
        let Some(c) = self.core.chaos.as_mut() else {
            return self.core.fan_out(self.tx, now, group, payload, opts);
        };
        let tx = &mut *self.tx;
        let copies = c.filter(now, group, &mut payload, &opts, |k| tx.chaos_action(now, k));
        for _ in 0..copies {
            // Each copy's send stage is timed from its own fan-out, as an
            // unfiltered send's is.
            let now = self.tx.clock.now();
            self.core.fan_out(self.tx, now, group, payload.clone(), opts.clone());
        }
    }

    fn join(&mut self, group: GroupId) {
        self.core.join(self.tx, group);
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.core.wheel.arm(self.tx.clock.now() + delay, token)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.core.wheel.cancel(id);
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }
}

/// A closure run on a reactor thread against its host.
pub(crate) type ExecFn<H> = Box<dyn FnOnce(&mut H, &mut Tx) + Send>;

/// Work items a reactor waits on.
pub(crate) enum Event<H> {
    /// A received buffer, stamped with its capture time so the reactor can
    /// account the queueing stage. The pooled slab travels by ownership;
    /// dropping it after the walk recycles it to the receive pool.
    Datagram(SimTime, RecvFrame),
    /// A typed transport event from the receive thread's supervisor.
    Transport(SimTime, obs::TransportEventKind),
    /// Run a closure against the host (the wall-clock `Simulator::exec`).
    Exec(ExecFn<H>),
    /// Stop the reactor.
    Shutdown,
}

/// Queue `f` on a reactor and return where its result will arrive, or
/// `None` if the reactor has stopped.
pub(crate) fn call<H, R>(
    chan: &mpsc::SyncSender<Event<H>>,
    f: impl FnOnce(&mut H, &mut Tx) -> R + Send + 'static,
) -> Option<mpsc::Receiver<R>>
where
    R: Send + 'static,
{
    let (rtx, rrx) = mpsc::sync_channel(1);
    let job: ExecFn<H> = Box::new(move |h, tx| {
        let _ = rtx.send(f(h, tx));
    });
    chan.send(Event::Exec(job)).ok()?;
    Some(rrx)
}

/// What a reactor hosts: one session (a node) or many (a hub shard).
pub(crate) trait Host {
    /// The session a decoded frame belongs to; `None` counts it as
    /// addressed to an unjoined group.
    fn route(&mut self, env: &EnvelopeView<'_>) -> Option<&mut Session>;

    /// Every hosted session.
    fn sessions(&mut self) -> impl Iterator<Item = &mut Session>;

    /// Refresh counters and registry mirrors, once per reactor turn.
    fn publish(&mut self, tx: &Tx);
}

/// The reactor loop: fire due timers and chaos releases, flush the send
/// queue as batched syscalls, then drain a whole window of channel events
/// per wakeup (datagrams, commands, deadlines coalesced). Returns on
/// `Shutdown` or when every sender is gone, after a final flush.
pub(crate) fn run_reactor<H: Host>(
    host: &mut H,
    tx: &mut Tx,
    rx: &mpsc::Receiver<Event<H>>,
    inbound_drain: usize,
    probes: Option<&RxProbes>,
) {
    // Handle one channel event; `true` on shutdown.
    let handle = |host: &mut H, tx: &mut Tx, ev: Event<H>| {
        match ev {
            // The walk borrows the pooled slab in place — no per-frame copy
            // to split a coalesced buffer.
            Event::Datagram(at, f) => {
                for chunk in gro_segments(&f.buf, f.seg_size) {
                    on_chunk(host, tx, at, chunk, probes);
                }
            }
            Event::Transport(at, kind) => tx.log.record(at, kind),
            Event::Exec(f) => f(host, tx),
            Event::Shutdown => return true,
        }
        false
    };
    let inbound_drain = inbound_drain.max(1);
    'reactor: loop {
        for s in host.sessions() {
            s.on_deadline(tx);
        }
        // Everything the last wakeup produced goes out in batched syscalls.
        tx.flush();
        host.publish(tx);
        let wait = match host.sessions().filter_map(|s| s.next_deadline()).min() {
            Some(at) => tx.clock.until(at).min(IDLE_WAIT),
            None => IDLE_WAIT,
        };
        // Coalesced wakeup: block for one event, then drain whatever else
        // is already queued (up to the window) before revisiting timers
        // and flushing the sends those events produced.
        let mut next = match rx.recv_timeout(wait) {
            Ok(ev) => Some(ev),
            Err(mpsc::RecvTimeoutError::Disconnected) => break 'reactor,
            Err(mpsc::RecvTimeoutError::Timeout) => None,
        };
        let mut drained = 0usize;
        while let Some(ev) = next.take() {
            drained += 1;
            if handle(host, tx, ev) {
                break 'reactor;
            }
            if drained == inbound_drain {
                break;
            }
            // Keep the wire busy while draining: once a full send batch has
            // accumulated, flush it so the receivers work in parallel with
            // the rest of the window.
            if tx.queue.len() >= tx.max_batch {
                tx.flush();
            }
            next = rx.try_recv().ok();
        }
        if let (Some(p), true) = (probes, drained > 0) {
            p.drain.record(drained as f64);
        }
    }
    // Anything the final events produced still goes out.
    tx.flush();
}

/// Decode one frame in place and hand it to its session. Every field reads
/// straight out of the pooled slab; only a delivered payload is copied.
fn on_chunk<H: Host>(
    host: &mut H,
    tx: &mut Tx,
    recv_at: SimTime,
    chunk: &[u8],
    probes: Option<&RxProbes>,
) {
    // Stage clocks: one extra clock read per stage, only with a registry.
    let dequeued = probes.map(|p| {
        let now = tx.clock.now();
        p.queue.record(now.since(recv_at).as_secs_f64());
        now
    });
    let env = match Envelope::decode_view(chunk) {
        Ok(env) => env,
        Err(e) => return tx.undecodable(e),
    };
    if let (Some(p), Some(t0)) = (probes, dequeued) {
        p.decode.record(tx.clock.now().since(t0).as_secs_f64());
    }
    let Some(session) = host.route(&env) else {
        return tx.unjoined(&env);
    };
    let t0 = probes.map(|_| tx.clock.now());
    if session.on_frame(tx, env, chunk.len()) {
        if let (Some(p), Some(t0)) = (probes, t0) {
            p.rx[flow_slot(env.flow)].inc();
            p.handle.record(tx.clock.now().since(t0).as_secs_f64());
        }
    }
}

/// Everything a supervised receive thread needs besides its sink.
pub(crate) struct RecvLoop {
    pub policy: SupervisePolicy,
    /// The bound socket; each (re)spawned step reads from a clone of it.
    pub socket: UdpSocket,
    /// Its address, rebound if the descriptor itself goes bad.
    pub local: SocketAddr,
    pub batch: BatchOptions,
    pub pool: BufferPool,
    /// Frames per receive syscall, when a registry is attached.
    pub histo: Option<obs::Histo>,
    pub stop: Arc<AtomicBool>,
    pub counters: Arc<Counters>,
    pub clock: WallClock,
    /// Prefix for the stderr line if the thread dies for good.
    pub name: String,
}

/// The supervised receive loop. Each spawned step owns a fresh socket
/// clone (a rebind when the original descriptor is wedged) wrapped in a
/// batched backend with a short read timeout; poll timeouts are normal
/// progress, everything else goes through the supervisor's
/// classify/backoff/respawn state machine. Every received buffer goes to
/// `sink` (which returns `false` to stop the loop); supervision decisions
/// go to `report` as typed transport events, ending with `RecvExit`.
pub(crate) fn run_recv<S, R>(cfg: RecvLoop, sink: S, mut report: R)
where
    S: FnMut(SimTime, RecvFrame) -> bool + Clone,
    R: FnMut(SimTime, obs::TransportEventKind),
{
    if cfg.batch.batch_sched {
        crate::batch::enter_batch_scheduling();
    }
    let recv_batch = cfg.batch.recv_batch.clamp(1, crate::batch::MAX_BATCH);
    let RecvLoop { policy, socket, local, batch, pool, histo, stop, counters, clock, name } = cfg;
    let reason = run_supervised(
        &policy,
        |attempt| {
            let sock = if attempt == 0 {
                socket.try_clone()?
            } else {
                // Respawn: prefer a clone of the original descriptor, fall
                // back to a fresh bind of the same address if the
                // descriptor itself is the problem.
                socket.try_clone().or_else(|_| UdpSocket::bind(local))?
            };
            sock.set_read_timeout(Some(RECV_POLL))?;
            let mut backend = make_backend(sock, &batch);
            let (stop, clock, pool, histo) =
                (Arc::clone(&stop), clock.clone(), pool.clone(), histo.clone());
            let mut sink = sink.clone();
            let mut bufs: Vec<RecvFrame> = Vec::with_capacity(recv_batch);
            Ok(move || -> io::Result<StepOutcome> {
                if stop.load(Ordering::Relaxed) {
                    return Ok(StepOutcome::Stop);
                }
                bufs.clear();
                match backend.recv_batch(&pool, recv_batch, &mut bufs) {
                    Ok(_) => {}
                    // The poll timeout is the loop's heartbeat, not an
                    // error; it must not enter the supervisor's backoff.
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Ok(StepOutcome::Continue);
                    }
                    Err(e) => return Err(e),
                }
                if let Some(h) = &histo {
                    // Logical frames per syscall: a GRO-coalesced buffer
                    // counts all its segments.
                    h.record(bufs.iter().map(RecvFrame::frame_count).sum::<usize>() as f64);
                }
                // One capture stamp per batch: the datagrams were drained
                // by one syscall, so they share an arrival time as far as
                // the queue-stage clock can tell.
                let at = clock.now();
                for f in bufs.drain(..) {
                    if !sink(at, f) {
                        return Ok(StepOutcome::Stop);
                    }
                }
                Ok(StepOutcome::Continue)
            })
        },
        |ev| {
            let kind = match ev {
                SupervisionEvent::Transient { detail, .. } => {
                    bump(&counters.recv_transient_errors, 1);
                    obs::TransportEventKind::SocketError { detail: detail.clone(), transient: true }
                }
                SupervisionEvent::Fatal { detail } => obs::TransportEventKind::SocketError {
                    detail: detail.clone(),
                    transient: false,
                },
                SupervisionEvent::Respawned { attempt, .. } => {
                    bump(&counters.recv_respawns, 1);
                    obs::TransportEventKind::RecvRespawn { attempt: *attempt }
                }
            };
            report(clock.now(), kind);
        },
        |backoff| {
            // Interruptible backoff: keep shutdown latency bounded by the
            // poll interval even while backing off.
            let mut left = backoff;
            while !stop.load(Ordering::Relaxed) && left > Duration::ZERO {
                let chunk = left.min(RECV_POLL);
                thread::sleep(chunk);
                left = left.saturating_sub(chunk);
            }
        },
    );
    if matches!(reason, ExitReason::Exhausted { .. }) {
        bump(&counters.recv_deaths, 1);
        eprintln!("{name}: receive thread died: {}", reason.label());
    }
    report(clock.now(), obs::TransportEventKind::RecvExit { reason: reason.label() });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gro_segments_walk_every_stride_case() {
        let buf: Vec<u8> = (0..10).collect();
        // (buffer length, segment size, expected chunk lengths)
        let cases: [(usize, u32, &[usize]); 6] = [
            (10, 0, &[10]),      // plain datagram: one frame
            (10, 5, &[5, 5]),    // exact multiple of the stride
            (10, 4, &[4, 4, 2]), // short tail
            (10, 16, &[10]),     // stride larger than the buffer
            (0, 0, &[0]),        // empty plain datagram: seen once
            (0, 4, &[0]),        // empty coalesced buffer: seen once
        ];
        for (len, seg, want) in cases {
            let data = &buf[..len];
            let got: Vec<&[u8]> = gro_segments(data, seg).collect();
            let lens: Vec<usize> = got.iter().map(|c| c.len()).collect();
            assert_eq!(lens, want, "len {len}, seg {seg}");
            assert_eq!(got.concat(), data, "chunks tile the buffer (len {len}, seg {seg})");
            let frame = RecvFrame { buf: PoolBuf::copied_from(data), seg_size: seg };
            assert_eq!(
                frame.frame_count(),
                want.len(),
                "frame_count agrees (len {len}, seg {seg})"
            );
        }
    }
}

//! The wall-clock node runtime: one [`SrmAgent`] over one live UDP socket.
//!
//! Architecture (no async runtime — the workspace builds offline):
//!
//! - a **receive thread** runs the shared supervised receive loop
//!   (`session.rs`): socket errors are classified transient (retried
//!   in place with bounded exponential backoff) or fatal (a fresh socket
//!   clone is respawned against a bounded budget), and panics are caught
//!   and treated as fatal. Received buffers go to the reactor over a
//!   bounded [`mpsc`] channel, and every supervision decision follows as a
//!   typed transport event;
//! - the **reactor thread** hosts one session — the agent, its timer
//!   wheel, seeded RNG and send filters — in the same reactor loop a hub
//!   shard runs over many sessions. It waits on the channel with a timeout
//!   bounded by the session's next timer or chaos release, so timers fire
//!   on time and held-back frames hit the wire on schedule — the select
//!   loop a simulator event queue collapses into `recv_timeout`;
//! - every agent entry point goes through the session's implementation of
//!   the [`srm::Driver`] seam, so the protocol code that runs here is
//!   byte-for-byte the code the simulator runs. With a [`ChaosPlan`]
//!   configured, the session's send filter applies the plan's scripted
//!   loss/duplication/corruption/reorder actions to every outgoing frame.
//!
//! Two [`Mode`]s cover deployment and CI:
//!
//! - [`Mode::Multicast`]: real IP multicast via `join_multicast_v4`; group
//!   ids map onto a contiguous block of group addresses. If the join fails
//!   (no multicast route on the interface) and `fallback_peers` are
//!   configured, the node degrades to the unicast mesh and records a
//!   `mode_fallback` event instead of running deaf.
//! - [`Mode::Mesh`]: a unicast fan-out to an explicit peer list. Multicast
//!   on a loopback interface needs `SO_REUSEADDR`/`SO_REUSEPORT` to share
//!   one port between processes, which `std::net` cannot set, so CI runs a
//!   127.0.0.1 mesh instead: every send is replicated to every peer, which
//!   is exactly the group-delivery model with a one-hop star topology.
//!
//! The plan's drop-nth rules ([`ChaosPlan::drop_nth`], per flow and
//! optionally per destination) give tests a deterministic way to force the
//! losses SRM exists to repair. They and the blackhole windows act on the
//! per-destination fan-out, RNG-free, so they never perturb the seeded
//! chaos draw sequence.
//!
//! ## Frame accounting
//!
//! Every per-destination send attempt is counted exactly once:
//!
//! ```text
//! frames_attempted == frames_sent + frames_dropped + blackholed + send_errors
//! ```
//!
//! (chaos verdict drops and delays act *before* the fan-out and are counted
//! separately as `chaos_*`). The soak harness asserts this invariant, which
//! is what "zero unexplained drops" means operationally.

use crate::batch::{BatchOptions, RecvFrame};
use crate::chaos::ChaosPlan;
use crate::clock::WallClock;
use crate::envelope::EnvelopeView;
use crate::pool::BufferPool;
use crate::session::{
    bump, call, run_reactor, run_recv, Counters, Event, Field, Host, Mirrors, RecvLoop, RxProbes,
    Session, Tx, MAX_DATAGRAM,
};
use crate::supervise::SupervisePolicy;
use bytes::Bytes;
use netsim::{GroupId, SimDuration};
use srm::agent::Delivery;
use srm::{AduName, Driver, PageId, SourceId, SrmAgent, SrmConfig};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// How the runtime reaches the rest of the group.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Unicast fan-out: every multicast is sent once to each peer address.
    /// The loopback deployment for CI and single-host demos.
    Mesh {
        /// The other members' socket addresses.
        peers: Vec<SocketAddr>,
    },
    /// Real IP multicast. [`GroupId`] `g` maps to the group address
    /// `base.ip() + g` (same port), so the session group and any
    /// local-recovery groups the agent allocates land on distinct
    /// addresses; pick a base with headroom inside 239.0.0.0/8.
    Multicast {
        /// Base group address and port.
        base: SocketAddrV4,
    },
}

impl Mode {
    pub(crate) fn group_addr(base: SocketAddrV4, group: GroupId) -> SocketAddrV4 {
        let ip = Ipv4Addr::from(u32::from(*base.ip()).wrapping_add(group.0));
        SocketAddrV4::new(ip, base.port())
    }
}

/// Per-node configuration for [`Node::spawn`].
#[derive(Debug)]
pub struct NodeOptions {
    /// This member's persistent Source-ID (also the envelope's node id).
    pub id: SourceId,
    /// The session's multicast group.
    pub group: GroupId,
    /// Protocol configuration, shared with the simulator.
    pub cfg: SrmConfig,
    /// Seed for this node's timer RNG. The simulator draws every node's
    /// timers from one simulation-global seeded RNG; on a real network each
    /// host has its own, which is the deployment the paper describes. The
    /// chaos RNG is derived from this seed (salted), so one seed replays
    /// both the protocol's timers and the chaos schedule.
    pub seed: u64,
    /// Run periodic session messages (on for any real deployment; tests of
    /// a single recovery round may disable them and seed distances).
    pub session_enabled: bool,
    /// Enable the obs event recorders (recovery + transport) from the start.
    pub trace: bool,
    /// Ring capacity for the obs recorders when `trace` is on: `Some(cap)`
    /// keeps the most recent `cap` events per recorder (with a dropped
    /// count), `None` keeps everything.  Long live runs should bound this;
    /// golden-trace runs must not.
    pub trace_capacity: Option<usize>,
    /// Live metrics registry.  When set, the reactor updates hot-path
    /// counters/gauges/histograms (frames by kind, stage latencies, queue
    /// depths, chaos/supervision/liveness mirrors) that a stats emitter can
    /// snapshot concurrently.  `None` (the default, and always in simulator
    /// runs) costs one branch per instrumented site.
    pub metrics: Option<obs::MetricsRegistry>,
    /// Pre-seeded distance estimates (assumed-converged state, as the
    /// figure experiments use). Live session messages refine them.
    pub initial_distances: Vec<(SourceId, SimDuration)>,
    /// Clock skew applied to this node's local timestamps.
    pub skew: SimDuration,
    /// Scripted chaos applied to every outgoing frame.
    pub chaos: Option<ChaosPlan>,
    /// Track peer liveness from session-message silence.
    pub liveness: Option<srm::LivenessConfig>,
    /// Recv-thread supervision limits.
    pub supervision: SupervisePolicy,
    /// Unicast peers to fall back to if a multicast join fails. Empty
    /// disables the fallback (join failures are logged and the node stays
    /// in multicast mode, deaf to groups it could not join).
    pub fallback_peers: Vec<SocketAddr>,
    /// Durable ADU store (`srm-node --store DIR`). When set, the reactor
    /// opens the write-ahead log before the agent starts, rehydrates any
    /// existing contents (restart-after-crash), reads repairs through the
    /// bounded cache, and flushes on clean shutdown. `None` (the default)
    /// keeps the agent purely in-memory.
    pub store: Option<StoreOptions>,
    /// Batched-datapath tuning: syscall batch sizes, receive-pool size,
    /// inbound channel bound, and the portable-backend override
    /// (`srm-node --batch/--pool`).
    pub batch: BatchOptions,
}

/// Durable-store configuration for one node.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory holding the WAL segments (created if missing).
    pub dir: PathBuf,
    /// WAL tuning: fsync policy, segment size, snapshot cadence.
    pub config: srm_store::StoreConfig,
    /// Keep at most this many payloads per stream in RAM; older ones are
    /// served from the log. `None` keeps everything resident (still
    /// logged).
    pub cache_per_stream: Option<usize>,
}

impl StoreOptions {
    /// Defaults for `dir`: default WAL tuning, unbounded cache.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions {
            dir: dir.into(),
            config: srm_store::StoreConfig::default(),
            cache_per_stream: None,
        }
    }
}

impl NodeOptions {
    /// Defaults: sessions on, no trace, no skew, no chaos, no
    /// liveness tracking, default supervision, seed derived from the
    /// member id.
    pub fn new(id: SourceId, group: GroupId, cfg: SrmConfig) -> Self {
        NodeOptions {
            id,
            group,
            cfg,
            seed: 0x5EED_0000 ^ id.0,
            session_enabled: true,
            trace: false,
            trace_capacity: None,
            metrics: None,
            initial_distances: Vec::new(),
            skew: SimDuration::ZERO,
            chaos: None,
            liveness: None,
            supervision: SupervisePolicy::default(),
            fallback_peers: Vec::new(),
            store: None,
            batch: BatchOptions::default(),
        }
    }
}

/// Salt mixed into the node seed to derive the chaos RNG, keeping the chaos
/// draw stream independent of the protocol's timer draws.
const CHAOS_SEED_SALT: u64 = 0xC4A0_5EED_0BAD_CA5E;

/// Registry counters mirroring the node's shared counters.
const NODE_MIRRORS: [(&str, Field); 17] = [
    ("inbound.overflow", |c| &c.inbound_overflow),
    ("frames.attempted", |c| &c.frames_attempted),
    ("frames.sent", |c| &c.frames_sent),
    ("frames.dropped", |c| &c.frames_dropped),
    ("frames.received", |c| &c.frames_received),
    ("frames.blackholed", |c| &c.blackholed),
    ("frames.send_errors", |c| &c.send_errors),
    ("rx.decode_errors", |c| &c.decode_errors),
    ("rx.unjoined_group", |c| &c.rx_unjoined_group),
    ("chaos.dropped", |c| &c.chaos_dropped),
    ("chaos.duplicated", |c| &c.chaos_duplicated),
    ("chaos.delayed", |c| &c.chaos_delayed),
    ("chaos.corrupted", |c| &c.chaos_corrupted),
    ("recv.transient_errors", |c| &c.recv_transient_errors),
    ("recv.respawns", |c| &c.recv_respawns),
    ("recv.deaths", |c| &c.recv_deaths),
    ("mode.fallbacks", |c| &c.mode_fallbacks),
];

/// Reactor-side cached registry handles: resolved once at spawn so the hot
/// path is one relaxed atomic op per update, no name lookups. Refreshed
/// once per reactor wakeup so snapshots are complete without reaching
/// into the handle.
struct RegHandles {
    counters: Mirrors,
    /// Pool occupancy (slabs in flight, both directions) per wakeup.
    pool_in_use: obs::Gauge,
    /// Pool size (both directions).
    pool_capacity: obs::Gauge,
    /// Pool-dry fallbacks to exact-size heap buffers (both directions).
    pool_misses: obs::Counter,
    liveness_suspected: obs::Counter,
    liveness_died: obs::Counter,
    liveness_revived: obs::Counter,
    wheel_depth: obs::Gauge,
    wheel_high_water: obs::Gauge,
    delayq_depth: obs::Gauge,
    delayq_high_water: obs::Gauge,
    peers_alive: obs::Gauge,
    peers_suspect: obs::Gauge,
    peers_dead: obs::Gauge,
    // Durable-store mirrors (all zero unless `--store` is active; latency
    // histograms are recorded at the operation site via StoreProbes).
    store_appends: obs::Counter,
    store_bytes: obs::Counter,
    store_fsyncs: obs::Counter,
    store_snapshots: obs::Counter,
    store_reads: obs::Counter,
    store_io_errors: obs::Counter,
    store_evictions: obs::Counter,
    store_disk_repairs: obs::Counter,
    store_segments: obs::Gauge,
    store_live_records: obs::Gauge,
}

impl RegHandles {
    fn new(reg: &obs::MetricsRegistry) -> Self {
        RegHandles {
            counters: Mirrors::new(reg, &NODE_MIRRORS),
            pool_in_use: reg.gauge("pool.in_use"),
            pool_capacity: reg.gauge("pool.capacity"),
            pool_misses: reg.counter("pool.misses"),
            liveness_suspected: reg.counter("liveness.suspected"),
            liveness_died: reg.counter("liveness.died"),
            liveness_revived: reg.counter("liveness.revived"),
            wheel_depth: reg.gauge("wheel.depth"),
            wheel_high_water: reg.gauge("wheel.high_water"),
            delayq_depth: reg.gauge("delayq.depth"),
            delayq_high_water: reg.gauge("delayq.high_water"),
            peers_alive: reg.gauge("peers.alive"),
            peers_suspect: reg.gauge("peers.suspect"),
            peers_dead: reg.gauge("peers.dead"),
            store_appends: reg.counter("store.wal_appends"),
            store_bytes: reg.counter("store.wal_bytes"),
            store_fsyncs: reg.counter("store.fsyncs"),
            store_snapshots: reg.counter("store.snapshots"),
            store_reads: reg.counter("store.reads"),
            store_io_errors: reg.counter("store.io_errors"),
            store_evictions: reg.counter("store.evictions"),
            store_disk_repairs: reg.counter("store.disk_repairs"),
            store_segments: reg.gauge("store.segments"),
            store_live_records: reg.gauge("store.live_records"),
        }
    }
}

/// A point-in-time snapshot of one node's transport counters.
///
/// Satisfies the frame-accounting invariant
/// `frames_attempted == frames_sent + frames_dropped + blackholed +
/// send_errors` whenever the reactor is quiescent (the soak harness checks
/// it after shutdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Per-destination send attempts reaching the socket layer.
    pub frames_attempted: u64,
    /// Frames put on the wire (per peer in mesh mode).
    pub frames_sent: u64,
    /// Per-destination frames taken by the chaos plan's drop-nth rules.
    pub frames_dropped: u64,
    /// Frames accepted from the socket (post filtering).
    pub frames_received: u64,
    /// Per-destination frames swallowed by chaos blackhole windows.
    pub blackholed: u64,
    /// `send_to` calls that returned an error.
    pub send_errors: u64,
    /// Frames dropped by the chaos plan before the fan-out.
    pub chaos_dropped: u64,
    /// Extra frame copies injected by the chaos plan.
    pub chaos_duplicated: u64,
    /// Frames held back on the chaos delay queue.
    pub chaos_delayed: u64,
    /// Frames damaged by the chaos plan.
    pub chaos_corrupted: u64,
    /// Inbound datagrams rejected by envelope decoding.
    pub decode_errors: u64,
    /// Transient recv errors retried in place by the supervisor.
    pub recv_transient_errors: u64,
    /// Recv-thread respawns after fatal errors or panics.
    pub recv_respawns: u64,
    /// Recv threads that exhausted the respawn budget and died for good.
    pub recv_deaths: u64,
    /// Multicast-join failures degraded to the unicast mesh.
    pub mode_fallbacks: u64,
    /// Inbound datagrams shed because the bounded reactor channel was
    /// full (backpressure under flood; SRM's recovery machinery repairs
    /// the gaps, exactly as for wire loss).
    pub inbound_overflow: u64,
    /// Well-formed frames addressed to a group this node never joined,
    /// dropped by the cheap filter before any payload copy. A nonzero
    /// count usually means a peer (or hub) is misconfigured — sending
    /// here with the wrong `--group`, or a hub group that was never
    /// `create`d on this side.
    pub rx_unjoined_group: u64,
    /// High-water mark of the timer wheel (including lazy-cancelled slots).
    pub max_wheel_len: u64,
    /// High-water mark of the chaos delay queue.
    pub max_delayq_len: u64,
}

impl TransportStats {
    fn snapshot(c: &Counters) -> TransportStats {
        TransportStats {
            frames_attempted: c.frames_attempted.load(Ordering::Relaxed),
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            frames_dropped: c.frames_dropped.load(Ordering::Relaxed),
            frames_received: c.frames_received.load(Ordering::Relaxed),
            blackholed: c.blackholed.load(Ordering::Relaxed),
            send_errors: c.send_errors.load(Ordering::Relaxed),
            chaos_dropped: c.chaos_dropped.load(Ordering::Relaxed),
            chaos_duplicated: c.chaos_duplicated.load(Ordering::Relaxed),
            chaos_delayed: c.chaos_delayed.load(Ordering::Relaxed),
            chaos_corrupted: c.chaos_corrupted.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            recv_transient_errors: c.recv_transient_errors.load(Ordering::Relaxed),
            recv_respawns: c.recv_respawns.load(Ordering::Relaxed),
            recv_deaths: c.recv_deaths.load(Ordering::Relaxed),
            mode_fallbacks: c.mode_fallbacks.load(Ordering::Relaxed),
            inbound_overflow: c.inbound_overflow.load(Ordering::Relaxed),
            rx_unjoined_group: c.rx_unjoined_group.load(Ordering::Relaxed),
            max_wheel_len: c.max_wheel_len.load(Ordering::Relaxed),
            max_delayq_len: c.max_delayq_len.load(Ordering::Relaxed),
        }
    }

    /// Does this snapshot satisfy the per-destination frame accounting
    /// invariant? (Only meaningful once the reactor has stopped.)
    pub fn frames_accounted(&self) -> bool {
        self.frames_attempted
            == self.frames_sent + self.frames_dropped + self.blackholed + self.send_errors
    }
}


/// A node's reactor host: its one session plus the receive pool and
/// registry handles the per-turn publish reads.
struct NodeHost {
    session: Session,
    rx_pool: BufferPool,
    reg: Option<RegHandles>,
}

impl NodeHost {
    /// Move the reactor's transport events into the agent's stream: an
    /// exec (the binary's trace drain) and the final harvest then read one
    /// per-member sequence.
    fn absorb_reactor_log(&mut self, tx: &mut Tx) {
        self.session.agent.transport_obs.absorb(tx.log.take_events());
    }
}

impl Host for NodeHost {
    fn route(&mut self, env: &EnvelopeView<'_>) -> Option<&mut Session> {
        // A frame for a group this node never joined is counted — unless
        // it is our own echo or spent, which the session drops silently.
        let s = &self.session;
        let joined = s.core.joined.contains(&GroupId(env.group));
        let ours = env.src == s.core.src || env.ttl == 0 || joined;
        ours.then_some(&mut self.session)
    }

    fn sessions(&mut self) -> impl Iterator<Item = &mut Session> {
        std::iter::once(&mut self.session)
    }

    fn publish(&mut self, tx: &Tx) {
        publish_reactor_counters(&self.session, tx, &self.rx_pool, self.reg.as_ref());
    }
}

/// Spawner for node runtimes.
pub struct Node;

impl Node {
    /// Bind `bind` and start a runtime there.
    pub fn spawn(bind: SocketAddr, mode: Mode, opts: NodeOptions) -> io::Result<NodeHandle> {
        Node::spawn_on(UdpSocket::bind(bind)?, mode, opts)
    }

    /// Start a runtime on an already-bound socket (the harness binds all
    /// sockets first so every node can list the others as peers).
    pub fn spawn_on(socket: UdpSocket, mode: Mode, opts: NodeOptions) -> io::Result<NodeHandle> {
        let addr = socket.local_addr()?;
        // One call covers every clone: dup'd descriptors share the socket,
        // and the batched sender can burst a whole flush into this buffer.
        crate::batch::configure_socket_buffers(&socket, opts.batch.socket_bufs);
        let name = format!("srm-node[{}]", opts.id.0);

        // Bounded: under flood the channel sheds datagrams (counted as
        // `inbound_overflow`) instead of growing without limit; commands
        // and supervision events block briefly instead of being lost.
        let (chan, rx) = mpsc::sync_channel::<Event<NodeHost>>(opts.batch.inbound_capacity.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let clock = WallClock::with_skew(opts.skew);
        // One slab per channel slot would be ideal; `pool_slabs` bounds the
        // receive-side memory at `pool_slabs * MAX_DATAGRAM` instead, with
        // exact-size heap copies (counted misses) covering the overflow.
        let rx_pool = BufferPool::new(opts.batch.pool_slabs, MAX_DATAGRAM);

        let recv = RecvLoop {
            policy: opts.supervision,
            socket: socket.try_clone()?,
            local: addr,
            batch: opts.batch,
            pool: rx_pool.clone(),
            histo: opts.metrics.as_ref().map(|r| r.histogram("batch.recv_frames")),
            stop: Arc::clone(&stop),
            counters: Arc::clone(&counters),
            clock: clock.clone(),
            name: name.clone(),
        };
        let (sink_chan, report_chan) = (chan.clone(), chan.clone());
        let sink_counters = Arc::clone(&counters);
        let sink = move |at, f: RecvFrame| {
            let frames = f.frame_count() as u64;
            match sink_chan.try_send(Event::Datagram(at, f)) {
                Ok(()) => true,
                // Shed, count, and keep draining the socket: SRM repairs
                // the gap exactly as it would wire loss. A shed coalesced
                // buffer loses every frame it carried.
                Err(mpsc::TrySendError::Full(_)) => {
                    bump(&sink_counters.inbound_overflow, frames);
                    true
                }
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            }
        };
        let report = move |at, kind| {
            let _ = report_chan.send(Event::Transport(at, kind));
        };
        let recv_thread = thread::Builder::new()
            .name(format!("srm-recv-{}", opts.id.0))
            .spawn(move || run_recv(recv, sink, report))?;

        let send_sock = socket.try_clone()?;
        let reactor_counters = Arc::clone(&counters);
        let id = opts.id;
        let reactor = thread::Builder::new()
            .name(format!("srm-node-{}", opts.id.0))
            .spawn(move || {
                let reg = opts.metrics.as_ref();
                let mut tx =
                    Tx::new(socket, send_sock, &opts.batch, clock, reactor_counters, reg, name);
                let agent = run_node(&mut tx, mode, opts, rx, rx_pool);
                stop.store(true, Ordering::Relaxed);
                let _ = recv_thread.join();
                agent
            })?;

        Ok(NodeHandle {
            tx: chan,
            thread: Some(reactor),
            addr,
            id,
            counters,
        })
    }
}

/// Build the node's session, run the reactor until shutdown, then flush
/// the store and fold the reactor's event log into the agent.
fn run_node(
    tx: &mut Tx,
    mode: Mode,
    opts: NodeOptions,
    rx: mpsc::Receiver<Event<NodeHost>>,
    rx_pool: BufferPool,
) -> SrmAgent {
    if opts.batch.batch_sched {
        crate::batch::enter_batch_scheduling();
    }
    let mut agent = SrmAgent::new(opts.id, opts.group, opts.cfg);
    agent.session_enabled = opts.session_enabled;
    if let Some(lv) = opts.liveness {
        agent.liveness.enable(lv);
    }
    for (peer, d) in opts.initial_distances {
        agent.distances_mut().set_distance(peer, d);
    }
    let mut session = Session::new(agent, opts.id.0, opts.seed, mode);
    session.core.fallback_peers = opts.fallback_peers;
    if let Some(plan) = opts.chaos {
        session.set_chaos(plan, opts.seed ^ CHAOS_SEED_SALT);
    }
    if opts.trace {
        let agent = &mut session.agent;
        match opts.trace_capacity {
            Some(cap) => {
                agent.obs.enable_bounded(cap);
                agent.transport_obs.enable_bounded(cap);
                tx.log.enable_bounded(cap);
            }
            None => {
                agent.obs.enable();
                agent.transport_obs.enable();
                tx.log.enable();
            }
        }
    }
    if let Some(sto) = &opts.store {
        session.attach_store(tx, &sto.dir, sto.config, sto.cache_per_stream, opts.metrics.as_ref());
    }
    let mut host = NodeHost { session, rx_pool, reg: opts.metrics.as_ref().map(RegHandles::new) };
    host.session.drive(tx, |a, d| a.drive_start(d));

    let probes = opts.metrics.as_ref().map(RxProbes::new);
    run_reactor(&mut host, tx, &rx, opts.batch.inbound_drain, probes.as_ref());

    // Clean shutdown: force the WAL tail onto stable storage so an orderly
    // exit loses nothing regardless of the fsync policy.
    host.session.agent.flush_store();
    host.publish(tx);
    // Pin the queue peaks into the offline event stream (no-op when the log
    // is disabled), then hand the agent the reactor's remaining events.
    tx.log.record(
        tx.clock.now(),
        obs::TransportEventKind::QueueHighWater {
            wheel: tx.counters.max_wheel_len.load(Ordering::Relaxed),
            delayq: tx.counters.max_delayq_len.load(Ordering::Relaxed),
        },
    );
    host.absorb_reactor_log(tx);
    host.session.agent
}

/// Publish the reactor's queue high-water marks to the shared atomic
/// counters, and refresh the registry mirrors when one is attached.
fn publish_reactor_counters(s: &Session, tx: &Tx, rx_pool: &BufferPool, reg: Option<&RegHandles>) {
    let counters = &tx.counters;
    let wheel_len = s.core.wheel.len();
    let delayq_len = s.core.chaos.as_ref().map_or(0, |c| c.delayq.len());
    let (liveness, store) = (&s.agent.liveness, s.agent.store());
    counters.max_wheel_len.fetch_max(wheel_len as u64, Ordering::Relaxed);
    counters.max_delayq_len.fetch_max(delayq_len as u64, Ordering::Relaxed);
    let Some(m) = reg else { return };
    m.counters.refresh(counters);
    let (rx_used, rx_cap) = rx_pool.occupancy();
    let (tx_used, tx_cap) = tx.pool.occupancy();
    m.pool_in_use.set(rx_used + tx_used);
    m.pool_capacity.set(rx_cap + tx_cap);
    m.pool_misses.set_total(rx_pool.stats().1 + tx.pool.stats().1);
    m.liveness_suspected.set_total(liveness.suspected_total);
    m.liveness_died.set_total(liveness.died_total);
    m.liveness_revived.set_total(liveness.revived_total);
    m.wheel_depth.set(wheel_len as u64);
    m.wheel_high_water.set(counters.max_wheel_len.load(Ordering::Relaxed));
    m.delayq_depth.set(delayq_len as u64);
    m.delayq_high_water.set(counters.max_delayq_len.load(Ordering::Relaxed));
    let (alive, suspect, dead) = liveness.counts();
    m.peers_alive.set(alive);
    m.peers_suspect.set(suspect);
    m.peers_dead.set(dead);
    if let Some(st) = store.persistence_stats() {
        m.store_appends.set_total(st.appends);
        m.store_bytes.set_total(st.bytes_appended);
        m.store_fsyncs.set_total(st.fsyncs);
        m.store_snapshots.set_total(st.snapshots);
        m.store_reads.set_total(st.reads);
        m.store_io_errors.set_total(st.io_errors);
        m.store_evictions.set_total(store.evictions());
        m.store_disk_repairs.set_total(store.disk_fetches());
        m.store_segments.set(st.segments);
        m.store_live_records.set(st.live_records);
    }
}

/// Client handle to a running node; drop (or [`NodeHandle::shutdown`])
/// stops it.
pub struct NodeHandle {
    tx: mpsc::SyncSender<Event<NodeHost>>,
    thread: Option<thread::JoinHandle<SrmAgent>>,
    addr: SocketAddr,
    id: SourceId,
    counters: Arc<Counters>,
}

impl NodeHandle {
    /// The socket address this node receives on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The member id this node runs as.
    pub fn id(&self) -> SourceId {
        self.id
    }

    /// Run `f` against the live agent on the reactor thread and return its
    /// result — the wall-clock `Simulator::exec`. The reactor's transport
    /// events (chaos actions, blackholes, errors, supervision) join the
    /// agent's `transport_obs` first, so `f` can drain them mid-run.
    ///
    /// # Panics
    /// Panics if the runtime has already stopped.
    pub fn exec<R, F>(&self, f: F) -> R
    where
        F: FnOnce(&mut SrmAgent, &mut dyn Driver) -> R + Send + 'static,
        R: Send + 'static,
    {
        call(&self.tx, move |h: &mut NodeHost, tx| {
            h.absorb_reactor_log(tx);
            h.session.drive(tx, f)
        })
            .expect("node runtime is running")
            .recv()
            .expect("node runtime answered")
    }

    /// Liveness probe for the reactor itself: round-trip a no-op exec
    /// within `timeout`. `false` means the reactor is deadlocked, wedged
    /// behind a long callback, or gone.
    pub fn ping(&self, timeout: Duration) -> bool {
        call(&self.tx, |_, _| ()).is_some_and(|r| r.recv_timeout(timeout).is_ok())
    }

    /// Multicast a new ADU on `page`; returns its name.
    pub fn send_data(&self, page: PageId, payload: Bytes) -> AduName {
        self.exec(move |a, d| a.send_data(d, page, payload))
    }

    /// Drain ADUs delivered to the application since the last call.
    pub fn take_delivered(&self) -> Vec<Delivery> {
        self.exec(|a, _| a.take_delivered())
    }

    /// Snapshot every transport counter.
    pub fn stats(&self) -> TransportStats {
        TransportStats::snapshot(&self.counters)
    }

    /// Stop the runtime and take the final agent (metrics, recorders, and
    /// store intact) for harvesting.
    pub fn shutdown(mut self) -> SrmAgent {
        let _ = self.tx.send(Event::Shutdown);
        self.thread
            .take()
            .expect("shutdown called once")
            .join()
            .expect("node runtime exited cleanly")
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = self.tx.send(Event::Shutdown);
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_addresses_are_contiguous_from_base() {
        let base: SocketAddrV4 = "239.66.66.0:7400".parse().unwrap();
        assert_eq!(
            Mode::group_addr(base, GroupId(1)),
            "239.66.66.1:7400".parse().unwrap()
        );
        assert_eq!(
            Mode::group_addr(base, GroupId(300)),
            "239.66.67.44:7400".parse().unwrap()
        );
    }

    #[test]
    fn stats_frame_accounting_starts_balanced() {
        let s = TransportStats::default();
        assert!(s.frames_accounted());
    }
}

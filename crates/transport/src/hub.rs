//! srm-hub: many SRM sessions in one process, over one shared socket.
//!
//! The paper's sessions are *light-weight* (§I): all per-session state is
//! an agent, a timer wheel, an RNG, and a peer list. A whole host process
//! per session therefore wastes the expensive parts — sockets, threads,
//! kernel buffers — on state that costs almost nothing. The hub inverts
//! that: **one** batched UDP socket and a small fixed pool of shard
//! reactors host arbitrarily many groups.
//!
//! ```text
//!                   ┌───────────── hub process ─────────────┐
//!   UDP ──recv──▶ demux ──group id──▶ shard 0 ─▶ agents g1,g5,…
//!   socket          │ (precheck only) shard 1 ─▶ agents g2,g6,…
//!     ▲             │                 …
//!     └──────send───┴──── every shard sends on a socket clone
//! ```
//!
//! Each shard runs the node's reactor loop over many sessions, and the
//! demux thread runs the node's supervised receive loop with a routing
//! sink: both come from the one session core (`session.rs`).
//!
//! The demux thread reads only the envelope prefix
//! ([`Envelope::precheck`]: magic, version, group id) and routes each
//! frame to `shard_of(group)` — the full decode, and every protocol
//! decision, happens on the owning shard, so the inbound path stays
//! zero-copy: the pooled receive buffer itself travels down the shard
//! channel. The one exception is a GRO-coalesced buffer whose segments
//! straddle shards; it is split with per-segment copies and counted
//! (`demux_splits`), so the cost is visible, rare, and never silent.
//!
//! Control (create/join/send/drain/stats/stop) arrives as line-JSON via
//! [`crate::control`]; per-group token buckets (§III-E) meter each
//! session's send rate with refusals counted as `quota_overflow`. The
//! frame-accounting invariant is the node's, from the same counters:
//! hub groups have no blackholes or loss policy, so it reads
//! `frames_attempted == frames_sent + send_errors` hub-wide, because
//! quota refusals (like chaos drops) happen before the fan-out.

use crate::batch::{BatchOptions, RecvFrame};
use crate::clock::WallClock;
use crate::control::GroupSpec;
use crate::envelope::Envelope;
use crate::pool::{BufferPool, PoolBuf};
use crate::session::{
    call, gro_segments, run_reactor, run_recv, Counters, Event, RecvLoop, RxProbes, Tx,
    MAX_DATAGRAM,
};
use crate::shard::{DrainOutcome, GroupStats, Shard, ShardConfig};
use crate::supervise::SupervisePolicy;
use netsim::SimTime;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How long a control call waits for its shard's reply before declaring
/// the shard wedged.
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Point-in-time rollup of the whole hub: per-group counters plus the
/// shared frame accounting.
#[derive(Clone, Debug, Default)]
pub struct HubStats {
    /// Every hosted group, sorted by group id (stable across shard
    /// assignment).
    pub groups: Vec<GroupStats>,
    /// Unicast fan-out frames handed to the send path.
    pub frames_attempted: u64,
    /// Fan-out frames the kernel accepted.
    pub frames_sent: u64,
    /// Fan-out frames the kernel refused.
    pub send_errors: u64,
    /// Frames routed to a hosted group's agent.
    pub rx_frames: u64,
    /// Datagrams (or GRO segments) that failed the envelope precheck or
    /// decode.
    pub rx_undecodable: u64,
    /// Well-formed frames for a group no shard hosts — the hub-side
    /// analogue of the node's `rx_unjoined_group`.
    pub rx_unjoined_group: u64,
    /// Datagrams shed because a shard's bounded channel was full.
    pub inbound_overflow: u64,
    /// GRO buffers whose segments straddled shards and had to be split
    /// with per-segment copies (the only non-zero-copy inbound path).
    pub demux_splits: u64,
}

impl HubStats {
    /// The `stats` control reply: one JSON line, fixed key order, groups
    /// sorted by id. Counters are live, so this is the one control reply
    /// the golden test does not pin byte-for-byte.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"ok\":true,\"cmd\":\"stats\",\"hub\":{{\"frames_attempted\":{},\"frames_sent\":{},\
             \"send_errors\":{},\"rx_frames\":{},\"rx_undecodable\":{},\"rx_unjoined_group\":{},\
             \"inbound_overflow\":{},\"demux_splits\":{}}},\"groups\":[",
            self.frames_attempted,
            self.frames_sent,
            self.send_errors,
            self.rx_frames,
            self.rx_undecodable,
            self.rx_unjoined_group,
            self.inbound_overflow,
            self.demux_splits,
        );
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"group\":{},\"shard\":{},\"members\":{},\"rx_frames\":{},\"tx_frames\":{},\
                 \"delivered\":{},\"data_sent\":{},\"repairs_sent\":{},\"session_sent\":{},\
                 \"quota_overflow\":{}}}",
                g.group,
                g.shard,
                g.members,
                g.rx_frames,
                g.tx_frames,
                g.delivered,
                g.data_sent,
                g.repairs_sent,
                g.session_sent,
                g.quota_overflow,
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Which shard hosts a group: a splitmix-style mix of the group id, mod
/// the shard count. Stable for the hub's lifetime (and across hubs with
/// the same shard count), independent of creation order, and spread even
/// for the small consecutive ids sessions actually use — `tests/hub.rs`
/// property-checks the partition against this function.
pub fn shard_of(group: u32, shards: usize) -> usize {
    let n = shards.max(1) as u64;
    let mut x = u64::from(group).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % n) as usize
}

/// Hub spawn configuration.
#[derive(Clone, Debug)]
pub struct HubOptions {
    /// Shard reactor count (each is one thread hosting many groups).
    pub shards: usize,
    /// Hub seed; each group's RNG derives from it via
    /// [`crate::shard::group_seed`], so replays are per-group stable no
    /// matter which shard hosts the group.
    pub seed: u64,
    /// Batched-datapath tuning, shared by the demux thread and every
    /// shard's send half.
    pub batch: BatchOptions,
    /// Live metrics registry. The hub's shared transport counters live in
    /// it under the node's names (`frames.*`, `rx.*`, `recv.*`, …), the
    /// shards and the demux thread record the node's stage histograms and
    /// per-kind frame counters, per-group counters land as `hub.g{G}.*`
    /// and shard gauges as `hub.shard{i}.*`. `None` keeps the shared
    /// counters in a private registry and records nothing else.
    pub metrics: Option<obs::MetricsRegistry>,
    /// Durable-store root: group `g` logs under `<root>/<g>/`.
    pub store_root: Option<PathBuf>,
    /// Demux recv-thread supervision (classify/backoff/respawn).
    pub supervision: SupervisePolicy,
}

impl Default for HubOptions {
    fn default() -> Self {
        HubOptions {
            shards: 4,
            seed: 1,
            batch: BatchOptions::default(),
            metrics: None,
            store_root: None,
            supervision: SupervisePolicy::default(),
        }
    }
}

/// What `create`/`join` report back.
#[derive(Clone, Copy, Debug)]
pub struct CreateOutcome {
    /// The shard now hosting the group.
    pub shard: usize,
    /// `join` only: the group already existed.
    pub already: bool,
}

struct HubInner {
    addr: SocketAddr,
    shard_tx: Vec<mpsc::SyncSender<Event<Shard>>>,
    counters: Counters,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    stopped: AtomicBool,
}

/// Spawner for hub runtimes.
pub struct Hub;

impl Hub {
    /// Bind `bind` and start a hub there.
    pub fn spawn(bind: SocketAddr, opts: HubOptions) -> io::Result<HubHandle> {
        Hub::spawn_on(UdpSocket::bind(bind)?, opts)
    }

    /// Start a hub on an already-bound socket.
    pub fn spawn_on(socket: UdpSocket, opts: HubOptions) -> io::Result<HubHandle> {
        let addr = socket.local_addr()?;
        // One call covers every clone: dup'd descriptors share the socket,
        // and N shards can burst flushes into the same kernel buffer.
        crate::batch::configure_socket_buffers(&socket, opts.batch.socket_bufs);

        let shards = opts.shards.max(1);
        let counters = Counters::new(&opts.metrics.clone().unwrap_or_default());
        let clock = WallClock::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut shard_tx = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards + 1);

        for index in 0..shards {
            let (chan, rx) = mpsc::sync_channel::<Event<Shard>>(opts.batch.inbound_capacity.max(1));
            shard_tx.push(chan);
            // Each shard sends on its own clone of the shared socket.
            let name = format!("srm-hub[shard {index}]");
            let (sock, send_sock) = (socket.try_clone()?, socket.try_clone()?);
            let (clock, counters, reg) = (clock.clone(), counters.clone(), opts.metrics.clone());
            let mut shard = Shard::new(ShardConfig {
                index,
                seed: opts.seed,
                metrics: opts.metrics.clone(),
                store_root: opts.store_root.clone(),
            });
            let batch = opts.batch;
            let run = move || {
                if batch.batch_sched {
                    crate::batch::enter_batch_scheduling();
                }
                let mut tx = Tx::new(sock, send_sock, &batch, clock, counters, reg.as_ref(), name);
                let probes = reg.as_ref().map(RxProbes::new);
                run_reactor(&mut shard, &mut tx, &rx, batch.inbound_drain, probes.as_ref());
                // Shutdown: every still-hosted group drains gracefully.
                shard.drain_all(&mut tx);
            };
            threads.push(thread::Builder::new().name(format!("srm-hub-shard{index}")).spawn(run)?);
        }

        let (policy, batch, recv_stop, recv_counters) =
            (opts.supervision, opts.batch, Arc::clone(&stop), counters.clone());
        let (demux_txs, demux_counters) = (shard_tx.clone(), counters.clone());
        let histo = opts.metrics.as_ref().map(|r| r.histogram("batch.recv_frames"));
        let sink = move |at, f| {
            route_frame(at, f, &demux_txs, &demux_counters);
            true
        };
        threads.push(
            thread::Builder::new()
                .name("srm-hub-demux".to_string())
                .spawn(move || {
                    // The receive pool is allocated on the thread that fills
                    // it: built on the spawning thread instead, it cost
                    // `srmbench hub_flood` about 12% of its throughput.
                    let recv = RecvLoop {
                        policy,
                        local: addr,
                        batch,
                        pool: BufferPool::new(batch.pool_slabs, MAX_DATAGRAM),
                        histo,
                        stop: recv_stop,
                        counters: recv_counters,
                        clock,
                        name: "srm-hub".to_string(),
                        socket,
                    };
                    run_recv(recv, sink, |_, _| {})
                })?,
        );

        Ok(HubHandle {
            inner: Arc::new(HubInner {
                addr,
                shard_tx,
                counters,
                stop,
                threads: Mutex::new(threads),
                stopped: AtomicBool::new(false),
            }),
        })
    }
}

/// Cloneable handle to a running hub; the control plane and tests drive
/// everything through it.
#[derive(Clone)]
pub struct HubHandle {
    inner: Arc<HubInner>,
}

impl HubHandle {
    /// The shared socket's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Shard count (fixed at spawn).
    pub fn shards(&self) -> usize {
        self.inner.shard_tx.len()
    }

    /// Run `f` on a shard's reactor thread and wait for its result.
    fn on_shard<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut Shard, &mut Tx) -> R + Send + 'static,
    ) -> Result<R, String> {
        call(&self.inner.shard_tx[shard], f)
            .ok_or_else(|| format!("shard {shard} is down"))?
            .recv_timeout(RPC_TIMEOUT)
            .map_err(|_| format!("shard {shard} did not reply"))
    }

    /// Host a group on its hash-assigned shard. `idempotent` is `join`
    /// semantics: a duplicate reports `already:true` instead of an error.
    pub fn create(&self, spec: GroupSpec, idempotent: bool) -> Result<CreateOutcome, String> {
        let shard = shard_of(spec.group, self.shards());
        let already = self.on_shard(shard, move |sh, tx| sh.create(tx, spec, idempotent))??;
        Ok(CreateOutcome { shard, already })
    }

    /// Publish `count` ADUs of `text` on `group`'s page 0; returns the
    /// last ADU's name.
    pub fn send(&self, group: u32, text: &str, count: u32) -> Result<String, String> {
        let text = text.to_string();
        let shard = shard_of(group, self.shards());
        self.on_shard(shard, move |sh, tx| sh.send(tx, group, &text, count))?
    }

    /// Gracefully drain one group: final session message, WAL flush,
    /// detach.
    pub fn drain(&self, group: u32) -> Result<DrainOutcome, String> {
        self.on_shard(shard_of(group, self.shards()), move |sh, tx| sh.drain(tx, group))?
    }

    /// Drain every hosted group on every shard (the hub keeps running).
    pub fn drain_all(&self) -> DrainOutcome {
        let mut total = DrainOutcome::default();
        for shard in 0..self.shards() {
            if let Ok(one) = self.on_shard(shard, |sh, tx| sh.drain_all(tx)) {
                total.merge(one);
            }
        }
        total
    }

    /// Roll up per-group counters from every shard plus the hub-shared
    /// frame accounting. Groups come back sorted by id. Each shard flushes
    /// its send queue first, so every frame attempted before the call is
    /// settled and `frames_attempted == frames_sent + send_errors` holds
    /// in the snapshot.
    pub fn stats(&self) -> HubStats {
        let mut groups = Vec::new();
        for shard in 0..self.shards() {
            let settled = |sh: &mut Shard, tx: &mut Tx| {
                tx.flush();
                sh.stats()
            };
            if let Ok(mut s) = self.on_shard(shard, settled) {
                groups.append(&mut s);
            }
        }
        groups.sort_by_key(|g| g.group);
        let c = &self.inner.counters;
        HubStats {
            groups,
            frames_attempted: c.frames_attempted.get(),
            frames_sent: c.frames_sent.get(),
            send_errors: c.send_errors.get(),
            rx_frames: c.frames_received.get(),
            rx_undecodable: c.decode_errors.get(),
            rx_unjoined_group: c.rx_unjoined_group.get(),
            inbound_overflow: c.inbound_overflow.get(),
            demux_splits: c.demux_splits.get(),
        }
    }

    /// Stop the hub: drain every group, stop the demux thread, join all
    /// threads. Idempotent; later calls (and other clones) are no-ops.
    pub fn shutdown(&self) {
        if self.inner.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        for tx in &self.inner.shard_tx {
            let _ = tx.send(Event::Shutdown);
        }
        let mut threads = self.inner.threads.lock().unwrap_or_else(|e| e.into_inner());
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HubInner {
    fn drop(&mut self) {
        // Last handle gone without an explicit shutdown: stop the threads
        // rather than leaking them, but don't block on joins in drop.
        self.stop.store(true, Ordering::SeqCst);
        for tx in &self.shard_tx {
            let _ = tx.try_send(Event::Shutdown);
        }
    }
}

/// Route one received buffer by its frames' envelope prefixes
/// ([`Envelope::precheck`]). Fast path: every frame prechecks to the same
/// shard (always true for a plain datagram), so the whole pooled buffer
/// moves zero-copy. Slow path: a GRO buffer whose frames straddle shards,
/// or carry a bad frame among good ones, is split with per-frame copies
/// (counted in `demux_splits`) so the good frames survive and each bad one
/// is counted exactly once.
fn route_frame(
    at: SimTime,
    f: RecvFrame,
    shard_tx: &[mpsc::SyncSender<Event<Shard>>],
    counters: &Counters,
) {
    let shards = shard_tx.len();
    let shard_for = |chunk: &[u8]| Envelope::precheck(chunk).map(|g| shard_of(g, shards));
    // Shed on a full channel, count, keep draining the socket: SRM repairs
    // the gap exactly as it would wire loss.
    let deliver = |shard: usize, ev: Event<Shard>, frames: u64| {
        if let Err(mpsc::TrySendError::Full(_)) = shard_tx[shard].try_send(ev) {
            counters.inbound_overflow.add(frames);
        }
    };
    let (mut target, mut uniform, mut bad) = (None, true, 0u64);
    for chunk in gro_segments(&f.buf, f.seg_size) {
        match shard_for(chunk) {
            Ok(s) => uniform &= *target.get_or_insert(s) == s,
            Err(_) => bad += 1,
        }
    }
    match target {
        // Nothing prechecks: count every frame and drop the lot.
        None => counters.decode_errors.add(bad),
        Some(shard) if uniform && bad == 0 => {
            let frames = f.frame_count() as u64;
            deliver(shard, Event::Datagram(at, f), frames);
        }
        Some(_) => {
            counters.demux_splits.inc();
            for chunk in gro_segments(&f.buf, f.seg_size) {
                match shard_for(chunk) {
                    Ok(s) => {
                        let buf = PoolBuf::copied_from(chunk);
                        deliver(s, Event::Datagram(at, RecvFrame { buf, seg_size: 0 }), 1);
                    }
                    Err(_) => counters.decode_errors.inc(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::group_seed;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..=8usize {
            for g in 0..1000u32 {
                let s = shard_of(g, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(g, shards), "must be deterministic");
            }
        }
        // Degenerate count never panics.
        assert_eq!(shard_of(42, 0), 0);
    }

    #[test]
    fn shard_of_spreads_small_consecutive_ids() {
        // Sessions use small ids; the mix must not send them all to one
        // shard. Expect every shard of 4 to see at least one of 1..=16.
        let mut seen = [false; 4];
        for g in 1..=16u32 {
            seen[shard_of(g, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "ids 1..=16 must hit all 4 shards: {seen:?}");
    }

    #[test]
    fn group_seeds_differ_across_groups_and_hub_seeds() {
        assert_ne!(group_seed(1, 1), group_seed(1, 2));
        assert_ne!(group_seed(1, 1), group_seed(2, 1));
        assert_eq!(group_seed(7, 9), group_seed(7, 9));
    }

    #[test]
    fn hub_hosts_sends_and_drains_a_sole_member_group() {
        let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), HubOptions::default()).unwrap();
        let spec = GroupSpec {
            group: 5,
            peers: vec![],
            id: 1,
            members: 1,
            rate: None,
            burst: None,
            dist_ms: None,
        };
        let out = hub.create(spec.clone(), false).unwrap();
        assert_eq!(out.shard, shard_of(5, hub.shards()));
        // Duplicate create errors; duplicate join reports `already`.
        assert!(hub.create(spec.clone(), false).is_err());
        assert!(hub.create(spec, true).unwrap().already);

        let last = hub.send(5, "hello", 3).unwrap();
        assert!(last.contains("s1"), "ADU name names the source: {last}");
        assert!(hub.send(99, "x", 1).is_err(), "unhosted group refuses sends");

        let st = hub.stats();
        assert_eq!(st.groups.len(), 1);
        assert_eq!(st.groups[0].group, 5);
        assert_eq!(st.groups[0].data_sent, 3);

        let d = hub.drain(5).unwrap();
        assert_eq!(d.groups, 1);
        assert_eq!(d.data_sent, 3);
        assert!(hub.drain(5).is_err(), "already drained");
        hub.shutdown();
        hub.shutdown(); // idempotent
    }

    #[test]
    fn quota_refusals_keep_the_accounting_invariant() {
        // A tiny bucket admits the first (oversize-with-debt) frame and
        // refuses the rest; attempted == sent + errors must still hold.
        let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), HubOptions::default()).unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap(); // discard port
        let spec = GroupSpec {
            group: 3,
            peers: vec![peer],
            id: 1,
            members: 2,
            rate: Some(1.0),
            burst: Some(1.0),
            dist_ms: None,
        };
        hub.create(spec, false).unwrap();
        hub.send(3, "flood", 50).unwrap();
        let st = hub.stats();
        let g = &st.groups[0];
        assert!(g.quota_overflow > 0, "bucket must refuse most of the flood: {g:?}");
        assert!(g.tx_frames < 50 + g.session_sent, "refused frames never fan out");
        assert_eq!(
            st.frames_attempted,
            st.frames_sent + st.send_errors,
            "hub invariant: {st:?}"
        );
        hub.shutdown();
    }
}

//! Scripted chaos injection for the wall-clock transport.
//!
//! The simulator exercises SRM under faults through `netsim`'s `FaultPlan`;
//! a [`ChaosPlan`] is the same scenario vocabulary translated to a live UDP
//! node: Bernoulli and burst loss, duplication, reordering (frames held
//! back on the session's delay queue), payload corruption, per-peer
//! blackhole/partition windows, delay jitter, and RNG-free drops of the
//! nth frame of a flow. A [`ChaosState`] animates a plan for one session:
//! [`ChaosState::filter`] is the seeded verdict every logical send meets
//! after the quota, and the blackhole windows and drop-nth rules act
//! RNG-free per destination on the send fan-out, where destinations exist.
//!
//! Determinism: [`ChaosState`] owns its own seeded RNG, separate from the
//! protocol's timer RNG, and [`ChaosState::verdict`] makes a *fixed number
//! of draws per frame* regardless of which actions trigger.  Same seed +
//! same plan + same frame sequence ⇒ the identical action sequence — the
//! property the chaos proptests pin, and what makes a soak failure
//! replayable from its seed.
//!
//! Corruption damages the frame so that the receiving agent's
//! `Message::decode` fails *cleanly and certainly* (the body-tag byte is
//! overwritten with an invalid tag): corrupt frames become counted decode
//! errors rather than a small chance of aliasing into a live message with a
//! phantom ADU name.

use bytes::Bytes;
use netsim::{GroupId, SendOptions, SimDuration, SimTime};
use obs::TransportEventKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::SocketAddr;

/// A half-open activity window `[start, end)` on the node's clock axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl Window {
    /// Does `now` fall inside the window?
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }
}

/// A correlated loss episode: while the window is active, frames drop with
/// probability `p` (instead of the plan's base Bernoulli rate) — the live
/// analogue of `FaultPlan::loss_burst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// When the burst is active.
    pub window: Window,
    /// Drop probability while active.
    pub p: f64,
}

/// A partition window: frames towards `peer` (or every destination when
/// `None`) are silently swallowed while active — the live analogue of
/// `FaultPlan::partition` + `heal`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blackhole {
    /// When the blackhole is active.
    pub window: Window,
    /// The destination cut off; `None` cuts every destination.
    pub peer: Option<SocketAddr>,
}

impl Blackhole {
    /// Does this window swallow a frame towards `dest` at `now`?
    pub fn matches(&self, now: SimTime, dest: Option<SocketAddr>) -> bool {
        self.window.contains(now) && (self.peer.is_none() || self.peer == dest)
    }
}

/// A deterministic drop: the `nth` (0-based) frame of `flow`, wherever it
/// is headed or only towards `dest`. Mesh mode replicates a send per peer,
/// so a per-destination rule models a lossy link to one member while the
/// rest of the group receives normally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DropNth {
    /// The flow whose frames the rule counts.
    pub flow: u32,
    /// The destination counted; `None` counts every destination.
    pub dest: Option<SocketAddr>,
    /// Which matching frame to drop (0-based).
    pub nth: u64,
}

/// A scripted chaos schedule for one node's send path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// Base Bernoulli per-frame drop probability.
    pub loss_p: f64,
    /// Per-frame duplication probability.
    pub dup_p: f64,
    /// Per-frame corruption probability.
    pub corrupt_p: f64,
    /// Per-frame reorder (hold-back) probability.
    pub reorder_p: f64,
    /// Base hold-back applied to reordered frames.
    pub reorder_delay: SimDuration,
    /// Uniform random extra delay in `[0, jitter)` added to each reordered
    /// frame.
    pub jitter: SimDuration,
    /// Correlated loss episodes.
    pub bursts: Vec<BurstLoss>,
    /// Partition windows.
    pub blackholes: Vec<Blackhole>,
    /// Deterministic nth-frame drops.
    pub nth_drops: Vec<DropNth>,
    /// Restrict the whole plan to one multicast group: frames addressed
    /// to any other group pass through untouched *and undrawn* — they
    /// consume no RNG draws, so the verdict stream for the scoped group
    /// is still a pure function of `(seed, plan, that group's frames)`.
    /// `None` (the default, and the pre-hub behaviour) acts on every
    /// frame. This is what lets one hub shard be chaos-soaked while its
    /// neighbours stay clean.
    pub only_group: Option<u32>,
}

impl ChaosPlan {
    /// An empty plan (no chaos).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Set the base Bernoulli drop probability.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss_p = p;
        self
    }

    /// Set the per-frame duplication probability.
    pub fn duplication(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Set the per-frame corruption probability.
    pub fn corruption(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self
    }

    /// Reorder frames with probability `p` by holding them back `delay`.
    pub fn reorder(mut self, p: f64, delay: SimDuration) -> Self {
        self.reorder_p = p;
        self.reorder_delay = delay;
        self
    }

    /// Add uniform `[0, jitter)` noise to each hold-back.
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Add a correlated loss episode with drop probability `p` over
    /// `[start, end)`.
    pub fn loss_burst(mut self, p: f64, start: SimTime, end: SimTime) -> Self {
        self.bursts.push(BurstLoss { window: Window { start, end }, p });
        self
    }

    /// Cut one peer off over `[start, end)`.
    pub fn blackhole(mut self, peer: SocketAddr, start: SimTime, end: SimTime) -> Self {
        self.blackholes.push(Blackhole {
            window: Window { start, end },
            peer: Some(peer),
        });
        self
    }

    /// Cut every destination off over `[start, end)`.
    pub fn blackhole_all(mut self, start: SimTime, end: SimTime) -> Self {
        self.blackholes.push(Blackhole { window: Window { start, end }, peer: None });
        self
    }

    /// Drop the `nth` (0-based) frame of `flow`, wherever it is headed.
    pub fn drop_nth(mut self, flow: u32, nth: u64) -> Self {
        self.nth_drops.push(DropNth { flow, dest: None, nth });
        self
    }

    /// Drop the `nth` (0-based) frame of `flow` addressed to `dest`.
    pub fn drop_nth_to(mut self, flow: u32, dest: SocketAddr, nth: u64) -> Self {
        self.nth_drops.push(DropNth { flow, dest: Some(dest), nth });
        self
    }

    /// Scope the plan to one multicast group; other groups' frames pass
    /// through untouched, without consuming RNG draws.
    pub fn scoped_to(mut self, group: u32) -> Self {
        self.only_group = Some(group);
        self
    }

    /// Does the plan act on frames addressed to `group`?
    pub fn applies_to(&self, group: GroupId) -> bool {
        self.only_group.is_none_or(|g| g == group.0)
    }

    /// True if the plan can never act on a frame.
    pub fn is_noop(&self) -> bool {
        self.loss_p <= 0.0
            && self.dup_p <= 0.0
            && self.corrupt_p <= 0.0
            && self.reorder_p <= 0.0
            && self.bursts.is_empty()
            && self.blackholes.is_empty()
            && self.nth_drops.is_empty()
    }

    /// The effective drop probability at `now`: the strongest active burst,
    /// or the base Bernoulli rate outside every burst.
    pub fn drop_p(&self, now: SimTime) -> f64 {
        let burst = self
            .bursts
            .iter()
            .filter(|b| b.window.contains(now))
            .map(|b| b.p)
            .fold(f64::NEG_INFINITY, f64::max);
        if burst.is_finite() {
            burst.max(self.loss_p)
        } else {
            self.loss_p
        }
    }

    /// Is a frame towards `dest` swallowed by an active blackhole window?
    /// RNG-free, so the send fan-out can consult it per destination without
    /// perturbing the chaos draw sequence.  `dest = None` (true multicast)
    /// only matches all-destination windows.
    pub fn blackholed(&self, now: SimTime, dest: Option<SocketAddr>) -> bool {
        self.blackholes.iter().any(|b| b.matches(now, dest))
    }

    /// The latest end among all scripted windows — when the schedule has
    /// fully healed (base Bernoulli chaos may continue past it).
    pub fn healed_at(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for b in &self.bursts {
            t = t.max(b.window.end);
        }
        for b in &self.blackholes {
            t = t.max(b.window.end);
        }
        t
    }
}

/// What the chaos draw decided for one frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Deliver the frame at all?  `false` means dropped.
    pub deliver: bool,
    /// Send a second copy.
    pub duplicate: bool,
    /// Damage the frame before sending.
    pub corrupt: bool,
    /// Hold the frame back this long before it reaches the wire.
    pub delay: Option<SimDuration>,
}

/// A [`ChaosPlan`] animated for one session: the seeded RNG behind its
/// verdicts, the frames its drop-nth rules have counted, and the frames its
/// reorder model holds back.
#[derive(Clone, Debug)]
pub struct ChaosState {
    /// The schedule.
    pub plan: ChaosPlan,
    rng: StdRng,
    /// Frames each drop-nth rule has matched, index-aligned with
    /// `plan.nth_drops`.
    seen: Vec<u64>,
    /// Held-back frames, released to the fan-out by the reactor.
    pub delayq: DelayQueue,
}

impl ChaosState {
    /// Animate `plan` with a dedicated RNG seeded by `seed`.
    pub fn new(plan: ChaosPlan, seed: u64) -> Self {
        let seen = vec![0; plan.nth_drops.len()];
        ChaosState { plan, rng: StdRng::seed_from_u64(seed), seen, delayq: DelayQueue::new() }
    }

    /// Decide one frame's fate.  Always makes exactly five RNG draws, in a
    /// fixed order, so the decision sequence is a pure function of
    /// `(seed, plan, now-sequence)` — the seeded-determinism contract.
    pub fn verdict(&mut self, now: SimTime) -> Verdict {
        let u_loss: f64 = self.rng.random();
        let u_dup: f64 = self.rng.random();
        let u_corrupt: f64 = self.rng.random();
        let u_reorder: f64 = self.rng.random();
        let u_jitter: f64 = self.rng.random();

        let deliver = u_loss >= self.plan.drop_p(now);
        let duplicate = u_dup < self.plan.dup_p;
        let corrupt = u_corrupt < self.plan.corrupt_p;
        let delay = if u_reorder < self.plan.reorder_p {
            Some(self.plan.reorder_delay + self.plan.jitter.mul_f64(u_jitter))
        } else {
            None
        };
        Verdict { deliver, duplicate, corrupt, delay }
    }

    /// The send filter for one logical multicast to `group`: run the
    /// verdict, corrupt `payload` in place if it says so, and hold delayed
    /// copies on [`ChaosState::delayq`]. Returns how many copies go to the
    /// fan-out now (0 dropped or held, 1, or 2 duplicated). Each action is
    /// reported to `note` as the transport event that records it.
    pub fn filter(
        &mut self,
        now: SimTime,
        group: GroupId,
        payload: &mut Bytes,
        opts: &SendOptions,
        mut note: impl FnMut(TransportEventKind),
    ) -> usize {
        // A group-scoped plan ignores other groups' frames entirely —
        // crucially *before* the verdict draws, so scoping does not shift
        // the RNG stream the scoped group's frames see.
        if !self.plan.applies_to(group) {
            return 1;
        }
        let flow = opts.flow;
        let v = self.verdict(now);
        if !v.deliver {
            note(TransportEventKind::ChaosDrop { flow });
            return 0;
        }
        if v.corrupt {
            note(TransportEventKind::ChaosCorrupt { flow });
            *payload = corrupt_payload(payload);
        }
        let copies = 1 + usize::from(v.duplicate);
        if let Some(by) = v.delay {
            note(TransportEventKind::ChaosDelay { flow, by });
        }
        if v.duplicate {
            note(TransportEventKind::ChaosDuplicate { flow });
        }
        match v.delay {
            Some(by) => {
                for _ in 0..copies {
                    self.delayq.push(now + by, group, payload.clone(), opts.clone());
                }
                0
            }
            None => copies,
        }
    }

    /// Does a drop-nth rule take this frame of `flow` towards `dest`?
    /// RNG-free. Every matching rule counts the frame; `dest` is `None` in
    /// multicast mode, where only destination-less rules apply.
    pub fn drops_nth(&mut self, flow: u32, dest: Option<SocketAddr>) -> bool {
        let mut drop = false;
        for (r, seen) in self.plan.nth_drops.iter().zip(&mut self.seen) {
            if r.flow == flow && (r.dest.is_none() || r.dest == dest) {
                drop |= *seen == r.nth;
                *seen += 1;
            }
        }
        drop
    }
}

/// A frame held back by the reorder model, due for release at `due`.
#[derive(Clone, Debug)]
pub struct DelayedSend {
    /// When to release the frame.
    pub due: SimTime,
    /// Queue-insertion sequence (FIFO tiebreak at equal deadlines).
    pub seq: u64,
    /// Destination group of the held send.
    pub group: GroupId,
    /// Frame payload.
    pub payload: Bytes,
    /// Send options of the held send.
    pub opts: SendOptions,
}

/// Min-queue of held-back frames, ordered by `(due, seq)`.
#[derive(Clone, Debug, Default)]
pub struct DelayQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    items: std::collections::BTreeMap<u64, DelayedSend>,
    next_seq: u64,
}

impl DelayQueue {
    /// An empty queue.
    pub fn new() -> Self {
        DelayQueue::default()
    }

    /// Hold a frame until `due`.
    pub fn push(&mut self, due: SimTime, group: GroupId, payload: Bytes, opts: SendOptions) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((due.as_nanos(), seq)));
        self.items.insert(seq, DelayedSend { due, seq, group, payload, opts });
    }

    /// The earliest release time, if any frame is held.
    pub fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((ns, _))| SimTime::from_nanos(*ns))
    }

    /// Release the earliest frame due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<DelayedSend> {
        match self.heap.peek() {
            Some(Reverse((ns, _))) if SimTime::from_nanos(*ns) <= now => {
                let Reverse((_, seq)) = self.heap.pop().expect("peeked");
                self.items.remove(&seq)
            }
            _ => None,
        }
    }

    /// Held frames.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Damage a frame so the receiving agent's `Message::decode` fails cleanly:
/// the body-tag byte (offset 16, after the 16-byte message header) becomes
/// an invalid tag.  Frames too short to carry a tag are blanked entirely.
pub fn corrupt_payload(payload: &Bytes) -> Bytes {
    const TAG_OFFSET: usize = 16;
    if payload.len() > TAG_OFFSET {
        let mut v = payload.to_vec();
        v[TAG_OFFSET] = 0xFF;
        Bytes::from(v)
    } else {
        Bytes::new()
    }
}

/// Parse a chaos spec string into a plan.
///
/// Grammar — comma-separated clauses:
///
/// ```text
/// loss=P                   Bernoulli drop probability
/// dup=P                    duplication probability
/// corrupt=P                corruption probability
/// reorder=P:DUR            hold-back probability and base delay
/// jitter=DUR               uniform extra hold-back
/// burst=P@START+LEN        correlated loss window
/// blackhole=N@START+LEN    cut peer N (1-based index into `peers`)
/// blackhole=all@START+LEN  cut every destination
/// group=N                  scope the whole plan to multicast group N
/// ```
///
/// Durations accept `ms` and `s` suffixes (`40ms`, `2s`, `1.5s`).
/// Example: `loss=0.12,dup=0.05,reorder=0.2:40ms,burst=0.8@2s+3s,blackhole=3@1s+3s`
pub fn parse_spec(spec: &str, peers: &[SocketAddr]) -> Result<ChaosPlan, String> {
    let mut plan = ChaosPlan::new();
    for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
        let (key, val) = clause
            .split_once('=')
            .ok_or_else(|| format!("chaos clause `{clause}` missing `=`"))?;
        let (key, val) = (key.trim(), val.trim());
        match key {
            "loss" => plan.loss_p = parse_p(val)?,
            "dup" => plan.dup_p = parse_p(val)?,
            "corrupt" => plan.corrupt_p = parse_p(val)?,
            "reorder" => {
                let (p, d) = val
                    .split_once(':')
                    .ok_or_else(|| format!("reorder needs P:DUR, got `{val}`"))?;
                plan.reorder_p = parse_p(p)?;
                plan.reorder_delay = parse_dur(d)?;
            }
            "jitter" => plan.jitter = parse_dur(val)?,
            "burst" => {
                let (p, window) = val
                    .split_once('@')
                    .ok_or_else(|| format!("burst needs P@START+LEN, got `{val}`"))?;
                let (start, end) = parse_window(window)?;
                plan = plan.loss_burst(parse_p(p)?, start, end);
            }
            "blackhole" => {
                let (who, window) = val
                    .split_once('@')
                    .ok_or_else(|| format!("blackhole needs N@START+LEN, got `{val}`"))?;
                let (start, end) = parse_window(window)?;
                if who == "all" {
                    plan = plan.blackhole_all(start, end);
                } else {
                    let n: usize = who
                        .parse()
                        .map_err(|_| format!("blackhole peer `{who}` is not a number or `all`"))?;
                    let addr = *peers
                        .get(n.checked_sub(1).ok_or("blackhole peers are 1-based")?)
                        .ok_or_else(|| {
                            format!("blackhole peer {n} out of range (have {})", peers.len())
                        })?;
                    plan = plan.blackhole(addr, start, end);
                }
            }
            "group" => {
                let g: u32 = val
                    .parse()
                    .map_err(|_| format!("chaos group `{val}` is not a group id"))?;
                plan = plan.scoped_to(g);
            }
            other => return Err(format!("unknown chaos key `{other}`")),
        }
    }
    Ok(plan)
}

fn parse_p(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability `{s}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability `{s}` outside [0, 1]"));
    }
    Ok(p)
}

fn parse_dur(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    if let Some(ms) = s.strip_suffix("ms") {
        let v: f64 = ms.parse().map_err(|_| format!("bad duration `{s}`"))?;
        return Ok(SimDuration::from_secs_f64(v / 1000.0));
    }
    if let Some(secs) = s.strip_suffix('s') {
        let v: f64 = secs.parse().map_err(|_| format!("bad duration `{s}`"))?;
        return Ok(SimDuration::from_secs_f64(v));
    }
    Err(format!("duration `{s}` needs an `ms` or `s` suffix"))
}

/// `START+LEN` → `[start, start+len)`.
fn parse_window(s: &str) -> Result<(SimTime, SimTime), String> {
    let (start, len) = s
        .split_once('+')
        .ok_or_else(|| format!("window needs START+LEN, got `{s}`"))?;
    let start = SimTime::ZERO + parse_dur(start)?;
    let end = start + parse_dur(len)?;
    Ok((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn burst_overrides_base_loss_inside_window_only() {
        let plan = ChaosPlan::new().loss(0.1).loss_burst(0.9, t(1000), t(2000));
        assert_eq!(plan.drop_p(t(500)), 0.1);
        assert_eq!(plan.drop_p(t(1500)), 0.9);
        assert_eq!(plan.drop_p(t(2000)), 0.1, "end is exclusive");
        assert_eq!(plan.healed_at(), t(2000));
    }

    #[test]
    fn blackhole_matches_peer_and_all() {
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:2000".parse().unwrap();
        let plan = ChaosPlan::new().blackhole(a, t(0), t(1000));
        assert!(plan.blackholed(t(500), Some(a)));
        assert!(!plan.blackholed(t(500), Some(b)));
        assert!(!plan.blackholed(t(500), None), "per-peer window skips multicast");
        assert!(!plan.blackholed(t(1000), Some(a)), "healed");
        let all = ChaosPlan::new().blackhole_all(t(0), t(1000));
        assert!(all.blackholed(t(500), Some(b)));
        assert!(all.blackholed(t(500), None));
    }

    #[test]
    fn verdict_sequences_are_seed_deterministic() {
        let plan = ChaosPlan::new()
            .loss(0.3)
            .duplication(0.2)
            .corruption(0.1)
            .reorder(0.4, SimDuration::from_millis(30))
            .jitter(SimDuration::from_millis(10));
        let mut a = ChaosState::new(plan.clone(), 42);
        let mut b = ChaosState::new(plan, 42);
        for i in 0..500 {
            let now = t(i * 7);
            assert_eq!(a.verdict(now), b.verdict(now), "frame {i}");
        }
    }

    #[test]
    fn noop_plan_always_delivers_plain() {
        let mut s = ChaosState::new(ChaosPlan::new(), 7);
        assert!(s.plan.is_noop());
        for i in 0..100 {
            let v = s.verdict(t(i));
            assert_eq!(
                v,
                Verdict { deliver: true, duplicate: false, corrupt: false, delay: None }
            );
        }
    }

    #[test]
    fn delay_queue_releases_in_due_then_fifo_order() {
        let mut q = DelayQueue::new();
        let opts = SendOptions::default();
        q.push(t(30), GroupId(1), Bytes::from_static(b"late"), opts.clone());
        q.push(t(10), GroupId(1), Bytes::from_static(b"a"), opts.clone());
        q.push(t(10), GroupId(1), Bytes::from_static(b"b"), opts);
        assert_eq!(q.next_due(), Some(t(10)));
        assert!(q.pop_due(t(5)).is_none());
        assert_eq!(q.pop_due(t(50)).unwrap().payload.as_ref(), b"a");
        assert_eq!(q.pop_due(t(50)).unwrap().payload.as_ref(), b"b");
        assert!(q.pop_due(t(20)).is_none(), "late frame not due yet");
        assert_eq!(q.pop_due(t(30)).unwrap().payload.as_ref(), b"late");
        assert!(q.is_empty());
    }

    #[test]
    fn corruption_forces_a_clean_decode_error() {
        // A real encoded message: corrupting it must yield Err, never a
        // different valid message.
        use srm::wire::{Body, Header, Message};
        let m = Message {
            header: Header { sender: srm::SourceId(1), timestamp: SimTime::ZERO },
            body: Body::PageCatalogRequest,
        };
        let enc = m.encode();
        let bad = corrupt_payload(&enc);
        assert!(srm::Message::decode(bad).is_err());
        // Too-short frames are blanked, which is also a decode error.
        assert_eq!(corrupt_payload(&Bytes::from_static(b"tiny")).len(), 0);
    }

    #[test]
    fn spec_parses_the_full_grammar() {
        let peers: Vec<SocketAddr> =
            vec!["127.0.0.1:1000".parse().unwrap(), "127.0.0.1:2000".parse().unwrap()];
        let plan = parse_spec(
            "loss=0.12,dup=0.05,corrupt=0.02,reorder=0.2:40ms,jitter=5ms,\
             burst=0.8@2s+3s,blackhole=2@1s+3s,blackhole=all@10s+1.5s",
            &peers,
        )
        .unwrap();
        assert_eq!(plan.loss_p, 0.12);
        assert_eq!(plan.dup_p, 0.05);
        assert_eq!(plan.corrupt_p, 0.02);
        assert_eq!(plan.reorder_p, 0.2);
        assert_eq!(plan.reorder_delay, SimDuration::from_millis(40));
        assert_eq!(plan.jitter, SimDuration::from_millis(5));
        assert_eq!(plan.bursts.len(), 1);
        assert_eq!(plan.bursts[0].p, 0.8);
        assert_eq!(plan.bursts[0].window.start, t(2000));
        assert_eq!(plan.bursts[0].window.end, t(5000));
        assert_eq!(plan.blackholes.len(), 2);
        assert_eq!(plan.blackholes[0].peer, Some(peers[1]));
        assert_eq!(plan.blackholes[1].peer, None);
        assert_eq!(plan.healed_at(), t(11_500));
    }

    #[test]
    fn spec_rejects_nonsense() {
        assert!(parse_spec("loss", &[]).is_err());
        assert!(parse_spec("loss=1.5", &[]).is_err());
        assert!(parse_spec("warp=0.5", &[]).is_err());
        assert!(parse_spec("reorder=0.5", &[]).is_err());
        assert!(parse_spec("jitter=5", &[]).is_err(), "missing unit");
        assert!(parse_spec("blackhole=3@1s+1s", &[]).is_err(), "peer out of range");
        assert!(parse_spec("blackhole=0@1s+1s", &[]).is_err(), "peers are 1-based");
        assert!(parse_spec("group=nope", &[]).is_err());
    }

    #[test]
    fn spec_group_clause_scopes_the_plan() {
        let plan = parse_spec("loss=0.5,group=7", &[]).unwrap();
        assert_eq!(plan.only_group, Some(7));
        assert!(plan.applies_to(GroupId(7)));
        assert!(!plan.applies_to(GroupId(8)));
        let unscoped = parse_spec("loss=0.5", &[]).unwrap();
        assert!(unscoped.applies_to(GroupId(8)));
    }

    #[test]
    fn group_scoping_does_not_perturb_the_scoped_groups_draws() {
        // Interleave frames for groups 7 and 9 through a plan scoped to 7:
        // the verdicts group 7's frames receive must equal the verdicts
        // from a run where only group 7's frames exist — other-group
        // traffic consumes no draws (the replay-from-seed contract the
        // hub's per-shard soaks rely on).
        let plan = ChaosPlan::new()
            .loss(0.3)
            .duplication(0.2)
            .reorder(0.4, SimDuration::from_millis(30))
            .scoped_to(7);
        let mut mixed = ChaosState::new(plan.clone(), 99);
        let mut alone = ChaosState::new(plan, 99);
        let opts = SendOptions::default();
        for i in 0..200u64 {
            let now = t(i * 3);
            if i % 3 == 0 {
                // Group 7's frame: both runs draw.
                assert_eq!(mixed.verdict(now), alone.verdict(now), "frame {i}");
            } else {
                // Another group's frame passes the filter untouched, as
                // one copy, without drawing or acting.
                let mut payload = Bytes::from_static(b"other group");
                let copies = mixed.filter(now, GroupId(9), &mut payload, &opts, |k| {
                    panic!("acted on another group's frame: {k:?}")
                });
                assert_eq!(copies, 1);
                assert_eq!(payload.as_ref(), b"other group");
            }
        }
    }

    #[test]
    fn drop_nth_counts_per_rule() {
        let mut s = ChaosState::new(ChaosPlan::new().drop_nth(flow::DATA, 1), 0);
        assert!(!s.drops_nth(flow::DATA, None));
        assert!(s.drops_nth(flow::DATA, None));
        assert!(!s.drops_nth(flow::DATA, None));
        assert!(!s.drops_nth(flow::SESSION, None));
    }

    #[test]
    fn drop_nth_per_destination() {
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:2000".parse().unwrap();
        let mut s = ChaosState::new(ChaosPlan::new().drop_nth_to(flow::DATA, b, 0), 0);
        assert!(!s.drops_nth(flow::DATA, Some(a)));
        assert!(s.drops_nth(flow::DATA, Some(b)));
        assert!(!s.drops_nth(flow::DATA, Some(b)));
        // Multicast sends (no destination) never match a per-dest rule.
        let mut q = ChaosState::new(ChaosPlan::new().drop_nth_to(flow::DATA, b, 0), 0);
        assert!(!q.drops_nth(flow::DATA, None));
    }
}

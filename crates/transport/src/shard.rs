//! One hub shard: a reactor thread hosting many SRM sessions.
//!
//! Where a node's reactor hosts one session on its own socket, a shard
//! hosts every group that hashes to it over the hub's *shared* socket: the
//! hub's demux thread routes received buffers here by group id, and the
//! shared reactor loop walks each frame into the right session. A shard is
//! a map from group id to `Session` — the same session core a node runs,
//! with its own timer wheel, its own seeded RNG (derived from the hub seed
//! and the group id, so runs replay per group) and its own optional
//! durable store directory — which is why a hub-hosted group behaves
//! byte-for-byte like a single-group `srm-node` (the equivalence test in
//! `tests/hub.rs` pins this).
//!
//! Control calls (create, send, drain, stats) reach a shard as closures run
//! on its reactor thread, the way `NodeHandle::exec` reaches a node.
//!
//! Send-side quota: each group may carry a [`TokenBucket`] (§III-E). A
//! refused frame is dropped *before* the fan-out and tallied as
//! `quota_overflow`, so the frame-accounting invariant
//! (`frames_attempted == frames_sent + send_errors` on a hub) is untouched
//! by quota pressure.

use crate::control::GroupSpec;
use crate::envelope::EnvelopeView;
use crate::runtime::Mode;
use crate::session::{Host, Quota, Session, Tx};
use bytes::Bytes;
use netsim::{GroupId, SimDuration};
use srm::rate::TokenBucket;
use srm::{PageId, RateLimit, SourceId, SrmAgent, SrmConfig};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Per-group counters snapshot, the unit of the hub's `stats` rollup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Group id.
    pub group: u32,
    /// The shard hosting it.
    pub shard: usize,
    /// Configured group size.
    pub members: usize,
    /// Frames routed to this group's agent (post filtering).
    pub rx_frames: u64,
    /// Logical multicasts the agent issued (pre fan-out).
    pub tx_frames: u64,
    /// ADUs delivered to the hub-side application.
    pub delivered: u64,
    /// Original ADUs this group's agent published.
    pub data_sent: u64,
    /// Repairs this group's agent answered.
    pub repairs_sent: u64,
    /// Session messages this group's agent sent.
    pub session_sent: u64,
    /// Frames refused by the group's token-bucket quota (dropped before
    /// the fan-out).
    pub quota_overflow: u64,
}

/// What the hub gets back from a drain (single group or all).
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainOutcome {
    /// Groups detached.
    pub groups: u32,
    /// Sum of `data_sent` over the drained groups.
    pub data_sent: u64,
    /// Sum of `delivered` over the drained groups.
    pub delivered: u64,
}

impl DrainOutcome {
    pub(crate) fn merge(&mut self, o: DrainOutcome) {
        self.groups += o.groups;
        self.data_sent += o.data_sent;
        self.delivered += o.delivered;
    }
}

/// Everything a shard is born with.
pub(crate) struct ShardConfig {
    /// This shard's index (stable for the hub's lifetime).
    pub index: usize,
    /// Hub-level seed; per-group RNGs derive from it.
    pub seed: u64,
    /// Live metrics registry (per-group labeled counters land here).
    pub metrics: Option<obs::MetricsRegistry>,
    /// Durable store root: group `g` logs under `<root>/<g>/`.
    pub store_root: Option<PathBuf>,
}

/// Per-group registry handles, resolved once at create.
struct GroupReg {
    rx_frames: obs::Counter,
    tx_frames: obs::Counter,
    delivered: obs::Counter,
    quota_overflow: obs::Counter,
}

impl GroupReg {
    fn new(reg: &obs::MetricsRegistry, group: u32) -> Self {
        GroupReg {
            rx_frames: reg.counter(&format!("hub.g{group}.rx_frames")),
            tx_frames: reg.counter(&format!("hub.g{group}.tx_frames")),
            delivered: reg.counter(&format!("hub.g{group}.delivered")),
            quota_overflow: reg.counter(&format!("hub.g{group}.quota_overflow")),
        }
    }
}

/// One hosted group: its session plus what the hub reports about it.
struct Hosted {
    session: Session,
    members: usize,
    reg: Option<GroupReg>,
}

impl Hosted {
    fn stats(&self, gid: u32, shard: usize) -> GroupStats {
        let s = &self.session;
        GroupStats {
            group: gid,
            shard,
            members: self.members,
            rx_frames: s.rx_frames,
            tx_frames: s.core.tx_frames,
            delivered: s.delivered.unwrap_or(0),
            data_sent: s.agent.metrics.data_sent,
            repairs_sent: s.agent.metrics.repairs_sent,
            session_sent: s.agent.metrics.session_sent,
            quota_overflow: s.quota.as_ref().map_or(0, |q| q.refused),
        }
    }

    /// Graceful drain: a final session message (so peers learn our last
    /// state before the silence), flush of anything it queued, then a WAL
    /// flush — the store directory survives for the next `create`.
    fn drain(mut self, tx: &mut Tx) -> DrainOutcome {
        let s = &mut self.session;
        s.drive(tx, |a, d| a.send_session_now(d));
        tx.flush();
        s.agent.flush_store();
        DrainOutcome {
            groups: 1,
            data_sent: s.agent.metrics.data_sent,
            delivered: s.delivered.unwrap_or(0),
        }
    }
}

/// The groups one shard hosts, keyed by group id.
pub(crate) struct Shard {
    cfg: ShardConfig,
    groups: BTreeMap<u32, Hosted>,
    /// `hub.shard{i}.groups` and `hub.shard{i}.wheel_depth`.
    gauges: Option<(obs::Gauge, obs::Gauge)>,
}

impl Shard {
    pub(crate) fn new(cfg: ShardConfig) -> Shard {
        let gauges = cfg.metrics.as_ref().map(|r| {
            (
                r.gauge(&format!("hub.shard{}.groups", cfg.index)),
                r.gauge(&format!("hub.shard{}.wheel_depth", cfg.index)),
            )
        });
        Shard { cfg, groups: BTreeMap::new(), gauges }
    }

    /// Host a group (`idempotent` = `join` semantics on duplicates);
    /// `Ok(true)` if it was already hosted.
    pub(crate) fn create(
        &mut self,
        tx: &mut Tx,
        spec: GroupSpec,
        idempotent: bool,
    ) -> Result<bool, String> {
        let slot = match self.groups.entry(spec.group) {
            Entry::Occupied(_) if idempotent => return Ok(true),
            Entry::Occupied(_) => return Err(format!("group {} already exists", spec.group)),
            Entry::Vacant(slot) => slot,
        };
        let mut agent = SrmAgent::new(
            SourceId(spec.id),
            GroupId(spec.group),
            SrmConfig::fixed(spec.members.max(1)),
        );
        agent.session_enabled = true;
        if let Some(ms) = spec.dist_ms {
            let d = SimDuration::from_millis(ms);
            for m in (1..=spec.members as u64).filter(|&m| m != spec.id) {
                agent.distances_mut().set_distance(SourceId(m), d);
            }
        }
        let seed = group_seed(self.cfg.seed, spec.group);
        let mut session = Session::new(agent, spec.id, seed, Mode::Mesh { peers: spec.peers });
        session.delivered = Some(0);
        session.quota = spec.rate.map(|rate| Quota {
            bucket: TokenBucket::new(RateLimit {
                bytes_per_sec: rate,
                burst_bytes: spec.burst.unwrap_or(2.0 * rate),
            }),
            refused: 0,
        });
        if let Some(root) = &self.cfg.store_root {
            let dir = root.join(spec.group.to_string());
            session.attach_store(
                tx,
                &dir,
                srm_store::StoreConfig::default(),
                None,
                self.cfg.metrics.as_ref(),
            );
        }
        session.drive(tx, |a, d| a.drive_start(d));
        let reg = self.cfg.metrics.as_ref().map(|r| GroupReg::new(r, spec.group));
        slot.insert(Hosted { session, members: spec.members, reg });
        Ok(false)
    }

    /// Publish `count` ADUs of `text` on the group's page 0; returns the
    /// last ADU's name.
    pub(crate) fn send(
        &mut self,
        tx: &mut Tx,
        group: u32,
        text: &str,
        count: u32,
    ) -> Result<String, String> {
        let s = &mut self
            .groups
            .get_mut(&group)
            .ok_or_else(|| format!("group {group} not hosted"))?
            .session;
        let page = PageId::new(SourceId(u64::from(s.core.src)), 0);
        let mut last = String::new();
        for i in 0..count {
            let body = if count == 1 { text.to_string() } else { format!("{text} #{i}") };
            last = s.drive(tx, |a, d| a.send_data(d, page, Bytes::from(body))).to_string();
        }
        Ok(last)
    }

    /// Drain and detach one group.
    pub(crate) fn drain(&mut self, tx: &mut Tx, group: u32) -> Result<DrainOutcome, String> {
        let hosted =
            self.groups.remove(&group).ok_or_else(|| format!("group {group} not hosted"))?;
        Ok(hosted.drain(tx))
    }

    /// Drain every hosted group (the shard keeps running).
    pub(crate) fn drain_all(&mut self, tx: &mut Tx) -> DrainOutcome {
        let mut total = DrainOutcome::default();
        for (_, hosted) in std::mem::take(&mut self.groups) {
            total.merge(hosted.drain(tx));
        }
        total
    }

    /// Per-group counters for the hub's rollup.
    pub(crate) fn stats(&self) -> Vec<GroupStats> {
        self.groups.iter().map(|(&gid, h)| h.stats(gid, self.cfg.index)).collect()
    }
}

impl Host for Shard {
    fn route(&mut self, env: &EnvelopeView<'_>) -> Option<&mut Session> {
        self.groups.get_mut(&env.group).map(|h| &mut h.session)
    }

    fn sessions(&mut self) -> impl Iterator<Item = &mut Session> {
        self.groups.values_mut().map(|h| &mut h.session)
    }

    /// Refresh per-group registry copies, shard-level gauges and the
    /// largest group timer wheel's high-water mark (`wheel.high_water`).
    fn publish(&mut self, tx: &Tx) {
        let Some((g_groups, g_wheel)) = &self.gauges else {
            return;
        };
        let mut wheel_total = 0u64;
        for (&gid, h) in &self.groups {
            let wheel_len = h.session.core.wheel.len() as u64;
            wheel_total += wheel_len;
            tx.counters.max_wheel_len.raise(wheel_len);
            if let Some(r) = &h.reg {
                let st = h.stats(gid, self.cfg.index);
                r.rx_frames.set_total(st.rx_frames);
                r.tx_frames.set_total(st.tx_frames);
                r.delivered.set_total(st.delivered);
                r.quota_overflow.set_total(st.quota_overflow);
            }
        }
        g_groups.set(self.groups.len() as u64);
        g_wheel.set(wheel_total);
    }
}

/// Derive one group's RNG seed from the hub seed: a splitmix-style mix so
/// adjacent group ids land far apart, and the same `(hub seed, group)`
/// pair replays identically regardless of which shard hosts it.
pub fn group_seed(hub_seed: u64, group: u32) -> u64 {
    let mut x = hub_seed ^ (u64::from(group)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

//! Fault-injection scenarios: SRM recovery across link failures,
//! partitions, source crashes, and flaky links.
//!
//! The paper's robustness claim (§I, §III): "The algorithms … are robust to
//! host failures and network partition" because recovery is
//! receiver-initiated and *any* member holding the data can answer a repair
//! request. These scenarios inject scripted faults through netsim's
//! [`FaultPlan`] and measure what the paper only argues qualitatively:
//!
//! - **partition-heal** — a chain splits for ≥ 30 s with both halves still
//!   publishing; after the heal, session messages expose the cross-partition
//!   gaps and the request/repair machinery must close them with a bounded
//!   request storm (median requests per lost ADU stays small).
//! - **source-crash** — the source dies with a loss outstanding downstream;
//!   a non-source member answers the repair.
//! - **flaky-link** — repeated Bernoulli loss bursts on one link while the
//!   source streams; retry backoff plus session-driven detection recovers
//!   every ADU once the link settles.
//! - **durable-rejoin** — a mid-chain member logs every ADU to a durable
//!   store ([`srm_store::DurableStore`] over the deterministic
//!   [`srm_store::MemBackend`]), then crashes together with the source
//!   while the downstream half is partitioned off. After the member
//!   restarts it rehydrates the log and is the *only* live holder of the
//!   pre-crash data: the downstream members must recover everything up to
//!   the last fsync from its disk, through the same rehydrate code the
//!   wall-clock `srm-node --store` runs. Parameters come from
//!   `scenarios/durable_rejoin.json` when present.
//!
//! All scenarios are single deterministic runs (fixed seeds), so the
//! output tables double as a regression oracle.

use crate::quartiles::summarize;
use crate::scenario::GROUP;
use crate::table::{f, Table};
use crate::RunOpts;
use bytes::Bytes;
use netsim::generators::chain;
use netsim::loss::OneShotLinkDrop;
use netsim::{flow, partition_cut, FaultPlan, NodeId, SimDuration, SimTime, Simulator};
use srm::{AduName, FaultEpisode, PageId, SourceId, SrmAgent, SrmConfig};
use std::collections::BTreeMap;

/// The shared whiteboard page all scenarios draw on.
fn page0() -> PageId {
    PageId::new(SourceId(0), 0)
}

/// A chain of SRM agents with **sessions enabled** (the fault scenarios
/// lean on session messages for post-fault gap detection) and distances
/// pre-warmed to the true hop counts.
fn fault_chain(n: usize, seed: u64) -> Simulator<SrmAgent> {
    let topo = chain(n);
    let mut sim = Simulator::new(topo, seed);
    let cfg = SrmConfig::fixed(n);
    for i in 0..n {
        let mut a = SrmAgent::new(SourceId(i as u64), GROUP, cfg.clone());
        a.set_current_page(page0());
        for j in 0..n {
            if i != j {
                a.distances_mut().set_distance(
                    SourceId(j as u64),
                    SimDuration::from_secs((i as i64 - j as i64).unsigned_abs()),
                );
            }
        }
        sim.install(NodeId(i as u32), a);
        sim.join(NodeId(i as u32), GROUP);
    }
    sim
}

fn send(sim: &mut Simulator<SrmAgent>, node: NodeId, payload: &'static [u8]) {
    sim.exec(node, |a, ctx| {
        a.send_data(ctx, page0(), Bytes::from_static(payload));
    });
}

/// A finished scenario simulation plus the fault windows it injected —
/// enough to derive either the summary [`Outcome`] (figure table) or a full
/// observability timeline (`trace`/`report` CLI).
pub struct FaultRun {
    /// The simulator, run to its horizon.
    pub sim: Simulator<SrmAgent>,
    /// Scenario label (also the table row name).
    pub label: &'static str,
    /// When the (first) fault was injected.
    pub started_at: SimTime,
    /// The fault windows, for nesting recovery spans in trace output.
    pub spans: Vec<obs::FaultSpan>,
}

impl FaultRun {
    /// Summarize the run's episode logs (the figure-table numbers).
    pub fn outcome(&self) -> Outcome {
        collect(&self.sim, self.label, self.started_at)
    }

    /// Drain every agent's recorder into a merged timeline with the fault
    /// windows attached.  Only meaningful for runs built with `traced =
    /// true`.
    pub fn timeline(&mut self) -> obs::Timeline {
        srm::harvest_timeline(&mut self.sim, self.spans.clone())
    }

    /// Fold every live member's metrics into a run summary.
    pub fn summary(&self) -> obs::RunSummary {
        srm::harvest_summary(&self.sim)
    }
}

/// What one scenario run produced.
pub struct Outcome {
    /// Per-episode fault metrics.
    pub episode: FaultEpisode,
    /// Live members at collection time.
    pub members: usize,
    /// Detected losses still unrecovered at the horizon.
    pub unrecovered: u64,
    /// Median over lost ADUs of total requests multicast for that ADU.
    pub req_per_loss_median: f64,
}

impl Outcome {
    /// True when every live member closed every detected gap.
    pub fn all_recovered(&self) -> bool {
        self.unrecovered == 0
    }
}

/// Sum up the recovery/repair episode logs of every live member.
fn collect(sim: &Simulator<SrmAgent>, label: &str, started_at: SimTime) -> Outcome {
    let mut per_adu: BTreeMap<AduName, u64> = BTreeMap::new();
    let mut episode = FaultEpisode {
        label: label.to_string(),
        started_at,
        reconsistent_at: Some(started_at),
        losses: 0,
        dup_requests: 0,
        dup_repairs: 0,
    };
    let mut members = 0usize;
    let mut unrecovered = 0u64;
    for node in sim.app_nodes() {
        if !sim.node_is_up(node) {
            continue;
        }
        members += 1;
        let m = &sim.app(node).expect("installed").metrics;
        for (name, r) in &m.recoveries {
            episode.losses += 1;
            episode.dup_requests += u64::from(r.requests_sent);
            *per_adu.entry(*name).or_insert(0) += u64::from(r.requests_sent);
            episode.reconsistent_at = match (episode.reconsistent_at, r.recovered_at) {
                (Some(cur), Some(t)) => Some(cur.max(t)),
                _ => None,
            };
            if r.recovered_at.is_none() {
                unrecovered += 1;
            }
        }
        episode.dup_repairs += m.repairs.values().filter(|r| r.sent).count() as u64;
    }
    let per_adu: Vec<f64> = per_adu.values().map(|&c| c as f64).collect();
    Outcome {
        episode,
        members,
        unrecovered,
        req_per_loss_median: summarize(&per_adu).map_or(0.0, |s| s.median),
    }
}

/// Partition an 8-node chain for 35 s with both halves publishing, heal,
/// and let session messages drive cross-partition recovery.  With `traced`,
/// every agent records its recovery-episode events.
pub fn partition_heal_run(seed: u64, traced: bool) -> FaultRun {
    let n = 8;
    let mut sim = fault_chain(n, seed);
    if traced {
        srm::enable_tracing(&mut sim);
    }
    let left: Vec<NodeId> = (0..4).map(NodeId).collect();
    let cut = partition_cut(sim.topology(), &left);
    let split_at = SimTime::from_secs(10);
    let heal_at = SimTime::from_secs(45); // 35 s split, ≥ the 30 s floor
    sim.set_fault_plan(FaultPlan::new().partition(split_at, cut).heal(heal_at));

    // Pre-fault traffic so every member shares the page before the split.
    send(&mut sim, NodeId(0), b"pre");
    sim.run_until(split_at);
    for node in sim.app_nodes() {
        sim.app_mut(node).expect("installed").metrics.clear_episodes();
    }

    // Data keeps flowing on both sides of the cut during the split.
    for k in 0..4u64 {
        sim.run_until(SimTime::from_secs(14 + 7 * k));
        send(&mut sim, NodeId(0), b"left");
        send(&mut sim, NodeId((n - 1) as u32), b"right");
    }
    sim.run_until(heal_at);
    sim.run_until(SimTime::from_secs(400));
    FaultRun {
        sim,
        label: "partition-heal",
        started_at: split_at,
        spans: vec![obs::FaultSpan {
            label: "partition".into(),
            start: split_at,
            end: Some(heal_at),
        }],
    }
}

/// Summary-only variant of [`partition_heal_run`].
pub fn partition_heal(seed: u64) -> Outcome {
    partition_heal_run(seed, false).outcome()
}

/// The source crashes with a downstream loss outstanding; peers repair it.
pub fn source_crash_run(seed: u64, traced: bool) -> FaultRun {
    let n = 6;
    let mut sim = fault_chain(n, seed);
    if traced {
        srm::enable_tracing(&mut sim);
    }
    let l34 = sim
        .topology()
        .link_between(NodeId(3), NodeId(4))
        .expect("chain link");
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l34, NodeId(0), flow::DATA)));
    // p0 is dropped on (3,4): nodes 4 and 5 miss it, nodes 1–3 hold it.
    send(&mut sim, NodeId(0), b"p0");
    sim.run_until(SimTime::from_secs(1));
    // p1 exposes the gap; request timers fire well after the crash below.
    send(&mut sim, NodeId(0), b"p1");
    let crash_at = SimTime::from_secs(6);
    sim.set_fault_plan(FaultPlan::new().crash(crash_at, NodeId(0)));
    sim.run_until(SimTime::from_secs(300));
    FaultRun {
        sim,
        label: "source-crash",
        started_at: crash_at,
        spans: vec![obs::FaultSpan {
            label: "crash".into(),
            start: crash_at,
            end: None, // the source never restarts
        }],
    }
}

/// Summary-only variant of [`source_crash_run`].
pub fn source_crash(seed: u64) -> Outcome {
    source_crash_run(seed, false).outcome()
}

/// Repeated Bernoulli loss bursts on a mid-chain link while the source
/// streams 30 ADUs; everything recovers once the link settles.
pub fn flaky_link_run(seed: u64, traced: bool) -> FaultRun {
    let n = 6;
    let mut sim = fault_chain(n, seed);
    if traced {
        srm::enable_tracing(&mut sim);
    }
    let l23 = sim
        .topology()
        .link_between(NodeId(2), NodeId(3))
        .expect("chain link");
    let first_burst = SimTime::from_secs(5);
    let burst_len = SimDuration::from_secs(5);
    let mut plan = FaultPlan::new();
    let mut spans = Vec::new();
    for k in 0..3u64 {
        let start = SimTime::from_secs(5 + 15 * k);
        plan = plan.loss_burst(start, Some(l23), 0.4, burst_len);
        spans.push(obs::FaultSpan {
            label: "loss-burst".into(),
            start,
            end: Some(start + burst_len),
        });
    }
    sim.set_fault_plan(plan);
    for k in 1..=30u64 {
        sim.run_until(SimTime::from_secs(k));
        send(&mut sim, NodeId(0), b"adu");
    }
    sim.run_until(SimTime::from_secs(400));
    FaultRun {
        sim,
        label: "flaky-link",
        started_at: first_burst,
        spans,
    }
}

/// Summary-only variant of [`flaky_link_run`].
pub fn flaky_link(seed: u64) -> Outcome {
    flaky_link_run(seed, false).outcome()
}

/// Knobs for the durable-rejoin scenario. Defaults mirror
/// `scenarios/durable_rejoin.json`; [`DurableRejoinParams::from_scenario_file`]
/// overlays that file when it exists, so the JSON is the single place to
/// retune the scenario without recompiling.
#[derive(Clone, Debug)]
pub struct DurableRejoinParams {
    /// Chain length (≥ 4: source, durable member, ≥ 2 downstream).
    pub nodes: usize,
    /// ADUs the source publishes before the crash.
    pub adus: u64,
    /// Durable member's in-RAM payload cap per stream (rest spill to log).
    pub cache_per_stream: usize,
    /// WAL fsync cadence: sync every N appends. The `adus % N` unsynced
    /// tail is *expected* to die with the crash.
    pub fsync_every: u64,
    /// When the source and the durable member crash (seconds).
    pub crash_at_secs: u64,
    /// When the durable member restarts and rehydrates (seconds).
    pub restart_at_secs: u64,
    /// Simulation horizon (seconds).
    pub horizon_secs: u64,
    /// Timer seed.
    pub seed: u64,
}

impl Default for DurableRejoinParams {
    fn default() -> Self {
        DurableRejoinParams {
            nodes: 4,
            adus: 7,
            cache_per_stream: 2,
            fsync_every: 2,
            crash_at_secs: 30,
            restart_at_secs: 60,
            horizon_secs: 400,
            seed: 0xFA17_0004,
        }
    }
}

impl DurableRejoinParams {
    /// Overlay `path` onto the defaults. The file doubles as a plain
    /// `srm-sim` scenario: chain size comes from `topology.n`, the
    /// pre-crash workload from `workload.adus`, the timer seed from
    /// `seed`, and the durable knobs from the extra `durability` object
    /// (which `srm-sim` ignores). A missing file, unparsable JSON, or
    /// absent field silently keeps the default — the scenario must run
    /// from a bare checkout.
    pub fn from_scenario_file(path: &str) -> Self {
        use obs::json::Json;
        let mut p = Self::default();
        let Ok(text) = std::fs::read_to_string(path) else {
            return p;
        };
        let Ok(json) = Json::parse(&text) else {
            return p;
        };
        if let Some(v) = json
            .get("topology")
            .and_then(|t| t.get("n"))
            .and_then(Json::as_u64)
        {
            p.nodes = v as usize;
        }
        if let Some(v) = json
            .get("workload")
            .and_then(|w| w.get("adus"))
            .and_then(Json::as_u64)
        {
            p.adus = v;
        }
        if let Some(v) = json.get("seed").and_then(Json::as_u64) {
            p.seed = v;
        }
        let dur = |k: &str| json.get("durability").and_then(|d| d.get(k)).and_then(Json::as_u64);
        if let Some(v) = dur("cache_per_stream") {
            p.cache_per_stream = v as usize;
        }
        if let Some(v) = dur("fsync_every") {
            p.fsync_every = v;
        }
        if let Some(v) = dur("crash_at_secs") {
            p.crash_at_secs = v;
        }
        if let Some(v) = dur("restart_at_secs") {
            p.restart_at_secs = v;
        }
        if let Some(v) = dur("horizon_secs") {
            p.horizon_secs = v;
        }
        p
    }

    fn sanitized(&self) -> Self {
        let mut p = self.clone();
        p.nodes = p.nodes.max(4);
        p.adus = p.adus.max(1);
        p.cache_per_stream = p.cache_per_stream.max(1);
        p.fsync_every = p.fsync_every.max(1);
        // Leave room to publish everything before the crash, and to crash
        // before the heal/restart.
        p.crash_at_secs = p.crash_at_secs.max(3 + p.adus);
        p.restart_at_secs = p.restart_at_secs.max(p.crash_at_secs + 10);
        p.horizon_secs = p.horizon_secs.max(p.restart_at_secs + 100);
        p
    }
}

/// The WAL-side numbers of a durable-rejoin run (the second table).
pub struct DurableStats {
    /// ADUs the source published pre-crash.
    pub adus_sent: u64,
    /// ADUs that survived the crash (durable up to the last fsync).
    pub rehydrated: u64,
    /// Repairs the restarted member served from the log (cache misses).
    pub disk_fetches: u64,
    /// Payloads spilled from RAM during the pre-crash phase and after.
    pub evictions: u64,
    /// The durability layer's own counters.
    pub wal: srm::PersistenceStats,
}

/// A mid-chain durable member crashes with the source while downstream is
/// partitioned off; after restart its rehydrated log is the only live copy
/// and must serve every repair from disk.
pub fn durable_rejoin_run(params: &DurableRejoinParams, traced: bool) -> FaultRun {
    let p = params.sanitized();
    let n = p.nodes;
    let mut sim = fault_chain(n, p.seed);
    if traced {
        srm::enable_tracing(&mut sim);
    }
    let durable = NodeId(1);
    // Same attach-and-rehydrate entry point `srm-node --store` uses; the
    // in-memory backend stands in for the directory so the run is
    // deterministic and the crash hooks are scriptable.
    sim.app_mut(durable).expect("installed").attach_durable_store(
        Box::new(srm_store::DurableStore::new(
            Box::new(srm_store::MemBackend::new()),
            srm_store::StoreConfig {
                fsync: srm_store::FsyncPolicy::EveryN(p.fsync_every),
                ..srm_store::StoreConfig::default()
            },
        )),
        Some(p.cache_per_stream),
    );

    // Cut downstream off *before* any data flows: nodes 2.. learn of the
    // pre-crash ADUs only from the restarted member's session messages.
    let left: Vec<NodeId> = [NodeId(0), durable].into();
    let cut = partition_cut(sim.topology(), &left);
    let split_at = SimTime::from_secs(1);
    let crash_at = SimTime::from_secs(p.crash_at_secs);
    let heal_at = crash_at + SimDuration::from_secs(5);
    let restart_at = SimTime::from_secs(p.restart_at_secs);
    sim.set_fault_plan(
        FaultPlan::new()
            .partition(split_at, cut)
            .crash(crash_at, NodeId(0))
            .crash(crash_at, durable)
            .heal(heal_at)
            .restart(restart_at, durable),
    );

    // The source streams one ADU per second behind the cut; only the
    // durable member hears them, logging each and spilling past its cache.
    for k in 0..p.adus {
        sim.run_until(SimTime::from_secs(2 + k));
        send(&mut sim, NodeId(0), b"durable");
    }
    sim.run_until(SimTime::from_secs(p.horizon_secs));
    FaultRun {
        sim,
        label: "durable-rejoin",
        started_at: crash_at,
        spans: vec![
            obs::FaultSpan {
                label: "partition".into(),
                start: split_at,
                end: Some(heal_at),
            },
            obs::FaultSpan {
                label: "crash".into(),
                start: crash_at,
                end: Some(restart_at), // the durable member's outage
            },
        ],
    }
}

/// Summary-only variant of [`durable_rejoin_run`], plus the WAL numbers.
pub fn durable_rejoin(params: &DurableRejoinParams) -> (Outcome, DurableStats) {
    let run = durable_rejoin_run(params, false);
    let p = params.sanitized();
    let agent = run.sim.app(NodeId(1)).expect("installed");
    let st = agent.store();
    let stats = DurableStats {
        adus_sent: p.adus,
        rehydrated: st.recoverable_len() as u64,
        disk_fetches: st.disk_fetches(),
        evictions: st.evictions(),
        wal: st.persistence_stats().expect("persistence attached"),
    };
    (run.outcome(), stats)
}

/// Default location of the scenario file, relative to the repo root.
pub const DURABLE_REJOIN_SCENARIO: &str = "scenarios/durable_rejoin.json";

/// Run all four scenarios and render the recovery table plus the
/// durable-rejoin WAL table.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let _ = opts; // single deterministic runs; no quick/full split needed
    let mut t = Table::new(
        "faults: SRM recovery under injected failures (chain topologies, sessions on)",
        &[
            "scenario",
            "members",
            "losses",
            "unrecovered",
            "req/loss_med",
            "req/loss_mean",
            "repairs",
            "t_reconsist_s",
        ],
    );
    let (dr_out, dr_stats) =
        durable_rejoin(&DurableRejoinParams::from_scenario_file(DURABLE_REJOIN_SCENARIO));
    for out in [
        partition_heal(0xFA17_0001),
        source_crash(0xFA17_0002),
        flaky_link(0xFA17_0003),
        dr_out,
    ] {
        t.row(vec![
            out.episode.label.clone(),
            out.members.to_string(),
            out.episode.losses.to_string(),
            out.unrecovered.to_string(),
            f(out.req_per_loss_median),
            f(out.episode.dup_requests_per_loss()),
            out.episode.dup_repairs.to_string(),
            out.episode
                .time_to_reconsistency()
                .map_or_else(|| "-".into(), |d| f(d.as_secs_f64())),
        ]);
    }
    let mut wal = Table::new(
        "durable-rejoin: write-ahead log (crash-surviving repair state)",
        &[
            "adus_sent",
            "durable",
            "lost_unsynced",
            "disk_repairs",
            "evictions",
            "wal_appends",
            "fsyncs",
            "segments",
        ],
    );
    wal.row(vec![
        dr_stats.adus_sent.to_string(),
        dr_stats.rehydrated.to_string(),
        dr_stats.adus_sent.saturating_sub(dr_stats.rehydrated).to_string(),
        dr_stats.disk_fetches.to_string(),
        dr_stats.evictions.to_string(),
        dr_stats.wal.appends.to_string(),
        dr_stats.wal.fsyncs.to_string(),
        dr_stats.wal.segments.to_string(),
    ]);
    vec![t, wal]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The issue's acceptance scenario: a ≥ 30 s split with data flowing on
    /// both sides must end with every member fully recovered and the
    /// post-heal request storm bounded (median ≤ 4 requests per loss).
    #[test]
    fn partition_heal_recovers_everyone_with_bounded_requests() {
        let out = partition_heal(0xFA17_0001);
        assert_eq!(out.members, 8);
        // 4 ADUs per side, each missed by the 4 members of the other side.
        assert_eq!(out.episode.losses, 32, "every cross-partition ADU detected");
        assert!(out.all_recovered(), "every member reconverged after heal");
        assert!(
            out.req_per_loss_median <= 4.0,
            "post-heal duplicate requests bounded: median {} > 4",
            out.req_per_loss_median
        );
        assert!(out.episode.time_to_reconsistency().is_some());
    }

    #[test]
    fn source_crash_is_repaired_by_peers() {
        let out = source_crash(0xFA17_0002);
        assert_eq!(out.members, 5, "the source stays down");
        assert!(out.episode.losses >= 2, "nodes 4 and 5 both detected p0");
        assert!(out.all_recovered(), "peers repaired the dead source's data");
        assert!(out.episode.dup_repairs >= 1, "a repair was multicast");
    }

    #[test]
    fn flaky_link_recovers_after_bursts_settle() {
        let out = flaky_link(0xFA17_0003);
        assert!(out.episode.losses >= 1, "the bursts caused losses");
        assert!(out.all_recovered());
        assert!(out.episode.time_to_reconsistency().is_some());
    }

    /// The durable member is killed alongside the source while downstream
    /// is cut off; after restart its rehydrated WAL is the only live copy,
    /// so every ADU up to the last fsync must come back — from disk.
    #[test]
    fn durable_rejoin_serves_fsynced_prefix_from_disk() {
        let p = DurableRejoinParams::default();
        let (out, stats) = durable_rejoin(&p);
        assert_eq!(out.members, 3, "source stays down, durable member is back");
        let durable = p.adus - p.adus % p.fsync_every;
        assert!(durable < p.adus, "scenario leaves an unsynced tail to lose");
        assert_eq!(
            stats.rehydrated, durable,
            "exactly the fsynced prefix survived the crash"
        );
        assert_eq!(
            out.episode.losses,
            2 * durable,
            "both downstream members detected every durable ADU"
        );
        assert!(out.all_recovered(), "zero loss up to the last fsync");
        assert!(
            stats.disk_fetches >= durable,
            "repairs were served from the log, not RAM: {} < {durable}",
            stats.disk_fetches
        );
        assert!(stats.evictions > 0, "the bounded cache actually spilled");
        assert_eq!(stats.wal.appends, p.adus, "every ADU hit the WAL once");
    }

    /// The scenario file overlays the compiled-in defaults, so retuning
    /// the run is a JSON edit, not a rebuild.
    #[test]
    fn durable_rejoin_params_overlay_from_json() {
        let dir = std::env::temp_dir().join(format!(
            "srm-durable-rejoin-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.json");
        std::fs::write(
            &path,
            r#"{
              "topology": {"kind": "chain", "n": 6},
              "seed": 9,
              "members": "all",
              "workload": {"adus": 11, "interval_secs": 1.0, "payload_bytes": 7},
              "durability": {"cache_per_stream": 3, "fsync_every": 4, "crash_at_secs": 40}
            }"#,
        )
        .unwrap();
        let p = DurableRejoinParams::from_scenario_file(path.to_str().unwrap());
        assert_eq!(p.nodes, 6);
        assert_eq!(p.adus, 11);
        assert_eq!(p.seed, 9);
        assert_eq!(p.cache_per_stream, 3);
        assert_eq!(p.fsync_every, 4);
        assert_eq!(p.crash_at_secs, 40);
        assert_eq!(p.restart_at_secs, DurableRejoinParams::default().restart_at_secs);
        let missing = DurableRejoinParams::from_scenario_file("/nonexistent/params.json");
        assert_eq!(missing.nodes, DurableRejoinParams::default().nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two runs with the same parameters agree bit-for-bit on both the
    /// recovery outcome and the WAL counters: the in-memory backend keeps
    /// the durability path inside the simulator's determinism envelope.
    #[test]
    fn durable_rejoin_is_deterministic() {
        let p = DurableRejoinParams::default();
        let (a, sa) = durable_rejoin(&p);
        let (b, sb) = durable_rejoin(&p);
        assert_eq!(a.episode.losses, b.episode.losses);
        assert_eq!(a.episode.dup_requests, b.episode.dup_requests);
        assert_eq!(a.episode.reconsistent_at, b.episode.reconsistent_at);
        assert_eq!(sa.rehydrated, sb.rehydrated);
        assert_eq!(sa.disk_fetches, sb.disk_fetches);
        assert_eq!(sa.evictions, sb.evictions);
        assert_eq!(sa.wal, sb.wal);
    }

    /// Two runs with the same seed produce identical episode numbers — the
    /// table is a regression oracle, not a sample.
    #[test]
    fn scenarios_are_deterministic() {
        let a = flaky_link(7);
        let b = flaky_link(7);
        assert_eq!(a.episode.losses, b.episode.losses);
        assert_eq!(a.episode.dup_requests, b.episode.dup_requests);
        assert_eq!(a.episode.reconsistent_at, b.episode.reconsistent_at);
    }
}

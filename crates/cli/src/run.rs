//! Scenario execution and reporting.

use crate::spec::{
    ConfigSpec, LossSpec, MembersSpec, Scenario, ScopeSpec, TimerPreset, TimersSpec, TopologySpec,
};
use bytes::Bytes;
use netsim::effects::RandomEffects;
use netsim::generators;
use netsim::loss::{BernoulliLoss, NoLoss, ScriptedDrop};
use netsim::routing::SpTree;
use netsim::{flow, GroupId, NodeId, SimDuration, Simulator, Topology};
use obs::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srm::config::RecoveryGroupConfig;
use srm::{
    FecConfig, HierarchyConfig, PageId, RateLimit, RecoveryScope, SourceId, SrmAgent, SrmConfig,
};

/// The session multicast group.
const GROUP: GroupId = GroupId(1);

/// Errors while preparing a scenario.
#[derive(Debug)]
pub enum RunError {
    /// A referenced node id does not exist in the topology.
    BadNode(u32),
    /// No members were selected.
    NoMembers,
    /// The scripted loss references a non-adjacent node pair.
    NoSuchLink(u32, u32),
    /// The session never settled within the allotted time.
    DidNotSettle,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BadNode(n) => write!(f, "node {n} does not exist"),
            RunError::NoMembers => write!(f, "scenario selects no members"),
            RunError::NoSuchLink(a, b) => write!(f, "no link between {a} and {b}"),
            RunError::DidNotSettle => write!(f, "session did not quiesce in settle_secs"),
        }
    }
}

impl std::error::Error for RunError {}

/// Per-member outcome.
#[derive(Clone, Debug)]
pub struct MemberReport {
    /// Node id.
    pub node: u32,
    /// ADUs held at the end.
    pub adus_held: usize,
    /// Requests this member multicast.
    pub requests_sent: u64,
    /// Repairs this member multicast.
    pub repairs_sent: u64,
    /// ADUs reconstructed locally from FEC parity.
    pub fec_recoveries: u64,
    /// Whether every detected loss was recovered.
    pub all_recovered: bool,
}

/// Whole-run outcome.
#[derive(Clone, Debug)]
pub struct Report {
    /// Member count.
    pub members: usize,
    /// The data source node.
    pub source: u32,
    /// ADUs the workload originated.
    pub adus_sent: u32,
    /// Receivers holding the complete stream at the end.
    pub complete_receivers: usize,
    /// Totals: requests / repairs / session messages multicast.
    pub total_requests: u64,
    /// Total repairs.
    pub total_repairs: u64,
    /// Total session messages.
    pub total_sessions: u64,
    /// Link crossings by traffic class (data, request, repair, session).
    pub hops: HopsReport,
    /// Per-member details.
    pub per_member: Vec<MemberReport>,
    /// Final simulated time in seconds.
    pub sim_seconds: f64,
    /// Events processed.
    pub events: u64,
}

/// Link-crossing totals by traffic class.
#[derive(Clone, Debug)]
pub struct HopsReport {
    /// Original data.
    pub data: u64,
    /// Requests.
    pub requests: u64,
    /// Repairs.
    pub repairs: u64,
    /// Session messages.
    pub sessions: u64,
    /// FEC parity.
    pub parity: u64,
}

fn build_topology(spec: &TopologySpec, rng: &mut StdRng) -> Topology {
    match *spec {
        TopologySpec::Chain { n } => generators::chain(n),
        TopologySpec::Star { leaves } => generators::star(leaves),
        TopologySpec::BoundedTree { n, degree } => generators::bounded_degree_tree(n, degree),
        TopologySpec::RandomTree { n } => generators::random_labeled_tree(n, rng),
        TopologySpec::RandomGraph { n, m } => generators::random_connected_graph(n, m, rng),
    }
}

fn build_config(spec: &ConfigSpec, g: usize) -> SrmConfig {
    let mut cfg = match spec.timers {
        TimersSpec::Preset(TimerPreset::Fixed) => SrmConfig::fixed(g),
        TimersSpec::Preset(TimerPreset::Adaptive) => SrmConfig::adaptive(g),
        TimersSpec::Preset(TimerPreset::Wb159) => SrmConfig {
            fixed_intervals: Some(srm::config::FixedIntervals::wb159()),
            ..SrmConfig::default()
        },
        TimersSpec::Explicit { c1, c2, d1, d2 } => SrmConfig {
            timers: srm::TimerParams { c1, c2, d1, d2 },
            ..SrmConfig::default()
        },
    };
    cfg.scope = match spec.scope {
        ScopeSpec::Global => RecoveryScope::Global,
        ScopeSpec::Ttl { ttl } => RecoveryScope::Ttl(ttl),
        ScopeSpec::Admin => RecoveryScope::Admin,
    };
    if spec.fec_k > 0 {
        cfg.fec = Some(FecConfig { k: spec.fec_k });
    }
    if spec.recovery_group_ttl > 0 {
        cfg.recovery_groups = Some(RecoveryGroupConfig {
            invite_ttl: spec.recovery_group_ttl,
            min_losses: 2,
        });
    }
    if spec.hierarchy_ttl > 0 {
        cfg.session_hierarchy = Some(HierarchyConfig {
            local_ttl: spec.hierarchy_ttl,
            ..HierarchyConfig::default()
        });
    }
    if spec.rate_limit_bps > 0.0 {
        cfg.rate_limit = Some(RateLimit {
            bytes_per_sec: spec.rate_limit_bps,
            burst_bytes: spec.rate_limit_bps, // one second of burst
        });
    }
    cfg
}

/// Execute a scenario and produce its [`Report`].
pub fn run(scenario: &Scenario) -> Result<Report, RunError> {
    run_inner(scenario, false).map(|(r, _)| r)
}

/// Execute a scenario with recovery-episode tracing enabled, producing both
/// the [`Report`] and the merged per-member event [`obs::Timeline`].
/// Tracing only records — it never perturbs timers or RNG draws — so the
/// report is identical to an untraced [`run`].
pub fn run_with_trace(scenario: &Scenario) -> Result<(Report, obs::Timeline), RunError> {
    run_inner(scenario, true).map(|(r, tl)| (r, tl.expect("traced run yields a timeline")))
}

fn run_inner(
    scenario: &Scenario,
    traced: bool,
) -> Result<(Report, Option<obs::Timeline>), RunError> {
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let topo = build_topology(&scenario.topology, &mut rng);
    let n = topo.num_nodes() as u32;

    // Membership.
    let members: Vec<NodeId> = match &scenario.members {
        MembersSpec::List(ids) => {
            for &id in ids {
                if id >= n {
                    return Err(RunError::BadNode(id));
                }
            }
            let mut v: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
            v.sort_unstable();
            v.dedup();
            v
        }
        MembersSpec::Random { random } => generators::random_members(&topo, *random, &mut rng),
        MembersSpec::All(_) => match scenario.topology {
            TopologySpec::Star { leaves } => (1..=leaves as u32).map(NodeId).collect(),
            _ => topo.nodes().collect(),
        },
    };
    if members.is_empty() {
        return Err(RunError::NoMembers);
    }
    let source = match scenario.source {
        Some(s) => {
            if s >= n {
                return Err(RunError::BadNode(s));
            }
            NodeId(s)
        }
        None => members[0],
    };

    // Loss model (resolve node pairs to links first).
    let loss: Box<dyn netsim::loss::LossModel> = match &scenario.loss {
        LossSpec::None => Box::new(NoLoss),
        LossSpec::Bernoulli { p } => Box::new(BernoulliLoss::everywhere(*p, scenario.seed ^ 0x10)),
        LossSpec::Scripted { a, b, ordinals } => {
            let link = topo
                .link_between(NodeId(*a), NodeId(*b))
                .ok_or(RunError::NoSuchLink(*a, *b))?;
            Box::new(ScriptedDrop::new(
                ordinals.iter().map(|&o| (link, o)).collect(),
            ))
        }
    };

    // Agents, with pre-warmed distances.
    let cfg = build_config(&scenario.config, members.len());
    let mut sim = Simulator::new(topo, scenario.seed ^ 0x5eed);
    let page = PageId::new(SourceId(source.0 as u64), 0);
    let trees: Vec<(NodeId, SpTree)> = members
        .iter()
        .map(|&m| (m, SpTree::compute(sim.topology(), m)))
        .collect();
    for &m in &members {
        let mut a = SrmAgent::new(SourceId(m.0 as u64), GROUP, cfg.clone());
        a.session_enabled = scenario.config.session_messages;
        a.set_current_page(page);
        for (o, t) in &trees {
            if *o != m {
                a.distances_mut()
                    .set_distance(SourceId(o.0 as u64), t.distance(m));
            }
        }
        sim.install(m, a);
        sim.join(m, GROUP);
    }
    sim.set_loss_model(loss);
    if traced {
        srm::enable_tracing(&mut sim);
    }
    if scenario.effects.duplication > 0.0 || scenario.effects.jitter_secs > 0.0 {
        sim.set_channel_effects(Box::new(RandomEffects::new(
            scenario.effects.duplication,
            SimDuration::from_secs_f64(scenario.effects.jitter_secs),
            scenario.seed ^ 0x20,
        )));
    }

    // Workload.
    let w = &scenario.workload;
    for k in 0..w.adus {
        sim.exec(source, |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![(k % 251) as u8; w.payload_bytes]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs_f64(w.interval_secs));
    }
    // Settle.
    let deadline = sim.now() + SimDuration::from_secs_f64(scenario.settle_secs);
    if scenario.config.session_messages {
        sim.run_until(deadline);
    } else if !sim.run_until_idle(deadline) {
        return Err(RunError::DidNotSettle);
    }

    // Report.
    let mut per_member = Vec::new();
    let mut complete = 0;
    let (mut tr, mut tp, mut ts) = (0u64, 0u64, 0u64);
    for &m in &members {
        let a = sim.app(m).unwrap();
        let held = a.store().len();
        if m != source && held as u32 >= w.adus {
            complete += 1;
        }
        tr += a.metrics.requests_sent;
        tp += a.metrics.repairs_sent;
        ts += a.metrics.session_sent;
        per_member.push(MemberReport {
            node: m.0,
            adus_held: held,
            requests_sent: a.metrics.requests_sent,
            repairs_sent: a.metrics.repairs_sent,
            fec_recoveries: a.fec_recoveries,
            all_recovered: a.metrics.all_recovered(),
        });
    }
    let timeline = traced.then(|| srm::harvest_timeline(&mut sim, Vec::new()));
    let report = Report {
        members: members.len(),
        source: source.0,
        adus_sent: w.adus,
        complete_receivers: complete,
        total_requests: tr,
        total_repairs: tp,
        total_sessions: ts,
        hops: HopsReport {
            data: sim.stats.hops_for(flow::DATA),
            requests: sim.stats.hops_for(flow::REQUEST),
            repairs: sim.stats.hops_for(flow::REPAIR),
            sessions: sim.stats.hops_for(flow::SESSION),
            parity: sim.stats.hops_for(flow::PARITY),
        },
        per_member,
        sim_seconds: sim.now().as_secs_f64(),
        events: sim.stats.events,
    };
    Ok((report, timeline))
}

impl Report {
    /// Render as a human-readable summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        let _ = writeln!(
            s,
            "session: {} members, source n{}, {} ADUs sent",
            self.members, self.source, self.adus_sent
        );
        let _ = writeln!(
            s,
            "outcome: {}/{} receivers complete; {} requests, {} repairs, {} session msgs",
            self.complete_receivers,
            self.members - 1,
            self.total_requests,
            self.total_repairs,
            self.total_sessions
        );
        let _ = writeln!(
            s,
            "bandwidth (link crossings): data {} | requests {} | repairs {} | sessions {} | parity {}",
            self.hops.data, self.hops.requests, self.hops.repairs, self.hops.sessions, self.hops.parity
        );
        let _ = writeln!(
            s,
            "simulated {:.1}s, {} events",
            self.sim_seconds, self.events
        );
        s
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        let num = |n: f64| Json::Num(n);
        let per_member: Vec<Json> = self
            .per_member
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("node".to_string(), num(m.node as f64)),
                    ("adus_held".to_string(), num(m.adus_held as f64)),
                    ("requests_sent".to_string(), num(m.requests_sent as f64)),
                    ("repairs_sent".to_string(), num(m.repairs_sent as f64)),
                    ("fec_recoveries".to_string(), num(m.fec_recoveries as f64)),
                    ("all_recovered".to_string(), Json::Bool(m.all_recovered)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("members".to_string(), num(self.members as f64)),
            ("source".to_string(), num(self.source as f64)),
            ("adus_sent".to_string(), num(self.adus_sent as f64)),
            (
                "complete_receivers".to_string(),
                num(self.complete_receivers as f64),
            ),
            ("total_requests".to_string(), num(self.total_requests as f64)),
            ("total_repairs".to_string(), num(self.total_repairs as f64)),
            ("total_sessions".to_string(), num(self.total_sessions as f64)),
            (
                "hops".to_string(),
                Json::Obj(vec![
                    ("data".to_string(), num(self.hops.data as f64)),
                    ("requests".to_string(), num(self.hops.requests as f64)),
                    ("repairs".to_string(), num(self.hops.repairs as f64)),
                    ("sessions".to_string(), num(self.hops.sessions as f64)),
                    ("parity".to_string(), num(self.hops.parity as f64)),
                ]),
            ),
            ("per_member".to_string(), Json::Arr(per_member)),
            ("sim_seconds".to_string(), num(self.sim_seconds)),
            ("events".to_string(), num(self.events as f64)),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn base() -> Scenario {
        Scenario::from_json(
            r#"{
                "topology": {"kind": "chain", "n": 8},
                "members": "all",
                "config": {"session_messages": false},
                "loss": {"kind": "scripted", "a": 3, "b": 4, "ordinals": [1]},
                "settle_secs": 100000
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn chain_scenario_runs_and_recovers() {
        let r = run(&base()).unwrap();
        assert_eq!(r.members, 8);
        assert_eq!(r.complete_receivers, 7);
        assert!(r.total_requests >= 1);
        assert!(r.total_repairs >= 1);
        assert!(r.per_member.iter().all(|m| m.all_recovered));
    }

    #[test]
    fn fec_scenario_avoids_requests() {
        let mut sc = base();
        sc.config.fec_k = 5;
        sc.workload = WorkloadSpec {
            adus: 5,
            interval_secs: 2.0,
            payload_bytes: 32,
        };
        // One loss inside the 5-ADU block; drop ordinal 2 (the 2nd data
        // crossing on that link).
        sc.loss = LossSpec::Scripted {
            a: 3,
            b: 4,
            ordinals: vec![2],
        };
        let r = run(&sc).unwrap();
        assert_eq!(r.complete_receivers, 7);
        assert_eq!(r.total_requests, 0, "parity reconstruction preempted recovery");
        assert!(r.per_member.iter().any(|m| m.fec_recoveries > 0));
    }

    #[test]
    fn bad_references_are_reported() {
        let mut sc = base();
        sc.source = Some(99);
        assert!(matches!(run(&sc), Err(RunError::BadNode(99))));
        let mut sc = base();
        sc.loss = LossSpec::Scripted {
            a: 0,
            b: 5,
            ordinals: vec![1],
        };
        assert!(matches!(run(&sc), Err(RunError::NoSuchLink(0, 5))));
        let mut sc = base();
        sc.members = MembersSpec::List(vec![]);
        assert!(matches!(run(&sc), Err(RunError::NoMembers)));
    }

    #[test]
    fn traced_run_matches_untraced_and_yields_events() {
        let plain = run(&base()).unwrap();
        let (traced, tl) = run_with_trace(&base()).unwrap();
        // Tracing is observation-only: the protocol outcome is unchanged.
        assert_eq!(plain.total_requests, traced.total_requests);
        assert_eq!(plain.total_repairs, traced.total_repairs);
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.sim_seconds, traced.sim_seconds);
        // The dropped ADU produced a recovery episode worth of events.
        assert!(!tl.is_empty());
        assert!(tl.to_jsonl().contains("\"ev\":\"request_sent\""));
        assert!(tl.chains().iter().any(|c| c.recovered_at.is_some()));
    }

    #[test]
    fn report_serializes() {
        let r = run(&base()).unwrap();
        let js = r.to_json();
        assert!(js.contains("complete_receivers"));
        assert!(r.render().contains("receivers complete"));
    }
}

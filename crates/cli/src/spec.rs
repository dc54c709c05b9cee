//! The JSON scenario schema for `srm-sim`.
//!
//! A scenario file describes a topology, a session membership, an SRM
//! configuration, a loss process, and a workload; [`crate::run()`](crate::run()) executes
//! it and reports traffic and recovery statistics.
//!
//! Parsing and serialization are hand-written over [`obs::json`] (the
//! workspace builds offline, without serde); the wire shapes match the
//! original serde derives: `{"kind": ...}`-tagged topology and loss,
//! untagged members/timers, defaultable config/effects/workload sections.

use obs::json::{Json, JsonError};
use std::fmt;

/// Topology description.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// A chain of `n` nodes.
    Chain {
        /// Node count.
        n: usize,
    },
    /// A star with `leaves` leaf nodes and a non-member hub (node 0).
    Star {
        /// Leaf count.
        leaves: usize,
    },
    /// A balanced bounded-degree tree.
    BoundedTree {
        /// Node count.
        n: usize,
        /// Interior degree.
        degree: usize,
    },
    /// A uniformly random labeled tree.
    RandomTree {
        /// Node count.
        n: usize,
    },
    /// A connected random graph.
    RandomGraph {
        /// Node count.
        n: usize,
        /// Edge count (≥ n−1).
        m: usize,
    },
}

/// Which nodes join the session.
#[derive(Clone, Debug, PartialEq)]
pub enum MembersSpec {
    /// Explicit node ids.
    List(Vec<u32>),
    /// `{"random": k}`: k members chosen uniformly.
    Random {
        /// Member count.
        random: usize,
    },
    /// The string "all": every node joins.
    All(AllTag),
}

/// The literal string "all".
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AllTag {
    /// Every node is a member.
    All,
}

/// Timer parameter selection.
#[derive(Clone, Debug, PartialEq)]
pub enum TimersSpec {
    /// `"fixed"`: the paper's C1=D1=2, C2=D2=√G.
    Preset(TimerPreset),
    /// Explicit constants.
    Explicit {
        /// Request interval start multiplier.
        c1: f64,
        /// Request interval width multiplier.
        c2: f64,
        /// Repair interval start multiplier.
        d1: f64,
        /// Repair interval width multiplier.
        d2: f64,
    },
}

/// Named timer presets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimerPreset {
    /// C1=D1=2, C2=D2=√G (Section V).
    Fixed,
    /// The Section VII-A adaptive algorithm (backoff ×3).
    Adaptive,
    /// wb 1.59's fixed millisecond intervals.
    Wb159,
}

/// Recovery scope selection.
#[derive(Clone, Debug, PartialEq)]
pub enum ScopeSpec {
    /// Global recovery (default).
    Global,
    /// TTL-scoped with two-step repairs.
    Ttl {
        /// Initial request TTL.
        ttl: u8,
    },
    /// Administratively scoped.
    Admin,
}

/// Protocol configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigSpec {
    /// Timer selection.
    pub timers: TimersSpec,
    /// Recovery scope.
    pub scope: ScopeSpec,
    /// FEC block size (`0` = off).
    pub fec_k: u8,
    /// Enable Section VII-B2 recovery groups with this invite TTL
    /// (`0` = off).
    pub recovery_group_ttl: u8,
    /// Enable Section IX-A hierarchical session messages with this local
    /// TTL (`0` = off).
    pub hierarchy_ttl: u8,
    /// Periodic session messages on/off.
    pub session_messages: bool,
    /// Token-bucket send limit in bytes/second (`0` = unlimited).
    pub rate_limit_bps: f64,
}

impl Default for ConfigSpec {
    fn default() -> Self {
        ConfigSpec {
            timers: TimersSpec::Preset(TimerPreset::Fixed),
            scope: ScopeSpec::Global,
            fec_k: 0,
            recovery_group_ttl: 0,
            hierarchy_ttl: 0,
            session_messages: true,
            rate_limit_bps: 0.0,
        }
    }
}

/// Loss process.
#[derive(Clone, Debug, PartialEq)]
pub enum LossSpec {
    /// No loss.
    None,
    /// Independent Bernoulli loss on every link.
    Bernoulli {
        /// Drop probability.
        p: f64,
    },
    /// Drop the given (1-based) packet ordinals on the link between two
    /// nodes.
    Scripted {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// 1-based ordinals of crossings to drop.
        ordinals: Vec<u64>,
    },
}

/// Channel effects.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct EffectsSpec {
    /// Per-hop duplication probability.
    pub duplication: f64,
    /// Maximum per-hop reordering jitter, seconds.
    pub jitter_secs: f64,
}

/// Data workload: the source streams ADUs.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of ADUs to originate.
    pub adus: u32,
    /// Seconds between ADUs.
    pub interval_secs: f64,
    /// Payload size in bytes.
    pub payload_bytes: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            adus: 10,
            interval_secs: 5.0,
            payload_bytes: 64,
        }
    }
}

/// A complete scenario file.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Topology to build.
    pub topology: TopologySpec,
    /// RNG seed (topology, membership, and protocol timers).
    pub seed: u64,
    /// Session membership.
    pub members: MembersSpec,
    /// Data source: a node id, or absent for the first member.
    pub source: Option<u32>,
    /// Protocol configuration.
    pub config: ConfigSpec,
    /// Loss process.
    pub loss: LossSpec,
    /// Channel effects.
    pub effects: EffectsSpec,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Extra settle time after the workload, seconds.
    pub settle_secs: f64,
}

/// A scenario that failed to parse.
#[derive(Clone, Debug)]
pub enum SpecError {
    /// The input is not JSON at all.
    Syntax(JsonError),
    /// The JSON does not match the schema; the string names the field.
    Schema(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError::Schema(msg.into())
}

fn req_u64(v: &Json, field: &str) -> Result<u64, SpecError> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("'{field}' must be a non-negative integer")))
}

fn req_f64(v: &Json, field: &str) -> Result<f64, SpecError> {
    v.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("'{field}' must be a number")))
}

impl TopologySpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("topology needs a string 'kind'"))?;
        Ok(match kind {
            "chain" => TopologySpec::Chain {
                n: req_u64(v, "n")? as usize,
            },
            "star" => TopologySpec::Star {
                leaves: req_u64(v, "leaves")? as usize,
            },
            "bounded_tree" => TopologySpec::BoundedTree {
                n: req_u64(v, "n")? as usize,
                degree: req_u64(v, "degree")? as usize,
            },
            "random_tree" => TopologySpec::RandomTree {
                n: req_u64(v, "n")? as usize,
            },
            "random_graph" => TopologySpec::RandomGraph {
                n: req_u64(v, "n")? as usize,
                m: req_u64(v, "m")? as usize,
            },
            other => return Err(bad(format!("unknown topology kind '{other}'"))),
        })
    }

    fn to_json(&self) -> Json {
        let obj = |fields: Vec<(&str, u64)>, kind: &str| {
            let mut m = vec![("kind".to_string(), Json::Str(kind.to_string()))];
            m.extend(
                fields
                    .into_iter()
                    .map(|(k, n)| (k.to_string(), Json::Num(n as f64))),
            );
            Json::Obj(m)
        };
        match *self {
            TopologySpec::Chain { n } => obj(vec![("n", n as u64)], "chain"),
            TopologySpec::Star { leaves } => obj(vec![("leaves", leaves as u64)], "star"),
            TopologySpec::BoundedTree { n, degree } => obj(
                vec![("n", n as u64), ("degree", degree as u64)],
                "bounded_tree",
            ),
            TopologySpec::RandomTree { n } => obj(vec![("n", n as u64)], "random_tree"),
            TopologySpec::RandomGraph { n, m } => {
                obj(vec![("n", n as u64), ("m", m as u64)], "random_graph")
            }
        }
    }
}

impl MembersSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        match v {
            Json::Arr(items) => {
                let ids = items
                    .iter()
                    .map(|e| {
                        e.as_u64()
                            .filter(|&n| n <= u32::MAX as u64)
                            .map(|n| n as u32)
                            .ok_or_else(|| bad("member ids must be u32"))
                    })
                    .collect::<Result<Vec<u32>, _>>()?;
                Ok(MembersSpec::List(ids))
            }
            Json::Str(s) if s == "all" => Ok(MembersSpec::All(AllTag::All)),
            Json::Obj(_) => Ok(MembersSpec::Random {
                random: req_u64(v, "random")? as usize,
            }),
            _ => Err(bad("'members' must be a list, {\"random\": k}, or \"all\"")),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            MembersSpec::List(ids) => {
                Json::Arr(ids.iter().map(|&i| Json::Num(i as f64)).collect())
            }
            MembersSpec::Random { random } => {
                Json::Obj(vec![("random".to_string(), Json::Num(*random as f64))])
            }
            MembersSpec::All(_) => Json::Str("all".to_string()),
        }
    }
}

impl TimersSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        match v {
            Json::Str(s) => Ok(TimersSpec::Preset(match s.as_str() {
                "fixed" => TimerPreset::Fixed,
                "adaptive" => TimerPreset::Adaptive,
                "wb159" => TimerPreset::Wb159,
                other => return Err(bad(format!("unknown timer preset '{other}'"))),
            })),
            Json::Obj(_) => Ok(TimersSpec::Explicit {
                c1: req_f64(v, "c1")?,
                c2: req_f64(v, "c2")?,
                d1: req_f64(v, "d1")?,
                d2: req_f64(v, "d2")?,
            }),
            _ => Err(bad("'timers' must be a preset name or {c1,c2,d1,d2}")),
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            TimersSpec::Preset(p) => Json::Str(
                match p {
                    TimerPreset::Fixed => "fixed",
                    TimerPreset::Adaptive => "adaptive",
                    TimerPreset::Wb159 => "wb159",
                }
                .to_string(),
            ),
            TimersSpec::Explicit { c1, c2, d1, d2 } => Json::Obj(vec![
                ("c1".to_string(), Json::Num(c1)),
                ("c2".to_string(), Json::Num(c2)),
                ("d1".to_string(), Json::Num(d1)),
                ("d2".to_string(), Json::Num(d2)),
            ]),
        }
    }
}

impl ScopeSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        match v {
            Json::Str(s) if s == "global" => Ok(ScopeSpec::Global),
            Json::Str(s) if s == "admin" => Ok(ScopeSpec::Admin),
            Json::Obj(_) => {
                let inner = v
                    .get("ttl")
                    .ok_or_else(|| bad("scope object must be {\"ttl\": {\"ttl\": n}}"))?;
                let ttl = req_u64(inner, "ttl")?;
                if ttl > u8::MAX as u64 {
                    return Err(bad("scope ttl must fit in u8"));
                }
                Ok(ScopeSpec::Ttl { ttl: ttl as u8 })
            }
            _ => Err(bad("'scope' must be \"global\", \"admin\", or a ttl object")),
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            ScopeSpec::Global => Json::Str("global".to_string()),
            ScopeSpec::Admin => Json::Str("admin".to_string()),
            ScopeSpec::Ttl { ttl } => Json::Obj(vec![(
                "ttl".to_string(),
                Json::Obj(vec![("ttl".to_string(), Json::Num(ttl as f64))]),
            )]),
        }
    }
}

impl ConfigSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        if v.as_obj().is_none() {
            return Err(bad("'config' must be an object"));
        }
        let mut cfg = ConfigSpec::default();
        if let Some(t) = v.get("timers") {
            cfg.timers = TimersSpec::from_json(t)?;
        }
        if let Some(s) = v.get("scope") {
            cfg.scope = ScopeSpec::from_json(s)?;
        }
        if v.get("fec_k").is_some() {
            cfg.fec_k = req_u64(v, "fec_k")? as u8;
        }
        if v.get("recovery_group_ttl").is_some() {
            cfg.recovery_group_ttl = req_u64(v, "recovery_group_ttl")? as u8;
        }
        if v.get("hierarchy_ttl").is_some() {
            cfg.hierarchy_ttl = req_u64(v, "hierarchy_ttl")? as u8;
        }
        if let Some(b) = v.get("session_messages") {
            cfg.session_messages = b
                .as_bool()
                .ok_or_else(|| bad("'session_messages' must be a boolean"))?;
        }
        if v.get("rate_limit_bps").is_some() {
            cfg.rate_limit_bps = req_f64(v, "rate_limit_bps")?;
        }
        Ok(cfg)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("timers".to_string(), self.timers.to_json()),
            ("scope".to_string(), self.scope.to_json()),
            ("fec_k".to_string(), Json::Num(self.fec_k as f64)),
            (
                "recovery_group_ttl".to_string(),
                Json::Num(self.recovery_group_ttl as f64),
            ),
            (
                "hierarchy_ttl".to_string(),
                Json::Num(self.hierarchy_ttl as f64),
            ),
            (
                "session_messages".to_string(),
                Json::Bool(self.session_messages),
            ),
            ("rate_limit_bps".to_string(), Json::Num(self.rate_limit_bps)),
        ])
    }
}

impl LossSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("loss needs a string 'kind'"))?;
        Ok(match kind {
            "none" => LossSpec::None,
            "bernoulli" => LossSpec::Bernoulli {
                p: req_f64(v, "p")?,
            },
            "scripted" => LossSpec::Scripted {
                a: req_u64(v, "a")? as u32,
                b: req_u64(v, "b")? as u32,
                ordinals: v
                    .get("ordinals")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("'ordinals' must be an array"))?
                    .iter()
                    .map(|e| e.as_u64().ok_or_else(|| bad("ordinals must be integers")))
                    .collect::<Result<Vec<u64>, _>>()?,
            },
            other => return Err(bad(format!("unknown loss kind '{other}'"))),
        })
    }

    fn to_json(&self) -> Json {
        match self {
            LossSpec::None => {
                Json::Obj(vec![("kind".to_string(), Json::Str("none".to_string()))])
            }
            LossSpec::Bernoulli { p } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("bernoulli".to_string())),
                ("p".to_string(), Json::Num(*p)),
            ]),
            LossSpec::Scripted { a, b, ordinals } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("scripted".to_string())),
                ("a".to_string(), Json::Num(*a as f64)),
                ("b".to_string(), Json::Num(*b as f64)),
                (
                    "ordinals".to_string(),
                    Json::Arr(ordinals.iter().map(|&o| Json::Num(o as f64)).collect()),
                ),
            ]),
        }
    }
}

impl EffectsSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        if v.as_obj().is_none() {
            return Err(bad("'effects' must be an object"));
        }
        let mut e = EffectsSpec::default();
        if v.get("duplication").is_some() {
            e.duplication = req_f64(v, "duplication")?;
        }
        if v.get("jitter_secs").is_some() {
            e.jitter_secs = req_f64(v, "jitter_secs")?;
        }
        Ok(e)
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("duplication".to_string(), Json::Num(self.duplication)),
            ("jitter_secs".to_string(), Json::Num(self.jitter_secs)),
        ])
    }
}

impl WorkloadSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        if v.as_obj().is_none() {
            return Err(bad("'workload' must be an object"));
        }
        let mut w = WorkloadSpec::default();
        if v.get("adus").is_some() {
            w.adus = req_u64(v, "adus")? as u32;
        }
        if v.get("interval_secs").is_some() {
            w.interval_secs = req_f64(v, "interval_secs")?;
        }
        if v.get("payload_bytes").is_some() {
            w.payload_bytes = req_u64(v, "payload_bytes")? as usize;
        }
        Ok(w)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("adus".to_string(), Json::Num(self.adus as f64)),
            ("interval_secs".to_string(), Json::Num(self.interval_secs)),
            (
                "payload_bytes".to_string(),
                Json::Num(self.payload_bytes as f64),
            ),
        ])
    }
}

impl Scenario {
    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Scenario, SpecError> {
        let v = Json::parse(s).map_err(SpecError::Syntax)?;
        if v.as_obj().is_none() {
            return Err(bad("scenario must be a JSON object"));
        }
        let topology = TopologySpec::from_json(
            v.get("topology")
                .ok_or_else(|| bad("missing required field 'topology'"))?,
        )?;
        let members = MembersSpec::from_json(
            v.get("members")
                .ok_or_else(|| bad("missing required field 'members'"))?,
        )?;
        let seed = match v.get("seed") {
            Some(s) => s
                .as_u64()
                .ok_or_else(|| bad("'seed' must be a non-negative integer"))?,
            None => 0,
        };
        let source = match v.get("source") {
            Some(Json::Null) | None => None,
            Some(s) => Some(
                s.as_u64()
                    .filter(|&n| n <= u32::MAX as u64)
                    .map(|n| n as u32)
                    .ok_or_else(|| bad("'source' must be a u32 node id"))?,
            ),
        };
        let config = match v.get("config") {
            Some(c) => ConfigSpec::from_json(c)?,
            None => ConfigSpec::default(),
        };
        let loss = match v.get("loss") {
            Some(l) => LossSpec::from_json(l)?,
            None => LossSpec::None,
        };
        let effects = match v.get("effects") {
            Some(e) => EffectsSpec::from_json(e)?,
            None => EffectsSpec::default(),
        };
        let workload = match v.get("workload") {
            Some(w) => WorkloadSpec::from_json(w)?,
            None => WorkloadSpec::default(),
        };
        let settle_secs = match v.get("settle_secs") {
            Some(s) => s
                .as_f64()
                .ok_or_else(|| bad("'settle_secs' must be a number"))?,
            None => 2000.0,
        };
        Ok(Scenario {
            topology,
            seed,
            members,
            source,
            config,
            loss,
            effects,
            workload,
            settle_secs,
        })
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut m = vec![
            ("topology".to_string(), self.topology.to_json()),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("members".to_string(), self.members.to_json()),
        ];
        if let Some(s) = self.source {
            m.push(("source".to_string(), Json::Num(s as f64)));
        }
        m.push(("config".to_string(), self.config.to_json()));
        m.push(("loss".to_string(), self.loss.to_json()));
        m.push(("effects".to_string(), self.effects.to_json()));
        m.push(("workload".to_string(), self.workload.to_json()));
        m.push(("settle_secs".to_string(), Json::Num(self.settle_secs)));
        Json::Obj(m).pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses() {
        let s = r#"{
            "topology": {"kind": "chain", "n": 10},
            "members": "all"
        }"#;
        let sc = Scenario::from_json(s).unwrap();
        assert_eq!(sc.topology, TopologySpec::Chain { n: 10 });
        assert_eq!(sc.members, MembersSpec::All(AllTag::All));
        assert_eq!(sc.config.timers, TimersSpec::Preset(TimerPreset::Fixed));
        assert_eq!(sc.loss, LossSpec::None);
    }

    #[test]
    fn full_scenario_roundtrips() {
        let sc = Scenario {
            topology: TopologySpec::BoundedTree { n: 200, degree: 4 },
            seed: 7,
            members: MembersSpec::Random { random: 20 },
            source: Some(3),
            config: ConfigSpec {
                timers: TimersSpec::Explicit {
                    c1: 2.0,
                    c2: 5.0,
                    d1: 1.0,
                    d2: 5.0,
                },
                scope: ScopeSpec::Ttl { ttl: 8 },
                fec_k: 4,
                recovery_group_ttl: 3,
                hierarchy_ttl: 2,
                session_messages: true,
                rate_limit_bps: 8000.0,
            },
            loss: LossSpec::Bernoulli { p: 0.02 },
            effects: EffectsSpec {
                duplication: 0.01,
                jitter_secs: 0.2,
            },
            workload: WorkloadSpec {
                adus: 30,
                interval_secs: 2.0,
                payload_bytes: 128,
            },
            settle_secs: 500.0,
        };
        let parsed = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(parsed, sc);
    }

    #[test]
    fn member_list_and_preset_variants() {
        let s = r#"{
            "topology": {"kind": "star", "leaves": 5},
            "members": [1, 2, 3],
            "config": {"timers": "adaptive"}
        }"#;
        let sc = Scenario::from_json(s).unwrap();
        assert_eq!(sc.members, MembersSpec::List(vec![1, 2, 3]));
        assert_eq!(sc.config.timers, TimersSpec::Preset(TimerPreset::Adaptive));
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json("not json").is_err());
    }

    #[test]
    fn scope_and_source_variants_roundtrip() {
        for scope in [ScopeSpec::Global, ScopeSpec::Admin, ScopeSpec::Ttl { ttl: 9 }] {
            let mut sc = Scenario::from_json(
                r#"{"topology": {"kind": "chain", "n": 4}, "members": "all"}"#,
            )
            .unwrap();
            sc.config.scope = scope.clone();
            let parsed = Scenario::from_json(&sc.to_json()).unwrap();
            assert_eq!(parsed.config.scope, scope);
            assert_eq!(parsed.source, None);
        }
    }
}

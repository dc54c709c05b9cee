//! `srm-experiments monitor` — aggregate and validate the observability
//! JSONL streams the wall-clock transport emits: `srm-node monitor --out`
//! group-health snapshots and `srm-node --stats-file` metrics snapshots.
//!
//! The two files describe the same run from opposite ends of the wire —
//! the monitor reconstructs group health passively from session messages,
//! the stats file records what a member's own reactor measured — so the
//! aggregator's job is (a) schema validation for CI, and (b) a post-hoc
//! diff: per-member trajectories from the monitor's view next to the
//! sender's own counters.
//!
//! Both formats are versioned (`"v":1`); unknown versions fail validation
//! rather than being misread.

use obs::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A validation failure: which line (1-based) and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number in the offending file.
    pub line: usize,
    /// What was wrong.
    pub why: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.why)
    }
}

fn err(line: usize, why: impl Into<String>) -> SchemaError {
    SchemaError { line, why: why.into() }
}

/// One member's trajectory folded over every monitor snapshot.
#[derive(Debug, Clone, Default)]
pub struct MemberTrajectory {
    /// Last reported liveness state.
    pub last_state: String,
    /// Session messages heard, as of the final snapshot.
    pub sessions: u64,
    /// Frames heard, as of the final snapshot.
    pub frames: u64,
    /// Worst highest-seq lag observed in any snapshot.
    pub peak_lag: u64,
    /// Longest silence observed in any snapshot (seconds).
    pub peak_silence: f64,
    /// Last RTT estimate (seconds), if one was ever reported.
    pub rtt: Option<f64>,
    /// State transitions as `(snapshot seq, new state)`, first snapshot
    /// included.
    pub transitions: Vec<(u64, String)>,
}

/// Everything extracted from one monitor JSONL file.
#[derive(Debug, Clone, Default)]
pub struct MonitorDigest {
    /// Snapshots seen.
    pub snapshots: u64,
    /// Monitor-clock span `(first, last)` of the snapshots.
    pub span: (f64, f64),
    /// Per-member trajectories, in member-id order.
    pub members: BTreeMap<u64, MemberTrajectory>,
}

/// Parse and validate a monitor JSONL stream (`srm-node monitor --out`).
pub fn digest_monitor(text: &str) -> Result<MonitorDigest, SchemaError> {
    let mut digest = MonitorDigest::default();
    let mut last_seq: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| err(ln, format!("unparseable: {e:?}")))?;
        let v = j.get("v").and_then(Json::as_u64);
        if v != Some(1) {
            return Err(err(ln, format!("unsupported snapshot version {v:?}")));
        }
        if j.get("kind").and_then(Json::as_str) != Some("monitor") {
            return Err(err(ln, "kind is not \"monitor\""));
        }
        let seq = j
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| err(ln, "missing seq"))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(err(ln, format!("seq {seq} does not advance past {prev}")));
            }
        }
        last_seq = Some(seq);
        let at = j
            .get("at")
            .and_then(Json::as_f64)
            .ok_or_else(|| err(ln, "missing at"))?;
        if digest.snapshots == 0 {
            digest.span.0 = at;
        }
        digest.span.1 = at;
        digest.snapshots += 1;
        let members = j
            .get("members")
            .and_then(Json::as_arr)
            .ok_or_else(|| err(ln, "missing members array"))?;
        for m in members {
            let id = m
                .get("member")
                .and_then(Json::as_u64)
                .ok_or_else(|| err(ln, "member entry without id"))?;
            let state = m
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| err(ln, "member entry without state"))?;
            if !matches!(state, "alive" | "suspect" | "dead") {
                return Err(err(ln, format!("unknown state {state:?}")));
            }
            for key in ["silence", "sessions", "frames", "max_lag", "reported_loss"] {
                if m.get(key).and_then(Json::as_f64).is_none() {
                    return Err(err(ln, format!("member {id} missing {key}")));
                }
            }
            if m.get("lag").and_then(Json::as_arr).is_none() {
                return Err(err(ln, format!("member {id} missing lag array")));
            }
            let t = digest.members.entry(id).or_default();
            if t.transitions.last().map(|(_, s)| s.as_str()) != Some(state) {
                t.transitions.push((seq, state.to_string()));
            }
            t.last_state = state.to_string();
            t.sessions = m.get("sessions").and_then(Json::as_u64).unwrap_or(0);
            t.frames = m.get("frames").and_then(Json::as_u64).unwrap_or(0);
            t.peak_lag = t.peak_lag.max(m.get("max_lag").and_then(Json::as_u64).unwrap_or(0));
            t.peak_silence =
                t.peak_silence.max(m.get("silence").and_then(Json::as_f64).unwrap_or(0.0));
            if let Some(r) = m.get("rtt").and_then(Json::as_f64) {
                t.rtt = Some(r);
            }
        }
    }
    if digest.snapshots == 0 {
        return Err(err(0, "no snapshots in file"));
    }
    Ok(digest)
}

/// Everything extracted from one metrics-snapshot JSONL file
/// (`srm-node --stats-file`).
#[derive(Debug, Clone, Default)]
pub struct StatsDigest {
    /// Snapshots seen.
    pub snapshots: u64,
    /// Node-clock span `(first, last)` of the snapshots.
    pub span: (f64, f64),
    /// Counter values from the first snapshot.
    pub first: BTreeMap<String, u64>,
    /// Counter values from the last snapshot.
    pub last: BTreeMap<String, u64>,
    /// Gauge values from the last snapshot.
    pub gauges: BTreeMap<String, u64>,
    /// Counters that ever decreased between consecutive snapshots (a
    /// restart, or a bug — reported either way).
    pub non_monotone: Vec<String>,
}

impl StatsDigest {
    /// Whole-file delta for a counter (0 if absent).
    pub fn delta(&self, name: &str) -> u64 {
        let first = self.first.get(name).copied().unwrap_or(0);
        let last = self.last.get(name).copied().unwrap_or(0);
        last.saturating_sub(first)
    }

    /// Whole-file rate for a counter, per second of snapshot span.
    pub fn rate(&self, name: &str) -> Option<f64> {
        let dt = self.span.1 - self.span.0;
        (dt > 0.0).then(|| self.delta(name) as f64 / dt)
    }
}

/// Parse and validate a metrics-snapshot JSONL stream.
pub fn digest_stats(text: &str) -> Result<StatsDigest, SchemaError> {
    let mut digest = StatsDigest::default();
    let mut prev: BTreeMap<String, u64> = BTreeMap::new();
    let mut last_seq: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| err(ln, format!("unparseable: {e:?}")))?;
        let v = j.get("v").and_then(Json::as_u64);
        if v != Some(1) {
            return Err(err(ln, format!("unsupported snapshot version {v:?}")));
        }
        let seq = j
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| err(ln, "missing seq"))?;
        if let Some(p) = last_seq {
            if seq <= p {
                return Err(err(ln, format!("seq {seq} does not advance past {p}")));
            }
        }
        last_seq = Some(seq);
        let at = j
            .get("at")
            .and_then(Json::as_f64)
            .ok_or_else(|| err(ln, "missing at"))?;
        if digest.snapshots == 0 {
            digest.span.0 = at;
        }
        digest.span.1 = at;
        digest.snapshots += 1;
        let counters = j
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or_else(|| err(ln, "missing counters object"))?;
        let mut these = BTreeMap::new();
        for (name, val) in counters {
            let val = val
                .as_u64()
                .ok_or_else(|| err(ln, format!("counter {name} is not a u64")))?;
            if let Some(&p) = prev.get(name) {
                if val < p && !digest.non_monotone.contains(name) {
                    digest.non_monotone.push(name.clone());
                }
            }
            these.insert(name.clone(), val);
        }
        let gauges = j
            .get("gauges")
            .and_then(Json::as_obj)
            .ok_or_else(|| err(ln, "missing gauges object"))?;
        for (name, val) in gauges {
            let val = val
                .as_u64()
                .ok_or_else(|| err(ln, format!("gauge {name} is not a u64")))?;
            digest.gauges.insert(name.clone(), val);
        }
        let hists = j
            .get("hists")
            .and_then(Json::as_obj)
            .ok_or_else(|| err(ln, "missing hists object"))?;
        for (name, h) in hists {
            for key in ["count", "buckets"] {
                if h.get(key).is_none() {
                    return Err(err(ln, format!("hist {name} missing {key}")));
                }
            }
        }
        if digest.first.is_empty() {
            digest.first = these.clone();
        }
        prev = these.clone();
        digest.last = these;
    }
    if digest.snapshots == 0 {
        return Err(err(0, "no snapshots in file"));
    }
    Ok(digest)
}

/// Render the combined report: monitor trajectories, then each stats
/// file's headline counters, then the cross-view diff when both exist.
pub fn render(monitor: Option<&MonitorDigest>, stats: &[(String, StatsDigest)]) -> String {
    let mut out = String::new();
    if let Some(d) = monitor {
        let _ = writeln!(
            out,
            "# monitor: {} snapshot(s) over {:.1}s, {} member(s)",
            d.snapshots,
            d.span.1 - d.span.0,
            d.members.len()
        );
        let _ = writeln!(
            out,
            "{:>7}  {:>8}  {:>8}  {:>7}  {:>9}  {:>8}  transitions",
            "member", "state", "sessions", "peaklag", "silence_s", "rtt_ms"
        );
        for (id, t) in &d.members {
            let rtt = t
                .rtt
                .map(|r| format!("{:.2}", r * 1e3))
                .unwrap_or_else(|| "-".to_string());
            let transitions: Vec<String> =
                t.transitions.iter().map(|(s, st)| format!("{st}@{s}")).collect();
            let _ = writeln!(
                out,
                "{:>7}  {:>8}  {:>8}  {:>7}  {:>9.2}  {:>8}  {}",
                format!("m{id}"),
                t.last_state,
                t.sessions,
                t.peak_lag,
                t.peak_silence,
                rtt,
                transitions.join(" -> "),
            );
        }
    }
    for (name, d) in stats {
        let _ = writeln!(
            out,
            "# stats {name}: {} snapshot(s) over {:.1}s{}",
            d.snapshots,
            d.span.1 - d.span.0,
            if d.non_monotone.is_empty() {
                String::new()
            } else {
                format!(" (non-monotone: {})", d.non_monotone.join(","))
            }
        );
        for c in ["frames.sent", "frames.received", "tx.frames.session", "rx.frames.session"] {
            let rate = d
                .rate(c)
                .map(|r| format!(" ({r:.2}/s)"))
                .unwrap_or_default();
            let _ = writeln!(out, "  {c}: {}{rate}", d.delta(c));
        }
        for g in ["wheel.high_water", "delayq.high_water"] {
            if let Some(v) = d.gauges.get(g) {
                let _ = writeln!(out, "  {g}: {v}");
            }
        }
    }
    // The cross-view diff: sessions the members put on the wire versus
    // sessions the monitor heard.  On a healthy loopback group these agree
    // closely; the gap is the monitor's own loss.
    if let (Some(m), false) = (monitor, stats.is_empty()) {
        let sent: u64 = stats.iter().map(|(_, d)| d.delta("tx.frames.session")).sum();
        let heard: u64 = m.members.values().map(|t| t.sessions).sum();
        if sent > 0 {
            let _ = writeln!(
                out,
                "# cross-view: {heard} session(s) heard by monitor, {sent} sent by {} instrumented node(s)",
                stats.len()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MON: &str = "\
{\"v\":1,\"kind\":\"monitor\",\"seq\":0,\"at\":1.0,\"group_size\":2,\"members\":[{\"member\":1,\"state\":\"alive\",\"silence\":0.1,\"sessions\":2,\"frames\":3,\"max_lag\":1,\"reported_loss\":0.0,\"rtt\":0.004,\"lag\":[{\"page\":\"1.0\",\"source\":1,\"lag\":1}]},{\"member\":2,\"state\":\"alive\",\"silence\":0.2,\"sessions\":1,\"frames\":1,\"max_lag\":0,\"reported_loss\":0.0,\"lag\":[]}]}
{\"v\":1,\"kind\":\"monitor\",\"seq\":1,\"at\":2.0,\"group_size\":2,\"members\":[{\"member\":1,\"state\":\"alive\",\"silence\":0.3,\"sessions\":3,\"frames\":5,\"max_lag\":0,\"reported_loss\":0.0,\"rtt\":0.005,\"lag\":[]},{\"member\":2,\"state\":\"suspect\",\"silence\":3.1,\"sessions\":1,\"frames\":1,\"max_lag\":0,\"reported_loss\":0.0,\"lag\":[]}]}
";

    const STATS: &str = "\
{\"v\":1,\"seq\":0,\"at\":1.0,\"counters\":{\"frames.sent\":4,\"tx.frames.session\":2},\"gauges\":{\"wheel.high_water\":3},\"hists\":{\"stage.send_s\":{\"count\":4,\"zeros\":0,\"sum\":0.001,\"min\":0.0001,\"max\":0.0005,\"buckets\":[[-50,4]]}}}
{\"v\":1,\"seq\":2,\"at\":3.0,\"counters\":{\"frames.sent\":10,\"tx.frames.session\":4},\"gauges\":{\"wheel.high_water\":5},\"hists\":{\"stage.send_s\":{\"count\":10,\"zeros\":0,\"sum\":0.002,\"min\":0.0001,\"max\":0.0005,\"buckets\":[[-50,10]]}}}
";

    #[test]
    fn monitor_digest_tracks_trajectories() {
        let d = digest_monitor(MON).expect("valid");
        assert_eq!(d.snapshots, 2);
        assert_eq!(d.span, (1.0, 2.0));
        let m1 = &d.members[&1];
        assert_eq!(m1.last_state, "alive");
        assert_eq!(m1.sessions, 3);
        assert_eq!(m1.peak_lag, 1, "peak lag survives later improvement");
        assert_eq!(m1.rtt, Some(0.005), "latest rtt wins");
        assert_eq!(m1.transitions, vec![(0, "alive".to_string())]);
        let m2 = &d.members[&2];
        assert_eq!(
            m2.transitions,
            vec![(0, "alive".to_string()), (1, "suspect".to_string())]
        );
    }

    #[test]
    fn stats_digest_deltas_and_rates() {
        let d = digest_stats(STATS).expect("valid");
        assert_eq!(d.snapshots, 2);
        assert_eq!(d.delta("frames.sent"), 6);
        assert_eq!(d.delta("tx.frames.session"), 2);
        assert!((d.rate("frames.sent").unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(d.gauges["wheel.high_water"], 5);
        assert!(d.non_monotone.is_empty());
    }

    #[test]
    fn schema_violations_are_rejected_with_line_numbers() {
        let bad_version = MON.replace("\"v\":1", "\"v\":9");
        assert_eq!(digest_monitor(&bad_version).unwrap_err().line, 1);

        let mut lines: Vec<&str> = MON.lines().collect();
        let swapped = format!("{}\n{}\n", lines[1], lines[0]);
        let e = digest_monitor(&swapped).unwrap_err();
        assert_eq!(e.line, 2, "seq regression pinned to its line");
        assert!(e.why.contains("does not advance"));

        lines[1] = "{\"v\":1,\"kind\":\"monitor\",\"seq\":1,\"at\":2.0,\"group_size\":0}";
        let missing = format!("{}\n{}\n", lines[0], lines[1]);
        assert!(digest_monitor(&missing).unwrap_err().why.contains("members"));

        assert!(digest_monitor("").is_err(), "empty file is not a valid stream");
        assert!(digest_stats("not json\n").is_err());

        let bad_state = MON.replace("\"state\":\"suspect\"", "\"state\":\"zombie\"");
        assert!(digest_monitor(&bad_state).unwrap_err().why.contains("zombie"));
    }

    #[test]
    fn stats_non_monotone_counters_are_flagged_not_fatal() {
        let regressed = STATS.replace("\"frames.sent\":10", "\"frames.sent\":1");
        let d = digest_stats(&regressed).expect("still parses");
        assert_eq!(d.non_monotone, vec!["frames.sent".to_string()]);
        assert_eq!(d.delta("frames.sent"), 0, "saturating delta");
    }

    #[test]
    fn render_combines_both_views() {
        let mon = digest_monitor(MON).unwrap();
        let stats = vec![("node1".to_string(), digest_stats(STATS).unwrap())];
        let text = render(Some(&mon), &stats);
        assert!(text.contains("m1"), "{text}");
        assert!(text.contains("suspect@1"), "{text}");
        assert!(text.contains("tx.frames.session: 2"), "{text}");
        assert!(text.contains("cross-view"), "{text}");
    }
}

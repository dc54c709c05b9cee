//! Line-JSON control plane for the multi-session hub.
//!
//! One command per line, one reply per line — the grammar a shell script,
//! a test harness, or `bash /dev/tcp` redirection can speak without a
//! client library. Commands arrive on the hub binary's stdin or its local
//! TCP listener; both feed [`handle_line`], so the two surfaces cannot
//! drift apart.
//!
//! Grammar (flat JSON objects):
//!
//! ```text
//! {"cmd":"create","group":G,"peers":["IP:PORT",...],"id":N,"members":N,
//!  "rate":BYTES_PER_SEC,"burst":BYTES,"dist_ms":MS}   // error if G exists
//! {"cmd":"join", ...same fields...}                   // idempotent create
//! {"cmd":"send","group":G,"text":"...","count":N}     // publish N ADUs
//! {"cmd":"drain","group":G}                           // flush + detach G
//! {"cmd":"stats"}                                     // hub rollup snapshot
//! {"cmd":"stop"}                                      // drain all, shut down
//! ```
//!
//! Only `group` (and `text` for `send`) is required; everything else
//! defaults (`id` 1, `members` = peers+1, no quota). Replies are JSON
//! objects with a fixed key order and no timestamps or ports, so a
//! scripted session's reply stream is byte-for-byte reproducible — the
//! golden test pins it. `stats` is the one deliberately non-pinned reply
//! (its counters are live).
//!
//! Lines are read with the workspace's one JSON parser, [`obs::json`],
//! whose nesting bound turns a hostile line into an error reply rather
//! than a stack overflow. Its syntax errors (`unexpected input at byte 0`)
//! are part of the pinned reply stream.

use crate::hub::HubHandle;
use obs::json::{escape, Json};
use std::net::SocketAddr;

/// Longest `send` text accepted: with the SRM message header and the
/// envelope around it, an ADU this size still fits one UDP datagram.
pub const MAX_SEND_TEXT: usize = 65_000;

/// Everything needed to host one group: identity, mesh, quota, seeding.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// The multicast group id (the demux key).
    pub group: u32,
    /// Peer addresses for the unicast fan-out (may be empty: sole member).
    pub peers: Vec<SocketAddr>,
    /// The member id the hub's agent runs as in this group (default 1).
    pub id: u64,
    /// Group size for the adaptive timer scaling (default peers + 1).
    pub members: usize,
    /// Token-bucket refill rate in bytes/sec; `None` disables the quota.
    pub rate: Option<f64>,
    /// Token-bucket depth in bytes (default `2 × rate`).
    pub burst: Option<f64>,
    /// Pre-seed every other member's distance estimate to this many
    /// milliseconds (assumed-converged state; live session messages refine
    /// it). `None` starts cold.
    pub dist_ms: Option<u64>,
}

/// One parsed control command.
#[derive(Clone, Debug)]
pub enum Command {
    /// Host a new group. `idempotent` is the `join` variant: re-creating
    /// an existing group reports `already:true` instead of an error.
    Create {
        /// The group to host.
        spec: GroupSpec,
        /// `join` (true) vs `create` (false) duplicate semantics.
        idempotent: bool,
    },
    /// Publish `count` ADUs of `text` on the group's page 0.
    Send {
        /// Target group.
        group: u32,
        /// ADU payload (suffixed with the index when `count > 1`).
        text: String,
        /// How many ADUs to publish.
        count: u32,
    },
    /// Gracefully drain one group: final session message, WAL flush,
    /// detach.
    Drain {
        /// Target group.
        group: u32,
    },
    /// Roll up per-group and hub-level counters.
    Stats,
    /// Drain every group and shut the hub down.
    Stop,
}

fn need_u32(cmd: &Json, name: &str) -> Result<u32, String> {
    match cmd.get(name) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => Ok(*n as u32),
        Some(_) => Err(format!("`{name}` must be a non-negative integer")),
        None => Err(format!("missing field `{name}`")),
    }
}

fn opt_u64(cmd: &Json, name: &str) -> Result<Option<u64>, String> {
    match cmd.get(name) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(format!("`{name}` must be a non-negative integer")),
        None => Ok(None),
    }
}

fn opt_f64(cmd: &Json, name: &str) -> Result<Option<f64>, String> {
    match cmd.get(name) {
        Some(Json::Num(n)) if *n > 0.0 => Ok(Some(*n)),
        Some(_) => Err(format!("`{name}` must be a positive number")),
        None => Ok(None),
    }
}

fn need_str(cmd: &Json, name: &str) -> Result<String, String> {
    match cmd.get(name) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("`{name}` must be a string")),
        None => Err(format!("missing field `{name}`")),
    }
}

/// Parse one control line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, String> {
    let f = Json::parse(line).map_err(|e| e.to_string())?;
    if f.as_obj().is_none() {
        return Err("not a JSON object".into());
    }
    let cmd = need_str(&f, "cmd")?;
    match cmd.as_str() {
        "create" | "join" => {
            let group = need_u32(&f, "group")?;
            let mut peers = Vec::new();
            if let Some(list) = f.get("peers") {
                let bad = || "`peers` must be an array of addresses".to_string();
                for it in list.as_arr().ok_or_else(bad)? {
                    let s = it.as_str().ok_or_else(bad)?;
                    peers.push(
                        s.parse::<SocketAddr>()
                            .map_err(|_| format!("bad peer address `{s}`"))?,
                    );
                }
            }
            let id = opt_u64(&f, "id")?.unwrap_or(1);
            let members = opt_u64(&f, "members")?
                .map(|m| m as usize)
                .unwrap_or(peers.len() + 1)
                .max(1);
            Ok(Command::Create {
                spec: GroupSpec {
                    group,
                    peers,
                    id,
                    members,
                    rate: opt_f64(&f, "rate")?,
                    burst: opt_f64(&f, "burst")?,
                    dist_ms: opt_u64(&f, "dist_ms")?,
                },
                idempotent: cmd == "join",
            })
        }
        "send" => {
            let group = need_u32(&f, "group")?;
            let text = need_str(&f, "text")?;
            if text.len() > MAX_SEND_TEXT {
                return Err(format!(
                    "`text` longer than {MAX_SEND_TEXT} bytes does not fit one datagram"
                ));
            }
            let count = opt_u64(&f, "count")?.unwrap_or(1).clamp(1, 100_000) as u32;
            Ok(Command::Send { group, text, count })
        }
        "drain" => Ok(Command::Drain { group: need_u32(&f, "group")? }),
        "stats" => Ok(Command::Stats),
        "stop" => Ok(Command::Stop),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

/// Execute one control line against a hub and format the one-line reply.
///
/// Every reply is a single JSON object with `ok` first; errors are
/// `{"ok":false,"error":"..."}`. The reply stream for a scripted session
/// is deterministic (no ports, clocks, or counters except in `stats`).
pub fn handle_line(hub: &HubHandle, line: &str) -> String {
    let cmd = match parse_command(line) {
        Ok(c) => c,
        Err(e) => return format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(&e)),
    };
    match cmd {
        Command::Create { spec, idempotent } => {
            let group = spec.group;
            let members = spec.members;
            match hub.create(spec, idempotent) {
                Ok(out) => {
                    if idempotent {
                        format!(
                            "{{\"ok\":true,\"cmd\":\"join\",\"group\":{},\"shard\":{},\"already\":{}}}",
                            group, out.shard, out.already
                        )
                    } else {
                        format!(
                            "{{\"ok\":true,\"cmd\":\"create\",\"group\":{},\"shard\":{},\"members\":{}}}",
                            group, out.shard, members
                        )
                    }
                }
                Err(e) => format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(&e)),
            }
        }
        Command::Send { group, text, count } => match hub.send(group, &text, count) {
            Ok(last) => format!(
                "{{\"ok\":true,\"cmd\":\"send\",\"group\":{group},\"count\":{count},\"last\":\"{}\"}}",
                escape(&last)
            ),
            Err(e) => format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(&e)),
        },
        Command::Drain { group } => match hub.drain(group) {
            Ok(out) => format!(
                "{{\"ok\":true,\"cmd\":\"drain\",\"group\":{group},\"data_sent\":{},\"delivered\":{}}}",
                out.data_sent, out.delivered
            ),
            Err(e) => format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(&e)),
        },
        Command::Stats => hub.stats().to_json_line(),
        Command::Stop => {
            let drained = hub.drain_all();
            format!("{{\"ok\":true,\"cmd\":\"stop\",\"groups\":{}}}", drained.groups)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_command_grammar() {
        let c = parse_command(
            r#"{"cmd":"create","group":7,"peers":["127.0.0.1:9000"],"id":2,"members":3,"rate":1000.5,"dist_ms":10}"#,
        )
        .unwrap();
        let Command::Create { spec, idempotent } = c else { panic!("not create") };
        assert!(!idempotent);
        assert_eq!(spec.group, 7);
        assert_eq!(spec.peers, vec!["127.0.0.1:9000".parse().unwrap()]);
        assert_eq!(spec.id, 2);
        assert_eq!(spec.members, 3);
        assert_eq!(spec.rate, Some(1000.5));
        assert_eq!(spec.burst, None);
        assert_eq!(spec.dist_ms, Some(10));

        let Command::Create { spec, idempotent } =
            parse_command(r#"{"cmd":"join","group":1}"#).unwrap()
        else {
            panic!("not join")
        };
        assert!(idempotent);
        assert_eq!(spec.members, 1, "sole member when no peers given");
        assert_eq!(spec.id, 1);

        let Command::Send { group, text, count } =
            parse_command(r#"{"cmd":"send","group":1,"text":"hi \"there\"","count":3}"#).unwrap()
        else {
            panic!("not send")
        };
        assert_eq!((group, text.as_str(), count), (1, "hi \"there\"", 3));

        assert!(matches!(parse_command(r#"{"cmd":"drain","group":4}"#), Ok(Command::Drain { group: 4 })));
        assert!(matches!(parse_command(r#"{"cmd":"stats"}"#), Ok(Command::Stats)));
        assert!(matches!(parse_command(r#"{"cmd":"stop"}"#), Ok(Command::Stop)));
    }

    #[test]
    fn rejects_malformed_commands_with_stable_messages() {
        assert_eq!(parse_command("garbage").unwrap_err(), "unexpected input at byte 0");
        assert_eq!(parse_command("not json").unwrap_err(), "bad literal at byte 0");
        assert_eq!(parse_command("[1,2]").unwrap_err(), "not a JSON object");
        assert_eq!(parse_command("{}").unwrap_err(), "missing field `cmd`");
        assert_eq!(
            parse_command(r#"{"cmd":"warp"}"#).unwrap_err(),
            "unknown cmd `warp`"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"create"}"#).unwrap_err(),
            "missing field `group`"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"create","group":-1}"#).unwrap_err(),
            "`group` must be a non-negative integer"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"create","group":1,"peers":["nope"]}"#).unwrap_err(),
            "bad peer address `nope`"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"send","group":1}"#).unwrap_err(),
            "missing field `text`"
        );
        let text = "x".repeat(MAX_SEND_TEXT + 1);
        let long = format!(r#"{{"cmd":"send","group":1,"text":"{text}"}}"#);
        assert_eq!(
            parse_command(&long).unwrap_err(),
            "`text` longer than 65000 bytes does not fit one datagram"
        );
    }

    #[test]
    fn refuses_deep_nesting_without_overflowing() {
        assert_eq!(
            parse_command(&"[".repeat(100_000)).unwrap_err(),
            "nesting deeper than 64 at byte 64"
        );
    }
}

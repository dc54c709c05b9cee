//! srm-hub end-to-end: demux partition, node equivalence, multi-group
//! fan-out, and the control-plane golden transcript.
//!
//! Four angles on the multi-session hub:
//!
//! 1. **Partition property** (proptest): `shard_of` is a total, stable
//!    partition of the group-id space, and the demux's cheap
//!    [`Envelope::precheck`] routes every well-formed frame to exactly the
//!    shard the full decode would — prechecking changes *where* a frame's
//!    fate is decided, never the fate.
//! 2. **Node equivalence**: a hub hosting one group delivers the same
//!    payload bytes to a peer that a standalone `srm-node` sender would —
//!    the hub is a packaging of the same agent, not a different protocol.
//! 3. **Concurrent groups**: one hub hosts 8 groups on loopback, each
//!    with its own receiver node; every group's ADUs arrive, sessions
//!    stay isolated, and passive [`GroupMonitor`]s on two of the groups
//!    reconstruct member health from session messages alone (§III-A).
//! 4. **Control golden**: a scripted line-JSON session replays against
//!    `tests/golden/hub_control.jsonl` byte-for-byte, including malformed
//!    commands and duplicate-group errors.
//!
//! Plus the satellite checks that a standalone node counts (rather than
//! silently eats) well-formed frames for groups it never joined, that a
//! hostile control line gets an error reply instead of aborting the hub,
//! and that the hub's registry holds its transport counters under the
//! node's metric names.

use bytes::Bytes;
use netsim::GroupId;
use proptest::prelude::*;
use srm::{LivenessConfig, Message, PageId, SourceId, SrmConfig};
use srm_transport::hub::{Hub, HubOptions};
use srm_transport::{
    handle_line, shard_of, Envelope, GroupMonitor, GroupSpec, Harness, Mode, Node, NodeHandle,
    NodeOptions, WallClock,
};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

fn spec(group: u32, peers: Vec<SocketAddr>, id: u64, members: usize) -> GroupSpec {
    GroupSpec {
        group,
        peers,
        id,
        members,
        rate: None,
        burst: None,
        dist_ms: Some(5),
    }
}

fn spawn_receiver(id: u64, group: u32, members: usize, hub: SocketAddr) -> NodeHandle {
    let opts = NodeOptions::new(SourceId(id), GroupId(group), SrmConfig::fixed(members));
    Node::spawn(
        "127.0.0.1:0".parse().unwrap(),
        Mode::Mesh { peers: vec![hub] },
        opts,
    )
    .expect("receiver node binds")
}

/// Poll `node` until it has delivered `want` ADUs (or the deadline hits);
/// returns the payloads in delivery order.
fn collect_delivered(node: &NodeHandle, want: usize, deadline: Instant) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    while got.len() < want && Instant::now() < deadline {
        got.extend(node.take_delivered().into_iter().map(|d| d.payload.to_vec()));
        std::thread::sleep(Duration::from_millis(20));
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shard_of` partitions the id space (total, in range, stable), and
    /// demux routing by precheck agrees with routing by full decode for
    /// every well-formed frame; a corrupted magic fails both the same way.
    #[test]
    fn demux_partition_is_total_stable_and_decode_equivalent(
        groups in proptest::collection::vec(0u32..1_000_000, 1..32),
        shards in 1usize..16,
        payload_len in 0usize..64,
    ) {
        for &g in &groups {
            let s = shard_of(g, shards);
            prop_assert!(s < shards, "shard out of range");
            prop_assert_eq!(s, shard_of(g, shards), "must be stable");

            let wire = Envelope {
                src: 7,
                group: g,
                ttl: 3,
                initial_ttl: 5,
                admin_scoped: false,
                flow: 2,
                payload: Bytes::from(vec![0xAB; payload_len]),
            }
            .encode();
            // The cheap routing read and the full decode agree on the key.
            prop_assert_eq!(Envelope::precheck(&wire).ok(), Some(g));
            let view = Envelope::decode_view(&wire).expect("well-formed frame decodes");
            prop_assert_eq!(shard_of(view.group, shards), s);

            // Corrupt magic: precheck refuses, and so does the decode the
            // shard would have attempted — no silent divergence.
            let mut bad = wire.to_vec();
            bad[0] ^= 0xFF;
            prop_assert!(Envelope::precheck(&bad).is_err());
            prop_assert!(Envelope::decode_view(&bad).is_err());
        }
    }
}

/// A hub-hosted group speaks the same bytes as a standalone node: the
/// same ADU texts sent (a) node→node via the single-session runtime and
/// (b) hub→node via a hub-hosted group arrive as identical payload sets.
#[test]
fn hub_group_is_payload_equivalent_to_a_single_group_node() {
    const N: u32 = 6;
    let texts: Vec<String> = (0..N).map(|i| format!("equiv #{i}")).collect();

    // (a) Plain two-node session, member 1 sends.
    let cfg = SrmConfig::fixed(2);
    let h = Harness::loopback(2, GroupId(1), &cfg, |_, _, _| {}).expect("harness binds");
    let page = PageId::new(SourceId(1), 0);
    for t in &texts {
        h.nodes[0].send_data(page, Bytes::from(t.clone().into_bytes()));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut via_node = collect_delivered(&h.nodes[1], N as usize, deadline);
    drop(h.shutdown());

    // (b) Hub hosts group 1 as member 1; a standalone node receives.
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), HubOptions::default()).unwrap();
    let receiver = spawn_receiver(2, 1, 2, hub.local_addr());
    hub.create(spec(1, vec![receiver.local_addr()], 1, 2), false)
        .expect("create hosts the group");
    // `send` with count > 1 suffixes " #i" — the same strings as above.
    hub.send(1, "equiv", N).expect("hub publishes");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut via_hub = collect_delivered(&receiver, N as usize, deadline);

    let st = hub.stats();
    assert_eq!(st.groups.len(), 1);
    assert_eq!(st.groups[0].data_sent, u64::from(N));
    assert_eq!(
        st.frames_attempted,
        st.frames_sent + st.send_errors,
        "hub frame accounting: {st:?}"
    );
    drop(receiver.shutdown());
    hub.shutdown();

    via_node.sort();
    via_hub.sort();
    let mut expected: Vec<Vec<u8>> = texts.iter().map(|t| t.clone().into_bytes()).collect();
    expected.sort();
    assert_eq!(via_node, expected, "single-node session dropped payloads");
    assert_eq!(via_hub, expected, "hub-hosted session dropped payloads");
    assert_eq!(via_node, via_hub, "hub and node payload bytes diverge");
}

/// One hub, eight concurrent groups, one receiver node each; passive
/// monitors on two groups reconstruct the hub member's health purely from
/// what it multicasts. Sessions must not bleed into each other.
#[test]
fn eight_concurrent_groups_deliver_independently_under_one_hub() {
    const GROUPS: u32 = 8;
    const ADUS: u32 = 5;
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().unwrap(),
        HubOptions {
            shards: 4,
            ..HubOptions::default()
        },
    )
    .unwrap();

    // Two passive monitor sockets, listed as extra fan-out peers on their
    // groups (a unicast-mesh monitor must be in the sender's peer list).
    let monitored = [1u32, 2u32];
    let mon_socks: Vec<UdpSocket> = monitored
        .iter()
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            s
        })
        .collect();

    let mut receivers = Vec::new();
    for g in 1..=GROUPS {
        let receiver = spawn_receiver(2, g, 2, hub.local_addr());
        let mut peers = vec![receiver.local_addr()];
        if let Some(i) = monitored.iter().position(|&m| m == g) {
            peers.push(mon_socks[i].local_addr().unwrap());
        }
        hub.create(spec(g, peers, 1, 2), false).expect("create group");
        receivers.push(receiver);
    }

    for g in 1..=GROUPS {
        hub.send(g, &format!("g{g}"), ADUS).expect("hub publishes");
    }

    // Every group's receiver gets exactly its own ADUs.
    let deadline = Instant::now() + Duration::from_secs(60);
    for (i, receiver) in receivers.iter().enumerate() {
        let g = i as u32 + 1;
        let mut got = collect_delivered(receiver, ADUS as usize, deadline);
        got.sort();
        let mut expected: Vec<Vec<u8>> = (0..ADUS)
            .map(|a| format!("g{g} #{a}").into_bytes())
            .collect();
        expected.sort();
        assert_eq!(got, expected, "group {g} delivered the wrong set");
    }

    let st = hub.stats();
    assert_eq!(st.groups.len(), GROUPS as usize, "stats must list all groups");
    for g in &st.groups {
        assert_eq!(g.data_sent, u64::from(ADUS), "group {} data_sent", g.group);
    }

    // Receivers only talk back via periodic session messages (≥1 s apart),
    // so give every group time to hear its peer before draining.
    let rx_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = hub.stats();
        if st.groups.iter().all(|g| g.rx_frames > 0) {
            break;
        }
        if Instant::now() >= rx_deadline {
            panic!("some group never heard its receiver: {:?}", st.groups);
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Drain everything: each group's last act is a session message, which
    // is exactly what the monitors need to finish their picture.
    let drained = hub.drain_all();
    assert_eq!(drained.groups, GROUPS, "every group drains");
    assert_eq!(drained.data_sent, u64::from(GROUPS * ADUS));

    // Feed the monitors from their sockets until they run dry.
    let clock = WallClock::new();
    let cfg = SrmConfig::fixed(2);
    for (i, sock) in mon_socks.iter().enumerate() {
        let g = monitored[i];
        let mut mon = GroupMonitor::new(&cfg, LivenessConfig::default());
        let mut buf = [0u8; 65_535];
        let until = Instant::now() + Duration::from_secs(2);
        while Instant::now() < until {
            match sock.recv_from(&mut buf) {
                Ok((n, _)) => {
                    if let Ok(env) = Envelope::decode(&buf[..n]) {
                        assert_eq!(env.group, g, "monitor got another group's frame");
                        if let Ok(msg) = Message::decode(env.payload.clone()) {
                            mon.observe(clock.now(), &msg);
                        }
                    }
                }
                Err(_) => break, // timed out: the drain already flushed
            }
        }
        let health = mon.health(clock.now());
        let hub_member = health
            .iter()
            .find(|m| m.member == SourceId(1))
            .unwrap_or_else(|| panic!("monitor on group {g} never heard the hub: {health:?}"));
        assert!(hub_member.frames_heard > 0);
        assert!(
            hub_member.sessions_heard >= 1,
            "drain must leave a final session message behind: {hub_member:?}"
        );
    }

    let st = hub.stats();
    assert_eq!(
        st.frames_attempted,
        st.frames_sent + st.send_errors,
        "hub-wide frame accounting after drain: {st:?}"
    );
    for r in receivers {
        drop(r.shutdown());
    }
    hub.shutdown();
}

/// The hub's shared transport counters live in its registry, under the
/// node's names: a snapshot taken without calling `stats()` already agrees
/// with the next `stats()`, and the shards record the node's per-kind
/// frame counters and stage histograms into the same registry.
#[test]
fn hub_registry_holds_its_transport_counters_under_node_names() {
    let registry = obs::MetricsRegistry::new();
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().unwrap(),
        HubOptions {
            shards: 2,
            metrics: Some(registry.clone()),
            ..HubOptions::default()
        },
    )
    .unwrap();
    let receiver = spawn_receiver(2, 1, 2, hub.local_addr());
    hub.create(spec(1, vec![receiver.local_addr()], 1, 2), false).unwrap();
    hub.send(1, "registry", 3).unwrap();
    let got = collect_delivered(&receiver, 3, Instant::now() + Duration::from_secs(10));
    assert_eq!(got.len(), 3, "the receiver delivers every ADU");

    // Quiescence: the receiver's first session message has reached the
    // hub. Read through the registry only, never through `stats()`.
    let counter = |k: &str| registry.snapshot().counters.get(k).copied().unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter("frames.received") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    // A periodic session message may land between the snapshot and the
    // `stats()` call; such a pair is retried, it never passes unequal.
    let mut tries = 0;
    let snap = loop {
        let snap = registry.snapshot();
        let st = hub.stats();
        let pairs = [
            ("frames.sent", st.frames_sent),
            ("frames.attempted", st.frames_attempted),
            ("frames.received", st.rx_frames),
        ];
        if pairs.iter().all(|&(k, v)| snap.counters.get(k) == Some(&v)) {
            break snap;
        }
        tries += 1;
        assert!(tries < 20, "registry never agreed with stats(): {pairs:?} vs {:?}", snap.counters);
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(snap.counters["frames.sent"] >= 3, "{:?}", snap.counters);
    assert!(snap.counters["frames.received"] >= 1, "{:?}", snap.counters);
    let stale: Vec<&String> = snap.counters.keys().filter(|k| k.starts_with("hub.frames_")).collect();
    assert!(stale.is_empty(), "hub-only copies of node counters: {stale:?}");
    for k in ["recv.respawns", "recv.deaths", "inbound.overflow", "rx.decode_errors"] {
        assert_eq!(snap.counters.get(k), Some(&0), "{k}");
    }
    assert!(snap.counters["tx.frames.data"] >= 3, "{:?}", snap.counters);
    assert!(snap.counters["rx.frames.session"] >= 1, "{:?}", snap.counters);
    for h in ["stage.send_s", "stage.handle_s", "batch.recv_frames"] {
        assert!(snap.hists[h].count() >= 1, "{h} recorded nothing");
    }
    hub.shutdown();
    drop(receiver.shutdown());
}

/// The control plane's scripted replies, byte-for-byte against the golden
/// transcript — create/join/send/drain/stop plus malformed input and
/// duplicate-group errors. `stats` is checked by shape only (its counters
/// are live).
#[test]
fn control_plane_replies_match_the_golden_transcript() {
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().unwrap(),
        HubOptions {
            shards: 4,
            ..HubOptions::default()
        },
    )
    .unwrap();
    let script = [
        r#"{"cmd":"create","group":1}"#,
        r#"{"cmd":"create","group":1}"#,
        r#"{"cmd":"join","group":1}"#,
        r#"{"cmd":"join","group":2}"#,
        r#"{"cmd":"send","group":1,"text":"hi","count":2}"#,
        r#"{"cmd":"send","group":9,"text":"hi"}"#,
        r#"garbage"#,
        r#"{"cmd":"warp"}"#,
        r#"{"cmd":"create","group":-1}"#,
        r#"{"cmd":"send","group":1}"#,
        r#"{"cmd":"drain","group":1}"#,
        r#"{"cmd":"drain","group":1}"#,
        r#"{"cmd":"stop"}"#,
    ];
    let replies: Vec<String> = script.iter().map(|line| handle_line(&hub, line)).collect();

    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/hub_control.jsonl");
    let golden = std::fs::read_to_string(&golden_path).expect("golden transcript exists");
    let expected: Vec<&str> = golden.lines().collect();
    assert_eq!(
        replies.len(),
        expected.len(),
        "script and golden transcript must pair up"
    );
    for (i, (got, want)) in replies.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            got, want,
            "control reply {i} diverged from {}",
            golden_path.display()
        );
    }

    // `stats` is live, so pin only its shape: ok, cmd, a hub rollup, and
    // a (now empty) group list.
    let stats = handle_line(&hub, r#"{"cmd":"stats"}"#);
    assert!(stats.starts_with(r#"{"ok":true,"cmd":"stats","hub":{"#), "{stats}");
    assert!(stats.ends_with(r#""groups":[]}"#), "{stats}");
    hub.shutdown();
}

/// Satellite check on the standalone node: a well-formed frame for a group
/// this node never joined is counted (`rx_unjoined_group`), not silently
/// dropped.
#[test]
fn node_counts_well_formed_frames_for_unjoined_groups() {
    let opts = NodeOptions::new(SourceId(1), GroupId(1), SrmConfig::fixed(2));
    let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
    let node = Node::spawn(
        "127.0.0.1:0".parse().unwrap(),
        Mode::Mesh { peers: vec![peer] },
        opts,
    )
    .expect("node binds");

    let stray = UdpSocket::bind("127.0.0.1:0").unwrap();
    let frame = Envelope {
        src: 9,
        group: 99, // never joined here
        ttl: 4,
        initial_ttl: 4,
        admin_scoped: false,
        flow: 0,
        payload: Bytes::from_static(b"lost tourist"),
    }
    .encode();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = 0;
    while seen == 0 && Instant::now() < deadline {
        stray.send_to(&frame, node.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        seen = node.stats().rx_unjoined_group;
    }
    assert!(seen >= 1, "unjoined-group frames must be counted");
    drop(node.shutdown());
}

/// A `send` whose text cannot fit one envelope is refused up front, and
/// the shard hosting the group keeps serving its other groups: the group
/// sharing that shard still delivers afterwards.
#[test]
fn oversized_send_is_refused_and_the_shard_keeps_serving() {
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().unwrap(),
        HubOptions {
            shards: 2,
            ..HubOptions::default()
        },
    )
    .unwrap();
    // Two groups that hash to the same shard.
    let a = 1u32;
    let b = (2u32..).find(|&g| shard_of(g, 2) == shard_of(a, 2)).unwrap();
    let rx_a = spawn_receiver(2, a, 2, hub.local_addr());
    let rx_b = spawn_receiver(2, b, 2, hub.local_addr());
    for (g, rx) in [(a, &rx_a), (b, &rx_b)] {
        hub.create(spec(g, vec![rx.local_addr()], 1, 2), false).unwrap();
    }

    let huge = format!(
        r#"{{"cmd":"send","group":{a},"text":"{}"}}"#,
        "x".repeat(70_000)
    );
    let reply = handle_line(&hub, &huge);
    assert!(reply.starts_with(r#"{"ok":false,"error":"#), "{reply}");
    assert!(reply.contains("does not fit one datagram"), "{reply}");

    let ok = handle_line(&hub, &format!(r#"{{"cmd":"send","group":{b},"text":"still here"}}"#));
    assert!(ok.starts_with(r#"{"ok":true,"cmd":"send""#), "{ok}");
    let got = collect_delivered(&rx_b, 1, Instant::now() + Duration::from_secs(10));
    assert_eq!(got, vec![b"still here".to_vec()], "shard-mate group must still deliver");
    // The hub-side send path never panicked, so it still answers.
    let st = hub.stats();
    assert_eq!(st.groups.len(), 2, "both groups still hosted: {st:?}");
    assert_eq!(st.frames_attempted, st.frames_sent + st.send_errors, "{st:?}");
    hub.shutdown();
    drop(rx_a.shutdown());
    drop(rx_b.shutdown());
}

/// A control line nested 100,000 levels deep gets an error reply: the
/// parser bounds its recursion instead of overflowing the stack, which
/// would abort the hub and every group it hosts. The hub still answers.
#[test]
fn hostile_nesting_on_the_control_plane_is_refused_and_the_hub_keeps_serving() {
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().unwrap(),
        HubOptions {
            shards: 2,
            ..HubOptions::default()
        },
    )
    .unwrap();
    let reply = handle_line(&hub, &"[".repeat(100_000));
    assert_eq!(reply, r#"{"ok":false,"error":"nesting deeper than 64 at byte 64"}"#);
    let stats = handle_line(&hub, r#"{"cmd":"stats"}"#);
    assert!(stats.starts_with(r#"{"ok":true,"cmd":"stats","hub":{"#), "{stats}");
    hub.shutdown();
}

//! `hub_flood`: one hub hosting several sessions.
//!
//! One `Hub` with 2 shards hosts groups 1–4, which `shard_of` places two
//! per shard. Each group has one receiver node and carries ~1,000-byte
//! ADUs. The generator calls `HubHandle::send` round-robin over the groups,
//! keeping each backlogged up to [`WINDOW`] ADUs in flight; a pass ends
//! when every receiver has delivered all of its group's ADUs.
//!
//! Why: without it the demux and shard layers go unmeasured, and a change
//! to the session core shared by node and hub must show no loss on both
//! paths. The large payload stresses the per-byte copies that `node_flood`
//! barely does.

use crate::live::{
    accounted, node_options, registries, Ledger, Tally, DIST_MS, PASS_DEADLINE, POLL_BACKOFF,
};
use crate::node::LATENCY_SAMPLES;
use crate::stamp::{self, Stamp};
use crate::stats::{derive, Reservoir, Summary};
use crate::trace::Recorder;
use crate::{alloc, Run};
use netsim::GroupId;
use obs::MetricsRegistry;
use srm::{SourceId, SrmConfig};
use srm_transport::{shard_of, GroupSpec, Hub, HubOptions, Mode, Node, NodeOptions};
use std::time::Instant;

const SHARDS: usize = 2;
const GROUPS: u32 = 4;
/// Delivered payload size, approximately: the hub appends ` #i` to the
/// i-th copy, so the text is shortened by the longest suffix.
const PAYLOAD: usize = 1000;
/// Copies per `HubHandle::send` call.
const COPIES: u32 = 100;
/// ADUs per group per pass; each pass runs on a fresh hub and receivers.
const PASS_ADUS: u64 = 8_000;
/// Most ADUs in flight per group.
const WINDOW: u64 = 1_000;

pub fn flood(seed: u64, seconds: f64, tr: &mut Recorder) -> Run {
    let mut run = Run::default();
    let mut tally = Tally::default();
    let mut lat = Reservoir::new(LATENCY_SAMPLES, derive(seed, 0x4b));
    let text_len = PAYLOAD - " #".len() - (COPIES - 1).to_string().len();
    let placement: Vec<usize> = (1..=GROUPS).map(|g| shard_of(g, SHARDS)).collect();
    if (0..SHARDS)
        .any(|s| placement.iter().filter(|&&p| p == s).count() != GROUPS as usize / SHARDS)
    {
        run.problems.push(format!(
            "groups 1..={GROUPS} are not spread evenly over {SHARDS} shards: {placement:?}"
        ));
    }
    let (mut rx_frames, mut demux_splits, mut hub_overflow) = (0u64, 0u64, 0u64);
    let clock = Instant::now();
    let mut timed = 0.0;
    let mut allocs = 0u64;
    let mut pass = 0u64;
    while pass == 0 || timed < seconds {
        let traced = tr.is_on();
        let hub_reg = traced.then(MetricsRegistry::new);
        let regs = registries(traced, GROUPS as usize);
        let root = tr.begin("bench.pass", None, pass);

        let t = Instant::now();
        let opts = HubOptions {
            shards: SHARDS,
            seed: derive(seed, pass << 8),
            metrics: hub_reg,
            ..HubOptions::default()
        };
        let hub = tr.timed("hub.spawn", root, pass, || {
            Hub::spawn("127.0.0.1:0".parse().expect("loopback address"), opts)
                .expect("bind the hub")
        });
        let mut receivers = Vec::new();
        for g in 1..=GROUPS {
            let mut o = NodeOptions::new(SourceId(2), GroupId(g), SrmConfig::fixed(2));
            node_options(
                &mut o,
                2,
                derive(seed, pass << 8 | u64::from(g)),
                regs.get(g as usize - 1),
            );
            let mode = Mode::Mesh {
                peers: vec![hub.local_addr()],
            };
            let node = tr.timed("runtime.spawn", root, pass, || {
                Node::spawn("127.0.0.1:0".parse().expect("loopback address"), mode, o)
                    .expect("bind a receiver")
            });
            let spec = GroupSpec {
                group: g,
                peers: vec![node.local_addr()],
                id: 1,
                members: 2,
                rate: None,
                burst: None,
                dist_ms: Some(DIST_MS),
            };
            tr.timed("hub.create", root, pass, || hub.create(spec, false))
                .expect("create a hub group");
            receivers.push(node);
        }
        run.setups_s.push(t.elapsed().as_secs_f64());

        // Group g's ADUs carry stamps base(g)..base(g) + PASS_ADUS.
        let base = |g: usize| (pass * u64::from(GROUPS) + g as u64) * PASS_ADUS;
        let mut ledgers: Vec<Ledger> = (0..GROUPS as usize)
            .map(|g| Ledger::new(base(g), PASS_ADUS))
            .collect();
        let mut issued = vec![0u64; GROUPS as usize];
        let mut pass_lat = Vec::with_capacity((PASS_ADUS * u64::from(GROUPS)) as usize);
        let a0 = alloc::allocations();
        let t0 = Instant::now();
        while !ledgers.iter().all(Ledger::complete) && t0.elapsed() < PASS_DEADLINE {
            for (g, ledger) in ledgers.iter().enumerate() {
                let copies = u64::from(COPIES).min(PASS_ADUS - issued[g]);
                if copies == 0 || issued[g] - ledger.got() + copies > WINDOW {
                    continue;
                }
                let seq = base(g) + issued[g];
                let t_ns = clock.elapsed().as_nanos() as u64;
                let text = String::from_utf8(stamp::encode(Stamp { seq, t_ns }, text_len))
                    .expect("stamps are ASCII");
                let group = g as u32 + 1;
                let sent = tr.timed("hub.send", root, seq, || {
                    hub.send(group, &text, copies as u32)
                });
                if let Err(e) = sent {
                    run.problems.push(format!("hub send to group {group}: {e}"));
                    break;
                }
                issued[g] += copies;
            }
            let mut polled = 0;
            for (node, ledger) in receivers.iter().zip(ledgers.iter_mut()) {
                let got = tr.timed("runtime.take_delivered", root, pass, || {
                    node.take_delivered()
                });
                let seen_ns = clock.elapsed().as_nanos() as u64;
                polled += got.len();
                for d in &got {
                    if let Some(s) = ledger.check(d) {
                        let ms = seen_ns.saturating_sub(s.t_ns) as f64 / 1e6;
                        lat.push(ms);
                        pass_lat.push(ms);
                    }
                }
            }
            if polled < COPIES as usize {
                std::thread::sleep(POLL_BACKOFF);
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        allocs += alloc::allocations() - a0;
        timed += dt;
        let delivered: u64 = ledgers.iter().map(Ledger::got).sum();
        run.pass_rates.push(delivered as f64 / dt);
        run.pass_latency.extend(Summary::p50_p99(&mut pass_lat));
        for l in &ledgers {
            run.attempted += PASS_ADUS;
            run.failed += l.failed();
            tally.dups += l.dups();
        }
        tally.adus += PASS_ADUS * u64::from(GROUPS);

        let groups = tr.timed("hub.stats", root, pass, || hub.stats()).groups;
        for gs in &groups {
            if gs.data_sent != PASS_ADUS {
                run.problems.push(format!(
                    "pass {pass} group {}: hub published {} ADUs, expected {PASS_ADUS}",
                    gs.group, gs.data_sent
                ));
            }
        }
        for (g, node) in receivers.iter().enumerate() {
            let s = accounted(
                node,
                &format!("pass {pass} group {} receiver", g + 1),
                &mut run.problems,
            );
            tally.stats(&s);
        }
        for node in receivers {
            let a = tr.timed("runtime.shutdown", root, pass, || node.shutdown());
            tally.agent(&a);
        }
        tr.timed("hub.shutdown", root, pass, || hub.shutdown());
        let st = hub.stats();
        if st.frames_attempted != st.frames_sent + st.send_errors {
            run.problems.push(format!(
                "pass {pass}: hub frame accounting broken: attempted {} != sent {} + send_errors {}",
                st.frames_attempted, st.frames_sent, st.send_errors
            ));
        }
        rx_frames += st.rx_frames;
        demux_splits += st.demux_splits;
        hub_overflow += st.inbound_overflow;
        for r in &regs {
            tally.registry(r);
        }
        tr.end(root);
        pass += 1;
    }
    run.report.push(format!(
        "hub_flood: {} ADUs of ~{PAYLOAD} B over {GROUPS} groups on {SHARDS} shards in {pass} passes, {timed:.3} s timed; adus_per_s is throughput_per_s",
        tally.adus
    ));
    run.report.push(format!(
        "latency samples: a uniform {} of {} deliveries",
        lat.seen().min(LATENCY_SAMPLES as u64),
        lat.seen()
    ));
    run.latency_ms = lat.into_samples();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let l = &mut run.layers;
    l.insert("alloc.per_adu", allocs as f64 / tally.adus as f64);
    l.insert("hub.demux_splits_per_frame", ratio(demux_splits, rx_frames));
    l.insert("hub.inbound_overflow", hub_overflow as f64);
    l.insert("hub.rx_frames_per_adu", ratio(rx_frames, tally.adus));
    tally.emit(tr, &mut run.layers, &mut run.report);
    run
}

//! The `live` macro-benchmark: wall-clock measurement of the *transport*
//! hot path — real UDP datagrams through the reactor — distilled into
//! `BENCH_9.json`.
//!
//! Where `scale` times the simulator's event queue, `live` times the
//! wall-clock datapath the simulator never touches: socket syscalls,
//! receive-thread → reactor handoff, envelope decode, and the agent's
//! packet handler, end to end over a loopback mesh ([`Harness`]).
//!
//! Three benchmarks bracket that datapath:
//!
//! - `flood_pair`: a 2-node mesh; member 1 floods ADUs as fast as the
//!   pipeline accepts them, and the run ends when member 2 has delivered
//!   them all. Packets/sec here is end-to-end delivered throughput of one
//!   socket → reactor → agent pipeline.
//! - `flood_mesh4`: a 4-node mesh; the same flood through a fan-out of 3,
//!   so the send path replicates every frame per peer (the mesh stand-in
//!   for group delivery) and three receive pipelines run concurrently.
//! - `churn_repair`: a 2-node mesh with scripted chaos loss on the
//!   sender; the run ends when SRM's request/repair machinery has
//!   recovered every gap. Packets/sec here includes the recovery traffic
//!   — the number the paper's receiver-driven design actually lives on.
//! - `hub_fanout` / `fanout_pairs8`: the multi-session hub against its
//!   own null hypothesis. `hub_fanout` runs one [`Hub`] hosting 8 groups
//!   (shared demux socket, 4 shard reactors), each publishing to its own
//!   receiver node; `fanout_pairs8` runs the same 8 sessions as 8
//!   independent single-session pair runtimes. The pair of numbers pins
//!   the consolidation tax: the hub's aggregate delivered throughput must
//!   stay within 2x of the fleet-of-processes baseline (`run` warns when
//!   it does not).
//!
//! Each bench also reports receive-stage latency quantiles (recv-thread
//! capture → reactor dequeue, and agent handling) from the live
//! [`obs::MetricsRegistry`] histograms.
//!
//! Subcommands (the report harness shared with `scale`, in the
//! `srm_bench` library):
//!
//! ```text
//! live run      [--quick] [--best N] [--out FILE] [--merge-baseline FILE] [--label S] [--portable]
//! live check    --against FILE [--tolerance R] [--quick]
//! live validate FILE
//! ```
//!
//! `run` measures and writes a JSON report (schema `srm-livebench/1`).
//! `--merge-baseline` carries the `baseline_pre_pr` section of an existing
//! report forward so `BENCH_9.json` keeps its before/after pairing.
//! `check` re-measures (best of five, throughput is right-censored by
//! scheduler noise, so the *maximum* over repetitions is the robust
//! estimator) and fails with exit 1 if any benchmark's packets/sec fell
//! below `pinned / tolerance` — the CI regression gate. `validate` is the
//! structural schema check with no measuring.

use bytes::Bytes;
use netsim::{GroupId, SimDuration};
use obs::json::Json;
use srm::{PageId, SourceId, SrmConfig};
use srm_bench::{round, Bench, Better, Tool};
use srm_transport::{
    parse_spec, BatchOptions, GroupSpec, Harness, Hub, HubOptions, Mode, Node, NodeOptions,
};
use std::time::{Duration, Instant};

/// One measured benchmark.
struct BenchResult {
    name: &'static str,
    /// ADUs delivered across all receivers (the packet count `pps` rates).
    packets: u64,
    /// Wall-clock seconds from first send to last delivery.
    secs: f64,
    /// Delivered packets per second, end to end.
    pps: f64,
    /// Receive-stage quantiles (µs) from the first receiver's registry.
    queue_p50_us: f64,
    queue_p99_us: f64,
    handle_p50_us: f64,
    handle_p99_us: f64,
}

/// Seed every pairwise distance estimate to `d` so churn-repair timers are
/// short and the flood benches never wait on timer estimation.
fn seed_distances(n: usize, opts: &mut NodeOptions, d: SimDuration) {
    for peer in 1..=n as u64 {
        if SourceId(peer) != opts.id {
            opts.initial_distances.push((SourceId(peer), d));
        }
    }
}

/// ADUs sent per exec round-trip: large enough to amortize the channel
/// hop, small enough to keep the reactor responsive to its own timers.
const SEND_CHUNK: usize = 256;

/// Flood benches measure the datapath, not the shed policy: give the
/// inbound channel and receive pool room for the whole burst.
fn tune_batch(b: &mut BatchOptions, portable: bool) {
    b.force_portable = portable;
    b.inbound_capacity = 65_536;
    b.pool_slabs = 512;
    b.recv_batch = 256;
    b.send_batch = 256;
    b.inbound_drain = 1024;
}

/// Drive one flood-or-churn session: `n` nodes, member 1 publishes `adus`
/// ADUs of `payload_len` bytes flat out, and the clock stops when every
/// other member has delivered all of them (or `deadline` passes — the
/// measurement then rates what actually arrived, and says so).
fn run_session(
    name: &'static str,
    n: usize,
    adus: usize,
    payload_len: usize,
    chaos: Option<&str>,
    portable: bool,
    deadline: Duration,
) -> BenchResult {
    let cfg = SrmConfig::fixed(n);
    let mut regs: Vec<obs::MetricsRegistry> = Vec::new();
    for _ in 0..n {
        regs.push(obs::MetricsRegistry::new());
    }
    let regs_for_nodes = regs.clone();
    let h = Harness::loopback(n, GroupId(1), &cfg, |i, addrs, o| {
        o.metrics = Some(regs_for_nodes[i].clone());
        tune_batch(&mut o.batch, portable);
        seed_distances(n, o, SimDuration::from_millis(10));
        if i == 0 {
            if let Some(spec) = chaos {
                o.chaos = Some(parse_spec(spec, addrs).expect("valid chaos spec"));
            }
        }
    })
    .expect("bind loopback mesh");

    let page = PageId::new(SourceId(1), 0);
    let payload = Bytes::from(vec![0x5Au8; payload_len]);
    let start = Instant::now();
    let mut queued = 0usize;
    while queued < adus {
        let burst = SEND_CHUNK.min(adus - queued);
        let p = payload.clone();
        h.nodes[0].exec(move |a, d| {
            for _ in 0..burst {
                a.send_data(d, page, p.clone());
            }
        });
        queued += burst;
    }

    // Wait for every receiver to deliver the full set.
    let want = adus * (n - 1);
    let stop_at = start + deadline;
    let mut delivered = 0usize;
    while delivered < want && Instant::now() < stop_at {
        for node in &h.nodes[1..] {
            delivered += node.take_delivered().len();
        }
        if delivered < want {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    for node in &h.nodes[1..] {
        delivered += node.take_delivered().len();
    }
    if delivered < want {
        eprintln!(
            "live: WARNING {name}: only {delivered}/{want} ADUs delivered within {deadline:?}; \
             rating what arrived"
        );
    }

    let q = |reg: &obs::MetricsRegistry, hist: &str, quant: f64| -> f64 {
        reg.histogram(hist)
            .snapshot()
            .quantile(quant)
            .map(|s| s * 1e6)
            .unwrap_or(0.0)
    };
    if std::env::var_os("LIVE_DEBUG").is_some() {
        let tx_reg = &regs[0];
        eprintln!(
            "live: DEBUG {name}: send p50/p99 {:.1}/{:.1}us, send-batch p50 {:.0}, recv-batch p50 {:.0}, drain p50 {:.0}",
            q(tx_reg, "stage.send_s", 0.50),
            q(tx_reg, "stage.send_s", 0.99),
            tx_reg.histogram("batch.send_frames").snapshot().quantile(0.5).unwrap_or(0.0),
            regs[1].histogram("batch.recv_frames").snapshot().quantile(0.5).unwrap_or(0.0),
            regs[1].histogram("batch.inbound_drain").snapshot().quantile(0.5).unwrap_or(0.0),
        );
        eprintln!(
            "live: DEBUG {name}: recv-batch p90/p99 {:.0}/{:.0}, drain p90/p99 {:.0}/{:.0}",
            regs[1].histogram("batch.recv_frames").snapshot().quantile(0.9).unwrap_or(0.0),
            regs[1].histogram("batch.recv_frames").snapshot().quantile(0.99).unwrap_or(0.0),
            regs[1].histogram("batch.inbound_drain").snapshot().quantile(0.9).unwrap_or(0.0),
            regs[1].histogram("batch.inbound_drain").snapshot().quantile(0.99).unwrap_or(0.0),
        );
    }
    let rx_reg = &regs[1];
    let result = BenchResult {
        name,
        packets: delivered as u64,
        secs,
        pps: delivered as f64 / secs,
        queue_p50_us: q(rx_reg, "stage.queue_s", 0.50),
        queue_p99_us: q(rx_reg, "stage.queue_s", 0.99),
        handle_p50_us: q(rx_reg, "stage.handle_s", 0.50),
        handle_p99_us: q(rx_reg, "stage.handle_s", 0.99),
    };
    drop(h.shutdown());
    result
}

fn flood_pair(quick: bool, portable: bool) -> BenchResult {
    let adus = if quick { 20_000 } else { 100_000 };
    run_session("flood_pair", 2, adus, 64, None, portable, Duration::from_secs(120))
}

fn flood_mesh4(quick: bool, portable: bool) -> BenchResult {
    let adus = if quick { 6_000 } else { 30_000 };
    run_session("flood_mesh4", 4, adus, 64, None, portable, Duration::from_secs(120))
}

fn churn_repair(quick: bool, portable: bool) -> BenchResult {
    let adus = if quick { 200 } else { 600 };
    run_session(
        "churn_repair",
        2,
        adus,
        64,
        Some("loss=0.08"),
        portable,
        Duration::from_secs(120),
    )
}

/// Groups hosted (hub) / pair sessions run (baseline) by the fanout pair.
const FAN_GROUPS: u32 = 8;

fn fan_adus(quick: bool) -> u32 {
    if quick {
        1_500
    } else {
        6_000
    }
}

/// One hub, `FAN_GROUPS` groups, one receiver node per group: aggregate
/// delivered throughput of the consolidated multi-session host. Publishing
/// runs from one thread per group so every shard reactor is kept busy, the
/// way a loaded hub would be.
fn hub_fanout(quick: bool, portable: bool) -> BenchResult {
    let adus = fan_adus(quick);
    let mut hub_opts = HubOptions {
        shards: 4,
        ..HubOptions::default()
    };
    tune_batch(&mut hub_opts.batch, portable);
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), hub_opts).expect("bind hub");

    let mut regs = Vec::new();
    let mut receivers = Vec::new();
    for g in 1..=FAN_GROUPS {
        let reg = obs::MetricsRegistry::new();
        let mut o = NodeOptions::new(SourceId(2), GroupId(g), SrmConfig::fixed(2));
        o.metrics = Some(reg.clone());
        tune_batch(&mut o.batch, portable);
        o.initial_distances
            .push((SourceId(1), SimDuration::from_millis(10)));
        let node = Node::spawn(
            "127.0.0.1:0".parse().unwrap(),
            Mode::Mesh {
                peers: vec![hub.local_addr()],
            },
            o,
        )
        .expect("bind fanout receiver");
        hub.create(
            GroupSpec {
                group: g,
                peers: vec![node.local_addr()],
                id: 1,
                members: 2,
                rate: None,
                burst: None,
                dist_ms: Some(10),
            },
            false,
        )
        .expect("create fanout group");
        regs.push(reg);
        receivers.push(node);
    }

    // 61-byte payloads ("xx…x #N"), matching the 64-byte flood floor.
    let text = "x".repeat(57);
    let start = Instant::now();
    let senders: Vec<_> = (1..=FAN_GROUPS)
        .map(|g| {
            let hub = hub.clone();
            let text = text.clone();
            std::thread::spawn(move || hub.send(g, &text, adus).expect("hub publishes"))
        })
        .collect();
    for s in senders {
        s.join().expect("fanout sender thread");
    }

    let want = (FAN_GROUPS * adus) as usize;
    let stop_at = start + Duration::from_secs(120);
    let mut delivered = 0usize;
    while delivered < want && Instant::now() < stop_at {
        for node in &receivers {
            delivered += node.take_delivered().len();
        }
        if delivered < want {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    if delivered < want {
        eprintln!(
            "live: WARNING hub_fanout: only {delivered}/{want} ADUs delivered within 120s; \
             rating what arrived"
        );
    }

    let st = hub.stats();
    assert_eq!(
        st.frames_attempted,
        st.frames_sent + st.send_errors,
        "hub frame accounting broke under load"
    );
    let q = |hist: &str, quant: f64| -> f64 {
        regs[0]
            .histogram(hist)
            .snapshot()
            .quantile(quant)
            .map(|s| s * 1e6)
            .unwrap_or(0.0)
    };
    let result = BenchResult {
        name: "hub_fanout",
        packets: delivered as u64,
        secs,
        pps: delivered as f64 / secs,
        queue_p50_us: q("stage.queue_s", 0.50),
        queue_p99_us: q("stage.queue_s", 0.99),
        handle_p50_us: q("stage.handle_s", 0.50),
        handle_p99_us: q("stage.handle_s", 0.99),
    };
    for node in receivers {
        drop(node.shutdown());
    }
    hub.shutdown();
    result
}

/// The fleet-of-processes null hypothesis for `hub_fanout`: the same
/// `FAN_GROUPS` sessions as independent single-session pair runtimes, run
/// concurrently, rated as one aggregate.
fn fanout_pairs8(quick: bool, portable: bool) -> BenchResult {
    let adus = fan_adus(quick) as usize;
    let regs: Vec<obs::MetricsRegistry> = (0..FAN_GROUPS)
        .map(|_| obs::MetricsRegistry::new())
        .collect();
    // Bind every pair before the clock starts — the hub bench creates its
    // groups outside the timed window too, so this stays apples-to-apples.
    let harnesses: Vec<Harness> = (1..=FAN_GROUPS)
        .map(|g| {
            let reg = regs[(g - 1) as usize].clone();
            let cfg = SrmConfig::fixed(2);
            Harness::loopback(2, GroupId(g), &cfg, |i, _addrs, o| {
                tune_batch(&mut o.batch, portable);
                seed_distances(2, o, SimDuration::from_millis(10));
                if i == 1 {
                    o.metrics = Some(reg.clone());
                }
            })
            .expect("bind fanout pair")
        })
        .collect();
    let start = Instant::now();
    let workers: Vec<_> = harnesses
        .into_iter()
        .map(|h| {
            std::thread::spawn(move || {
                let page = PageId::new(SourceId(1), 0);
                let payload = Bytes::from(vec![0x5Au8; 64]);
                let mut queued = 0usize;
                while queued < adus {
                    let burst = SEND_CHUNK.min(adus - queued);
                    let p = payload.clone();
                    h.nodes[0].exec(move |a, d| {
                        for _ in 0..burst {
                            a.send_data(d, page, p.clone());
                        }
                    });
                    queued += burst;
                }
                let stop_at = Instant::now() + Duration::from_secs(120);
                let mut delivered = 0usize;
                while delivered < adus && Instant::now() < stop_at {
                    delivered += h.nodes[1].take_delivered().len();
                    if delivered < adus {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                drop(h.shutdown());
                delivered
            })
        })
        .collect();
    let delivered: usize = workers
        .into_iter()
        .map(|w| w.join().expect("fanout pair thread"))
        .sum();
    let secs = start.elapsed().as_secs_f64();
    let want = adus * FAN_GROUPS as usize;
    if delivered < want {
        eprintln!(
            "live: WARNING fanout_pairs8: only {delivered}/{want} ADUs delivered within 120s; \
             rating what arrived"
        );
    }
    let q = |hist: &str, quant: f64| -> f64 {
        regs[0]
            .histogram(hist)
            .snapshot()
            .quantile(quant)
            .map(|s| s * 1e6)
            .unwrap_or(0.0)
    };
    BenchResult {
        name: "fanout_pairs8",
        packets: delivered as u64,
        secs,
        pps: delivered as f64 / secs,
        queue_p50_us: q("stage.queue_s", 0.50),
        queue_p99_us: q("stage.queue_s", 0.99),
        handle_p50_us: q("stage.handle_s", 0.50),
        handle_p99_us: q("stage.handle_s", 0.99),
    }
}

fn measure(quick: bool, portable: bool) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for (name, f) in [
        ("flood_pair", flood_pair as fn(bool, bool) -> BenchResult),
        ("flood_mesh4", flood_mesh4),
        ("churn_repair", churn_repair),
        ("hub_fanout", hub_fanout),
        ("fanout_pairs8", fanout_pairs8),
    ] {
        eprintln!(
            "live: running {name} ({}{})...",
            if quick { "quick" } else { "full" },
            if portable { ", portable backend" } else { "" }
        );
        let r = f(quick, portable);
        eprintln!(
            "live: {name}: {:.0} pkts/s ({} pkts in {:.3}s; queue p50/p99 {:.1}/{:.1}µs, \
             handle p50/p99 {:.1}/{:.1}µs)",
            r.pps, r.packets, r.secs, r.queue_p50_us, r.queue_p99_us, r.handle_p50_us, r.handle_p99_us
        );
        out.push(r);
    }
    // The fanout pair exists to be compared: report the consolidation tax
    // whenever both sides were measured, and warn past the 2x acceptance
    // line (hub aggregate must stay >= 0.5x of the independent fleet).
    let find = |name: &str| out.iter().find(|b| b.name == name).map(|b| b.pps);
    if let (Some(hub), Some(pairs)) = (find("hub_fanout"), find("fanout_pairs8")) {
        let ratio = pairs / hub.max(f64::EPSILON);
        // Below 1 the hub beats the fleet: report the speedup, not a tax.
        let (factor, direction) =
            if ratio < 1.0 { (1.0 / ratio.max(f64::EPSILON), "faster") } else { (ratio, "slower") };
        eprintln!(
            "live: hub_fanout consolidation tax: {factor:.2}x {direction} than fanout_pairs8 \
             ({hub:.0} vs {pairs:.0} pkts/s){}",
            if ratio > 2.0 {
                " — EXCEEDS the 2x budget"
            } else {
                ""
            }
        );
    }
    out
}

impl Bench for BenchResult {
    fn name(&self) -> &str {
        self.name
    }

    fn value(&self) -> f64 {
        self.pps
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.into())),
            ("packets".into(), Json::Num(self.packets as f64)),
            ("secs".into(), Json::Num(round(self.secs, 3))),
            ("pps".into(), Json::Num(round(self.pps, 1))),
            ("queue_p50_us".into(), Json::Num(round(self.queue_p50_us, 1))),
            ("queue_p99_us".into(), Json::Num(round(self.queue_p99_us, 1))),
            ("handle_p50_us".into(), Json::Num(round(self.handle_p50_us, 1))),
            ("handle_p99_us".into(), Json::Num(round(self.handle_p99_us, 1))),
        ])
    }
}

const TOOL: Tool = Tool {
    name: "live",
    schema: "srm-livebench/1",
    metric: "pps",
    better: Better::Higher,
    required: &["packets", "secs", "pps"],
    usage: "  live run [--quick] [--best N] [--out FILE] [--merge-baseline FILE] [--label S] [--portable]\n  live check --against FILE [--tolerance R] [--quick]\n  live validate FILE",
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut portable, mut best) = (false, 1usize);
    let cli = TOOL.parse(&args, |flag, value| match flag {
        "--portable" => {
            portable = true;
            true
        }
        "--best" => {
            best = value().parse().unwrap_or_else(|_| TOOL.usage());
            true
        }
        _ => false,
    });
    // `check` always re-measures the default batched backend, the one the
    // pins were taken on.
    let portable = portable && cli.cmd == "run";
    TOOL.dispatch(&cli, best, || measure(cli.quick, portable));
    TOOL.usage()
}

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
//! Subcommands (mirroring `scale`):
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
use srm::{PageId, SourceId, SrmConfig};
use srm_sim::json::Json;
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

/// Best-of-`reps` on *throughput*: load spikes only ever push pps down,
/// so the maximum over repetitions is the robust estimator (quantiles ride
/// along from the winning repetition).
fn measure_best(reps: usize, quick: bool, portable: bool) -> Vec<BenchResult> {
    let mut best = measure(quick, portable);
    for _ in 1..reps.max(1) {
        for (b, g) in best.iter_mut().zip(measure(quick, portable)) {
            if g.pps > b.pps {
                *b = g;
            }
        }
    }
    best
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

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn benches_to_json(benches: &[BenchResult]) -> Json {
    Json::Arr(
        benches
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(b.name.into())),
                    ("packets".into(), Json::Num(b.packets as f64)),
                    ("secs".into(), Json::Num(round3(b.secs))),
                    ("pps".into(), Json::Num(round1(b.pps))),
                    ("queue_p50_us".into(), Json::Num(round1(b.queue_p50_us))),
                    ("queue_p99_us".into(), Json::Num(round1(b.queue_p99_us))),
                    ("handle_p50_us".into(), Json::Num(round1(b.handle_p50_us))),
                    ("handle_p99_us".into(), Json::Num(round1(b.handle_p99_us))),
                ])
            })
            .collect(),
    )
}

fn report(benches: &[BenchResult], quick: bool, label: &str, baseline: Option<Json>) -> Json {
    let mut fields = vec![
        ("schema".into(), Json::Str("srm-livebench/1".into())),
        ("label".into(), Json::Str(label.into())),
        ("quick".into(), Json::Bool(quick)),
        ("benches".into(), benches_to_json(benches)),
    ];
    if let Some(b) = baseline {
        fields.push(("baseline_pre_pr".into(), b));
    }
    Json::Obj(fields)
}

/// Pull a baseline section out of an existing report: prefer its explicit
/// `baseline_pre_pr`, else treat its own `benches` as the baseline (the
/// first report written before the optimisation is exactly that).
fn extract_baseline(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).ok()?;
    if let Some(b) = doc.get("baseline_pre_pr") {
        return Some(b.clone());
    }
    doc.get("benches").cloned()
}

fn check(against: &str, tolerance: f64, quick: bool) -> i32 {
    let text = match std::fs::read_to_string(against) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("live check: cannot read {against}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("live check: {against} is not valid JSON: {e}");
            return 1;
        }
    };
    if doc.get("schema").and_then(Json::as_str) != Some("srm-livebench/1") {
        eprintln!("live check: {against} missing schema srm-livebench/1");
        return 1;
    }
    let Some(pinned) = doc.get("benches").and_then(Json::as_arr) else {
        eprintln!("live check: {against} has no benches array");
        return 1;
    };
    // Best-of-5 on *throughput*: load spikes only ever push pps down, so
    // the maximum over repetitions is the robust estimator — a regression
    // fires only if every repetition is slow.
    let fresh = measure_best(5, quick, false);
    let mut failed = false;
    for f in &fresh {
        let Some(pin) = pinned
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(f.name))
        else {
            eprintln!("live check: {} not pinned in {against} (skipping)", f.name);
            continue;
        };
        let Some(pin_pps) = pin.get("pps").and_then(Json::as_f64) else {
            eprintln!("live check: pinned {} has no pps", f.name);
            failed = true;
            continue;
        };
        let ratio = pin_pps / f.pps;
        if ratio > tolerance {
            eprintln!(
                "live check: REGRESSION {}: {:.0} pkts/s vs pinned {:.0} ({:.2}x slower > {}x budget)",
                f.name, f.pps, pin_pps, ratio, tolerance
            );
            failed = true;
        } else {
            eprintln!(
                "live check: ok {}: {:.0} pkts/s vs pinned {:.0} ({:.2}x)",
                f.name, f.pps, pin_pps, ratio
            );
        }
    }
    if failed {
        1
    } else {
        eprintln!("live check: all benchmarks within {tolerance}x of {against}");
        0
    }
}

/// Structural validation of a report file: schema tag, non-empty benches,
/// and every entry carrying the fields `check` would need. No measuring.
fn validate(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("live validate: cannot read {path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("live validate: {path} is not valid JSON: {e}");
            return 1;
        }
    };
    if doc.get("schema").and_then(Json::as_str) != Some("srm-livebench/1") {
        eprintln!("live validate: {path} missing schema srm-livebench/1");
        return 1;
    }
    let Some(benches) = doc.get("benches").and_then(Json::as_arr) else {
        eprintln!("live validate: {path} has no benches array");
        return 1;
    };
    if benches.is_empty() {
        eprintln!("live validate: {path} benches array is empty");
        return 1;
    }
    for b in benches {
        let name = b.get("name").and_then(Json::as_str);
        if name.is_none()
            || b.get("pps").and_then(Json::as_f64).is_none()
            || b.get("packets").and_then(Json::as_f64).is_none()
            || b.get("secs").and_then(Json::as_f64).is_none()
        {
            eprintln!(
                "live validate: {path}: bench entry {:?} missing name/packets/secs/pps",
                name.unwrap_or("<unnamed>")
            );
            return 1;
        }
    }
    eprintln!("live validate: {path} ok ({} benches)", benches.len());
    0
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  live run [--quick] [--best N] [--out FILE] [--merge-baseline FILE] [--label S] [--portable]\n  live check --against FILE [--tolerance R] [--quick]\n  live validate FILE"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage();
    };
    let mut quick = false;
    let mut portable = false;
    let mut out: Option<String> = None;
    let mut merge: Option<String> = None;
    let mut against: Option<String> = None;
    let mut label = String::from("working-tree");
    let mut tolerance = 1.25f64;
    let mut best = 1usize;
    let mut file: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--portable" => portable = true,
            "--best" => {
                i += 1;
                best = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--merge-baseline" => {
                i += 1;
                merge = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--against" => {
                i += 1;
                against = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--label" => {
                i += 1;
                label = args.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            a if !a.starts_with('-') && cmd == "validate" && file.is_none() => {
                file = Some(a.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    match cmd {
        "run" => {
            let baseline = merge.as_deref().and_then(extract_baseline);
            let benches = measure_best(best, quick, portable);
            let doc = report(&benches, quick, &label, baseline);
            let text = doc.pretty();
            match out {
                Some(path) => {
                    std::fs::write(&path, format!("{text}\n")).expect("write report");
                    eprintln!("live: wrote {path}");
                }
                None => println!("{text}"),
            }
        }
        "check" => {
            let Some(against) = against else { usage() };
            std::process::exit(check(&against, tolerance, quick));
        }
        "validate" => {
            let Some(file) = file else { usage() };
            std::process::exit(validate(&file));
        }
        _ => usage(),
    }
}

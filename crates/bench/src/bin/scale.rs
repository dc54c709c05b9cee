//! The `scale` macro-benchmark: wall-clock measurement of the simulator
//! hot path at paper scale, distilled into `BENCH_4.json`.
//!
//! Three benchmarks, chosen to bracket the discrete-event hot path:
//!
//! - `flood_1000`: raw zero-protocol fan-out — one 256-byte multicast from
//!   the root of a 1000-node degree-4 tree to 200 members, repeated. This
//!   isolates `Simulator::{process_hop, cross_link, deliver}` and the event
//!   queue with no SRM logic on top.
//! - `fig4_1000_g50`: the Fig-4 unit of work (1000-node degree-4 tree,
//!   group size 50, fixed timers) — one full loss-recovery round per
//!   iteration, exactly what the paper's §V sweeps execute 20×6 times.
//! - `stretch_5000_g100`: a 5000-node stretch case (degree 4, G = 100)
//!   showing the headroom above the paper's largest published topology.
//!
//! Subcommands:
//!
//! ```text
//! scale run        [--quick] [--out FILE] [--merge-baseline FILE] [--label S]
//! scale check      --against FILE [--tolerance R] [--quick]
//! scale durability [--tolerance R] [--quick]
//! scale validate FILE
//! ```
//!
//! `run`, `check` and `validate` are the report harness shared with `live`
//! (the `srm_bench` library). `run` measures and writes a JSON report
//! (schema `srm-bench/1`, documented in EXPERIMENTS.md). `--merge-baseline` carries the `baseline_pre_pr`
//! section of an existing report forward, so the committed `BENCH_4.json`
//! keeps its before/after pairing across refreshes. `check` re-measures
//! (best of five repetitions by *minimum* `mean_ms`, so only a regression
//! every repetition reproduces can fire) and fails with exit 1 if any benchmark regressed
//! more than `tolerance` (default 1.25×) against the report's `benches`
//! section — the CI regression gate. `durability` is the WAL-overhead
//! guard: it runs the Fig-4 round with a durable store attached to every
//! member (in-memory backend, so pure CPU overhead: framing, CRC,
//! indexing) against the plain in-memory round, and fails if the ratio
//! exceeds `tolerance`. `validate` is the structural schema check with no
//! measuring.

use bytes::Bytes;
use netsim::generators::bounded_degree_tree;
use netsim::{GroupId, NodeId, SendOptions, SimTime, Simulator};
use obs::json::Json;
use srm::SrmConfig;
use srm_bench::{round, Bench, Better, Tool};
use srm_experiments::round::run_round;
use srm_experiments::scenario::{DropSpec, ScenarioSpec, TopoSpec};
use srm_experiments::fig4;
use std::time::Instant;

/// One measured benchmark.
struct BenchResult {
    name: &'static str,
    iters: u64,
    mean_ms: f64,
    events_per_sec: f64,
}

/// A sink application: counts deliveries, does nothing else.
struct Sink;
impl netsim::Application for Sink {
    fn on_packet(&mut self, _: &mut netsim::Ctx<'_>, _: &netsim::Packet) {}
    fn on_timer(&mut self, _: &mut netsim::Ctx<'_>, _: u64) {}
}

/// Raw fan-out: `iters` multicasts of a 256-byte payload across a
/// 1000-node tree with 200 members, one event-queue drain per packet.
fn flood_1000(quick: bool) -> BenchResult {
    let iters: u64 = if quick { 40 } else { 400 };
    let topo = bounded_degree_tree(1000, 4);
    let g = GroupId(1);
    let mut sim: Simulator<Sink> = Simulator::new(topo, 1);
    for i in (0..1000u32).step_by(5) {
        sim.install(NodeId(i), Sink);
        sim.join(NodeId(i), g);
    }
    let payload = Bytes::from(vec![0xA5u8; 256]);
    // Warm the routing caches so the measurement is the forwarding path.
    sim.send_from(NodeId(0), g, payload.clone(), SendOptions::default());
    sim.run_until_idle(SimTime::MAX);
    let ev0 = sim.stats.events;
    let start = Instant::now();
    for _ in 0..iters {
        sim.send_from(NodeId(0), g, payload.clone(), SendOptions::default());
        sim.run_until_idle(SimTime::MAX);
    }
    let dt = start.elapsed().as_secs_f64();
    BenchResult {
        name: "flood_1000",
        iters,
        mean_ms: dt * 1e3 / iters as f64,
        events_per_sec: (sim.stats.events - ev0) as f64 / dt,
    }
}

/// One Fig-4 loss-recovery round per iteration (1000 nodes, G = 50).
fn fig4_round(quick: bool) -> BenchResult {
    let iters: u64 = if quick { 12 } else { 40 };
    let mut s = fig4::spec(50, 1, SrmConfig::fixed(50)).build();
    // Warm-up round outside the timed window.
    run_round(&mut s, 100_000.0);
    let ev0 = s.sim.stats.events;
    let start = Instant::now();
    for _ in 0..iters {
        let r = run_round(&mut s, 100_000.0);
        assert!(r.all_recovered, "fig4 bench round failed to recover");
    }
    let dt = start.elapsed().as_secs_f64();
    BenchResult {
        name: "fig4_1000_g50",
        iters,
        mean_ms: dt * 1e3 / iters as f64,
        events_per_sec: (s.sim.stats.events - ev0) as f64 / dt,
    }
}

/// The 5000-node stretch case: one recovery round per iteration.
fn stretch_5000(quick: bool) -> BenchResult {
    let iters: u64 = if quick { 6 } else { 30 };
    let spec = ScenarioSpec {
        topo: TopoSpec::BoundedTree { n: 5000, degree: 4 },
        group_size: Some(100),
        drop: DropSpec::RandomTreeLink,
        cfg: SrmConfig::fixed(100),
        seed: 0x5000_0001,
        timer_seed: None,
    };
    let mut s = spec.build();
    run_round(&mut s, 100_000.0);
    let ev0 = s.sim.stats.events;
    let start = Instant::now();
    for _ in 0..iters {
        let r = run_round(&mut s, 100_000.0);
        assert!(r.all_recovered, "5000-node bench round failed to recover");
    }
    let dt = start.elapsed().as_secs_f64();
    BenchResult {
        name: "stretch_5000_g100",
        iters,
        mean_ms: dt * 1e3 / iters as f64,
        events_per_sec: (s.sim.stats.events - ev0) as f64 / dt,
    }
}

fn measure(quick: bool) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for (name, f) in [
        ("flood_1000", flood_1000 as fn(bool) -> BenchResult),
        ("fig4_1000_g50", fig4_round),
        ("stretch_5000_g100", stretch_5000),
    ] {
        eprintln!("scale: running {name} ({})...", if quick { "quick" } else { "full" });
        let r = f(quick);
        eprintln!(
            "scale: {name}: {:.3} ms/iter over {} iters ({:.0} events/s)",
            r.mean_ms, r.iters, r.events_per_sec
        );
        out.push(r);
    }
    out
}

impl Bench for BenchResult {
    fn name(&self) -> &str {
        self.name
    }

    fn value(&self) -> f64 {
        self.mean_ms
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.into())),
            ("iters".into(), Json::Num(self.iters as f64)),
            ("mean_ms".into(), Json::Num(round(self.mean_ms, 3))),
            ("events_per_sec".into(), Json::Num(round(self.events_per_sec, 3))),
        ])
    }
}

/// One timed batch of Fig-4 recovery rounds, optionally with a durable
/// store (in-memory backend, default WAL tuning) attached to every member
/// so each delivered ADU takes the encode + CRC + index append path.
fn fig4_round_ms(durable: bool, iters: u64) -> f64 {
    let mut s = fig4::spec(50, 1, SrmConfig::fixed(50)).build();
    if durable {
        for m in s.members.clone() {
            s.sim.app_mut(m).expect("installed").attach_durable_store(
                Box::new(srm_store::DurableStore::new(
                    Box::new(srm_store::MemBackend::new()),
                    srm_store::StoreConfig::default(),
                )),
                None,
            );
        }
    }
    // Warm-up round outside the timed window.
    run_round(&mut s, 100_000.0);
    let start = Instant::now();
    for _ in 0..iters {
        let r = run_round(&mut s, 100_000.0);
        assert!(r.all_recovered, "fig4 durability round failed to recover");
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// The WAL-append overhead gate: durability-on Fig-4 rounds must stay
/// within `tolerance`× of durability-off. Interleaved best-of-3 per mode
/// (the same skew argument as `check`).
fn durability(tolerance: f64, quick: bool) -> i32 {
    let iters: u64 = if quick { 8 } else { 24 };
    let mut plain = f64::INFINITY;
    let mut durable = f64::INFINITY;
    for rep in 0..3 {
        eprintln!("scale durability: repetition {}/3...", rep + 1);
        plain = plain.min(fig4_round_ms(false, iters));
        durable = durable.min(fig4_round_ms(true, iters));
    }
    let ratio = durable / plain;
    if ratio > tolerance {
        eprintln!(
            "scale durability: REGRESSION fig4 round: {:.3} ms durable vs {:.3} ms plain ({:.2}x > {}x budget)",
            durable, plain, ratio, tolerance
        );
        1
    } else {
        eprintln!(
            "scale durability: ok — fig4 round {:.3} ms durable vs {:.3} ms plain ({:.2}x ≤ {}x budget)",
            durable, plain, ratio, tolerance
        );
        0
    }
}

const TOOL: Tool = Tool {
    name: "scale",
    schema: "srm-bench/1",
    metric: "mean_ms",
    better: Better::Lower,
    required: &["iters", "mean_ms", "events_per_sec"],
    usage: "  scale run [--quick] [--out FILE] [--merge-baseline FILE] [--label S]\n  scale check --against FILE [--tolerance R] [--quick]\n  scale durability [--tolerance R] [--quick]\n  scale validate FILE",
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = TOOL.parse(&args, |_, _| false);
    TOOL.dispatch(&cli, 1, || measure(cli.quick));
    match cli.cmd.as_str() {
        "durability" => std::process::exit(durability(cli.tolerance, cli.quick)),
        _ => TOOL.usage(),
    }
}

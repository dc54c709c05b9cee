//! `sim_fig4_mix`: the paper's Fig-4 shape on the simulator.
//!
//! Set-up builds 10 scenarios at each group size in {10, 20, 50, 100, 150,
//! 200}: Fig 4's own scenarios (1000-node degree-4 tree, random congested
//! tree link, fixed timers), with every scenario's timer seed derived from
//! the workload seed. Keeping the topologies fixed keeps the work per round
//! comparable across seeds. The timed phase runs a fixed number of passes
//! of one recovery round per scenario, round-robin, in a closed loop on one
//! thread.
//!
//! Why: the figure harness builds a fresh scenario for every round, so
//! `ScenarioSpec::build` (a shortest-path tree per member) is most of its
//! cost; that shows in `setup_s`. The event loop and agent handlers show in
//! rounds per second, and the group sizes vary agent work about 20×. No live
//! layer runs.
//!
//! Checks: every round recovers every loss, and the first pass's exact
//! counts (events, requests and repairs of each round) repeat on scenarios
//! rebuilt from the same seed after the timed phase.

use crate::stats::{derive, Summary};
use crate::trace::Recorder;
use crate::{alloc, Run};
use srm::SrmConfig;
use srm_experiments::fig4;
use srm_experiments::round::run_round;
use srm_experiments::scenario::{ScenarioSpec, Session};
use std::time::Instant;

const SIZES: [usize; 6] = [10, 20, 50, 100, 150, 200];
const PER_SIZE: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes per second of `--seconds`. The pass count is fixed by the
/// argument rather than by the clock, so that memory (every agent keeps
/// every ADU it has seen, to answer repairs) and the exact counts do not
/// depend on speed; a pass takes about 75 ms on a 2-CPU host.
const PASSES_PER_SECOND: f64 = 8.0;
/// Simulated-seconds bound on one round (as the figure harness uses).
const SETTLE_LIMIT_S: f64 = 100_000.0;

/// The exact work one round did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    events: u64,
    requests: u64,
    repairs: u64,
}

fn specs(seed: u64) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for size in SIZES {
        for rep in 0..PER_SIZE {
            let mut spec = fig4::spec(size, rep, SrmConfig::fixed(size));
            spec.timer_seed = Some(derive(seed, (size as u64) << 16 | rep));
            out.push(spec);
        }
    }
    out
}

/// One recovery round; `(counts, all_recovered)`.
fn round(
    s: &mut Session,
    tr: &mut Recorder,
    parent: crate::trace::Open,
    id: u64,
) -> (Counts, bool) {
    let ev0 = s.sim.stats.events;
    let r = tr.timed("experiments.run_round", parent, id, || {
        run_round(s, SETTLE_LIMIT_S)
    });
    let counts = Counts {
        events: s.sim.stats.events - ev0,
        requests: r.requests,
        repairs: r.repairs,
    };
    (counts, r.all_recovered)
}

pub fn run(seed: u64, seconds: f64, tr: &mut Recorder) -> Run {
    let specs = specs(seed);
    let n = specs.len() as u64;
    let mut run = Run::default();

    let mut sessions: Vec<Session> = Vec::with_capacity(specs.len());
    let a0 = alloc::allocations();
    for k in 0..SETUPS {
        // Drop the previous set first, so memory holds one set at a time.
        sessions.clear();
        let root = tr.begin("bench.setup", None, k as u64);
        let t = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            sessions.push(tr.timed("experiments.build", root, i as u64, || spec.build()));
        }
        run.setups_s.push(t.elapsed().as_secs_f64());
        tr.end(root);
    }
    let allocs_per_build = (alloc::allocations() - a0) as f64 / (SETUPS as u64 * n) as f64;

    let mut first: Vec<Counts> = Vec::with_capacity(specs.len());
    let mut events = 0u64;
    let a1 = alloc::allocations();
    let passes = (seconds * PASSES_PER_SECOND).ceil().max(1.0) as u64;
    let start = Instant::now();
    for pass in 0..passes {
        let root = tr.begin("bench.pass", None, pass);
        let t_pass = Instant::now();
        let mut lat = Vec::with_capacity(sessions.len());
        for (i, s) in sessions.iter_mut().enumerate() {
            let t = Instant::now();
            let (c, recovered) = round(s, tr, root, pass * n + i as u64);
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            events += c.events;
            run.attempted += 1;
            run.failed += u64::from(!recovered);
            if pass == 0 {
                first.push(c);
            }
        }
        run.pass_rates
            .push(n as f64 / t_pass.elapsed().as_secs_f64());
        run.latency_ms.extend_from_slice(&lat);
        run.pass_latency.extend(Summary::p50_p99(&mut lat));
        tr.end(root);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let rounds = run.attempted;
    let allocs_per_round = (alloc::allocations() - a1) as f64 / rounds as f64;
    drop(sessions);

    // Replay: rebuilt scenarios must repeat the first pass exactly.
    let mut off = Recorder::new(false);
    for (i, spec) in specs.iter().enumerate() {
        let (c, _) = round(&mut spec.build(), &mut off, None, 0);
        if c != first[i] {
            run.problems.push(format!(
                "scenario {i} (G={}) replayed {c:?}, first pass gave {:?}",
                spec.group_size.unwrap_or(0),
                first[i]
            ));
        }
    }

    // One loss per round, so per-loss ratios are per-round ratios.
    let per_round = |f: fn(&Counts) -> u64| first.iter().map(f).sum::<u64>() as f64 / n as f64;
    let events_per_round = per_round(|c| c.events);
    let requests_per_loss = per_round(|c| c.requests);
    let repairs_per_loss = per_round(|c| c.repairs);
    run.report.push(format!(
        "sim_fig4_mix: {rounds} rounds in {passes} passes over {n} scenarios, {timed_s:.3} s timed; sim_rounds_per_s is throughput_per_s"
    ));
    run.report.push(format!(
        "exact counts, first pass (seed {seed}): netsim.events_per_round = {events_per_round:.4}, srm.requests_per_loss = {requests_per_loss:.4}, srm.repairs_per_loss = {repairs_per_loss:.4}; replay {}",
        if run.problems.is_empty() { "identical" } else { "DIFFERS" }
    ));

    let l = &mut run.layers;
    let mut build_ms: Vec<f64> = tr
        .durations_us("experiments.build")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let mut round_us = tr.durations_us("experiments.run_round");
    if let Some(s) = Summary::of(&mut build_ms) {
        l.insert("experiments.build_ms.p50", s.p50);
        l.insert("experiments.build_ms.p99", s.p99);
        run.report
            .push(format!("experiments.build: {}", s.describe("ms")));
    }
    if let Some(s) = Summary::of(&mut round_us) {
        l.insert("experiments.round_us.p50", s.p50);
        l.insert("experiments.round_us.p99", s.p99);
    }
    l.insert("alloc.per_build", allocs_per_build);
    l.insert("alloc.per_round", allocs_per_round);
    l.insert("netsim.events_per_round", events_per_round);
    l.insert("netsim.events_per_s", events as f64 / timed_s);
    l.insert("srm.requests_per_loss", requests_per_loss);
    l.insert("srm.repairs_per_loss", repairs_per_loss);
    run
}

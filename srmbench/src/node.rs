//! The single-session live workloads: `node_flood` and `node_paced_loss`.
//!
//! Both run a loopback `Harness` (one UDP socket, reactor and receive
//! thread per member) and drive it from the generator thread through
//! `NodeHandle::{exec, take_delivered, stats, shutdown}`.

use crate::live::{
    accounted, node_options, registries, Ledger, Tally, PASS_DEADLINE, POLL_BACKOFF,
};
use crate::stamp::{self, Stamp};
use crate::stats::{derive, Reservoir, Summary};
use crate::trace::Recorder;
use crate::{alloc, Run};
use bytes::Bytes;
use netsim::GroupId;
use srm::{PageId, SourceId, SrmConfig};
use srm_transport::{parse_spec, Harness};
use std::time::{Duration, Instant};

/// Latency samples kept per run, so memory does not grow with throughput.
pub const LATENCY_SAMPLES: usize = 200_000;

/// Smallest payload: per-packet cost dominates.
const FLOOD_PAYLOAD: usize = 64;
/// ADUs per pass; each pass runs on a fresh session, so the agents' ADU
/// stores (every ADU is kept to answer repairs) stay small.
const FLOOD_PASS_ADUS: u64 = 32_768;
/// ADUs per `exec` burst.
const FLOOD_BURST: u64 = 256;
/// Most ADUs in flight (issued, not yet seen delivered): well under the
/// receiver's default inbound channel bound, so a flood measures the
/// datapath rather than overflow and recovery.
const FLOOD_WINDOW: u64 = 2048;

/// `node_flood`: a 2-member session; member 1 publishes 64-byte ADUs in
/// `exec` bursts, kept backlogged up to [`FLOOD_WINDOW`] in flight; a pass
/// ends when member 2 has delivered all [`FLOOD_PASS_ADUS`].
///
/// Why: at the smallest payload per-packet cost dominates (syscalls per
/// frame, buffer pool, envelope decode, agent handling). No recovery and
/// no hub code runs. Latency here is issue-to-delivery under saturation.
pub fn flood(seed: u64, seconds: f64, tr: &mut Recorder) -> Run {
    let mut run = Run::default();
    let mut tally = Tally::default();
    let mut lat = Reservoir::new(LATENCY_SAMPLES, derive(seed, 0x1a7));
    let page = PageId::new(SourceId(1), 0);
    let clock = Instant::now();
    let mut timed = 0.0;
    let mut allocs = 0u64;
    let mut pass = 0u64;
    while pass == 0 || timed < seconds {
        let regs = registries(tr.is_on(), 2);
        let root = tr.begin("bench.pass", None, pass);
        let t = Instant::now();
        let h = tr.timed("runtime.spawn", root, pass, || {
            Harness::loopback(2, GroupId(1), &SrmConfig::fixed(2), |i, _, o| {
                node_options(o, 2, derive(seed, pass << 8 | i as u64), regs.get(i));
            })
            .expect("bind a loopback pair")
        });
        run.setups_s.push(t.elapsed().as_secs_f64());

        let n = FLOOD_PASS_ADUS;
        let base = pass * n;
        let mut ledger = Ledger::new(base, n);
        let mut issued = 0u64;
        let mut pass_lat = Vec::with_capacity(n as usize);
        let a0 = alloc::allocations();
        let t0 = Instant::now();
        while !ledger.complete() && t0.elapsed() < PASS_DEADLINE {
            while issued < n && issued - ledger.got() < FLOOD_WINDOW {
                let k = FLOOD_BURST
                    .min(n - issued)
                    .min(FLOOD_WINDOW - (issued - ledger.got()));
                let t_ns = clock.elapsed().as_nanos() as u64;
                let first = base + issued;
                let payloads: Vec<Bytes> = (first..first + k)
                    .map(|seq| Bytes::from(stamp::encode(Stamp { seq, t_ns }, FLOOD_PAYLOAD)))
                    .collect();
                tr.timed("runtime.exec", root, first, || {
                    h.nodes[0].exec(move |a, d| {
                        for p in payloads {
                            a.send_data(d, page, p);
                        }
                    })
                });
                issued += k;
            }
            let got = tr.timed("runtime.take_delivered", root, base + issued, || {
                h.nodes[1].take_delivered()
            });
            let seen_ns = clock.elapsed().as_nanos() as u64;
            for d in &got {
                if let Some(s) = ledger.check(d) {
                    let ms = seen_ns.saturating_sub(s.t_ns) as f64 / 1e6;
                    lat.push(ms);
                    pass_lat.push(ms);
                }
            }
            if (got.len() as u64) < FLOOD_BURST && !ledger.complete() {
                std::thread::sleep(POLL_BACKOFF);
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        allocs += alloc::allocations() - a0;
        timed += dt;
        run.pass_rates.push(ledger.got() as f64 / dt);
        run.pass_latency.extend(Summary::p50_p99(&mut pass_lat));
        run.attempted += n;
        run.failed += ledger.failed();
        tally.dups += ledger.dups();
        tally.adus += n;

        for (i, node) in h.nodes.iter().enumerate() {
            let s = accounted(
                node,
                &format!("pass {pass} member {}", i + 1),
                &mut run.problems,
            );
            tally.stats(&s);
        }
        let agents = tr.timed("runtime.shutdown", root, pass, || h.shutdown());
        for a in &agents {
            tally.agent(a);
        }
        for r in &regs {
            tally.registry(r);
        }
        tr.end(root);
        pass += 1;
    }
    run.report.push(format!(
        "node_flood: {} ADUs of {FLOOD_PAYLOAD} B in {pass} passes, {timed:.3} s timed; adus_per_s is throughput_per_s",
        tally.adus
    ));
    run.report.push(format!(
        "latency samples: a uniform {} of {} deliveries",
        lat.seen().min(LATENCY_SAMPLES as u64),
        lat.seen()
    ));
    run.latency_ms = lat.into_samples();
    run.layers
        .insert("alloc.per_adu", allocs as f64 / tally.adus as f64);
    tally.emit(tr, &mut run.layers, &mut run.report);
    run
}

/// Offered load of the open loop, ADUs per second.
const PACED_RATE: f64 = 5_000.0;
const PACED_PAYLOAD: usize = 64;
/// Send-side loss probability at the source while the loss window is open.
const PACED_LOSS: f64 = 0.05;
/// The loss window closes this long before the last ADU is due, so later
/// ADUs reveal every gap.
const CLEAN_TAIL_S: f64 = 1.0;
/// Generator tick, ns: sends what is due, then polls both receivers.
const TICK_NS: u64 = 200_000;
/// Set-ups per run; `setup_s` is their median.
const PACED_SETUPS: u64 = 21;
/// The run is invalid, not fast, if more than 1% of ADUs were sent later
/// than this after their due time: a generator that far behind no longer
/// offers the stated load, and its latencies measure its own stalls.
pub const LATE_BOUND_MS: f64 = 20.0;
/// How long after the last due time the generator waits for repairs.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// `node_paced_loss`: a 3-member session under an open loop at
/// [`PACED_RATE`]; the source drops [`PACED_LOSS`] of its frames (chaos)
/// until [`CLEAN_TAIL_S`] before the end. Latency runs from each ADU's due
/// time to the moment the generator sees it in `take_delivered`.
///
/// Why: the same datapath as `node_flood`, measured for latency instead of
/// throughput, far below saturation. Two receivers share each loss, so
/// request/repair suppression runs for real and the repair tail shows.
pub fn paced_loss(seed: u64, seconds: f64, tr: &mut Recorder) -> Run {
    let mut run = Run::default();
    let mut tally = Tally::default();
    let n = (PACED_RATE * seconds).round().max(1.0) as u64;
    let send_s = n as f64 / PACED_RATE;
    let chaos = format!(
        "burst={PACED_LOSS}@0ms+{:.0}ms",
        ((send_s - CLEAN_TAIL_S).max(0.0) * 1e3)
    );

    let mut harness = None;
    let mut regs = Vec::new();
    for k in 0..PACED_SETUPS {
        // Stop the previous set-up before timing the next.
        drop(harness.take());
        regs = registries(tr.is_on(), 3);
        let t = Instant::now();
        let h = tr.timed("runtime.spawn", None, k, || {
            Harness::loopback(3, GroupId(1), &SrmConfig::fixed(3), |i, addrs, o| {
                node_options(o, 3, derive(seed, k << 8 | i as u64), regs.get(i));
                if i == 0 {
                    o.chaos = Some(parse_spec(&chaos, addrs).expect("valid chaos spec"));
                }
            })
            .expect("bind a loopback triple")
        });
        run.setups_s.push(t.elapsed().as_secs_f64());
        harness = Some(h);
    }
    let h = harness.expect("at least one set-up");

    let page = PageId::new(SourceId(1), 0);
    let period_ns = (1e9 / PACED_RATE) as u64;
    let due_ns = |k: u64| k * period_ns;
    let send_end_ns = due_ns(n);
    let mut ledgers = [Ledger::new(0, n), Ledger::new(0, n)];
    let (mut data_ms, mut repair_ms, mut late_ms) =
        (Vec::new(), Vec::new(), Vec::with_capacity(n as usize));
    let mut in_send_phase = 0u64;
    let mut k = 0u64;
    let mut tick = 0u64;
    let a0 = alloc::allocations();
    let clock = Instant::now();
    loop {
        let root = tr.begin("bench.tick", None, tick);
        let now_ns = clock.elapsed().as_nanos() as u64;
        let mut burst = Vec::new();
        while k < n && due_ns(k) <= now_ns {
            late_ms.push((now_ns - due_ns(k)) as f64 / 1e6);
            burst.push(Bytes::from(stamp::encode(
                Stamp {
                    seq: k,
                    t_ns: due_ns(k),
                },
                PACED_PAYLOAD,
            )));
            k += 1;
        }
        if !burst.is_empty() {
            tr.timed("runtime.exec", root, tick, || {
                h.nodes[0].exec(move |a, d| {
                    for p in burst {
                        a.send_data(d, page, p);
                    }
                })
            });
        }
        for (r, ledger) in ledgers.iter_mut().enumerate() {
            let got = tr.timed("runtime.take_delivered", root, tick, || {
                h.nodes[r + 1].take_delivered()
            });
            let seen_ns = clock.elapsed().as_nanos() as u64;
            for d in &got {
                if let Some(s) = ledger.check(d) {
                    let ms = seen_ns.saturating_sub(s.t_ns) as f64 / 1e6;
                    if d.via_repair {
                        repair_ms.push(ms);
                    } else {
                        data_ms.push(ms);
                    }
                    in_send_phase += u64::from(seen_ns <= send_end_ns);
                }
            }
        }
        tr.end(root);
        if k == n && ledgers.iter().all(Ledger::complete) {
            break;
        }
        if clock.elapsed() > Duration::from_nanos(send_end_ns) + DRAIN_DEADLINE {
            break;
        }
        tick += 1;
        let next = Duration::from_nanos(TICK_NS * tick);
        std::thread::sleep(next.saturating_sub(clock.elapsed()));
    }
    let allocs = alloc::allocations() - a0;
    let drained_s = clock.elapsed().as_secs_f64();
    run.pass_rates.push(in_send_phase as f64 / send_s);
    for l in &ledgers {
        run.attempted += n;
        run.failed += l.failed();
        tally.dups += l.dups();
    }
    tally.adus = n;
    for (i, node) in h.nodes.iter().enumerate() {
        let s = accounted(node, &format!("member {}", i + 1), &mut run.problems);
        tally.stats(&s);
    }
    let agents = tr.timed("runtime.shutdown", None, tick, || h.shutdown());
    for a in &agents {
        tally.agent(a);
    }
    for r in &regs {
        tally.registry(r);
    }

    let late = Summary::of(&mut late_ms);
    if let Some(s) = late {
        let max = late_ms.last().copied().unwrap_or(0.0);
        run.report.push(format!(
            "generator lateness: {} max {max:.4} ms",
            s.describe("ms")
        ));
        if s.p99 > LATE_BOUND_MS {
            run.problems.push(format!(
                "generator fell behind its schedule: p99 lateness {:.3} ms > {LATE_BOUND_MS} ms bound; latencies are invalid",
                s.p99
            ));
        }
        run.layers.insert("bench.generator_late_ms.p99", s.p99);
        run.layers.insert("bench.generator_late_ms.max", max);
    }
    run.report.push(format!(
        "node_paced_loss: {n} ADUs at {PACED_RATE} ADUs/s to 2 receivers, chaos `{chaos}` at the source; generator stopped {drained_s:.3} s after the first due time"
    ));
    // One pass: the whole run.
    let mut all = [data_ms.as_slice(), repair_ms.as_slice()].concat();
    run.pass_latency.extend(Summary::p50_p99(&mut all));
    run.latency_ms = all;
    for (label, samples, p50, p99) in [
        ("data", &mut data_ms, "data_p50_ms", "data_p99_ms"),
        ("repair", &mut repair_ms, "repair_p50_ms", "repair_p99_ms"),
    ] {
        if let Some(s) = Summary::of(samples) {
            run.report.push(format!("{label}_ms: {}", s.describe("ms")));
            run.layers.insert(p50, s.p50);
            run.layers.insert(p99, s.p99);
        }
    }
    run.layers
        .insert("alloc.per_adu", allocs as f64 / (2 * n) as f64);
    tally.emit(tr, &mut run.layers, &mut run.report);
    run
}

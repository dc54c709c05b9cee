//! Transport-resilience properties and live chaos integration tests.
//!
//! Three layers, matching the resilience design (DESIGN.md §9):
//!
//! 1. **Seeded determinism** — a [`ChaosState`]'s verdict stream, and the
//!    full output of its send filter ([`ChaosState::filter`]), are pure
//!    functions of `(seed, plan, frame sequence)`. This is what makes a
//!    failing soak replayable from its seed.
//! 2. **Timer-wheel churn** — lazy cancellation plus compaction keeps both
//!    the tombstone set and the heap bounded under arbitrary
//!    arm/cancel/fire interleavings, checked against a brute-force model.
//! 3. **Live recovery** — a three-node loopback mesh where one member is
//!    blackholed mid-session: peers must notice the silence (liveness
//!    suspect/dead), the data sent into the blackhole must be recovered
//!    after the window heals, and every frame must be accounted for.
//!
//! Determinism note for the live tests: thread scheduling is real, so they
//! assert outcomes made robust by construction (windows longer than the
//! maximum sweep gap, generous settle budgets), never exact interleavings.

use bytes::Bytes;
use netsim::{GroupId, SendOptions, SimDuration, SimTime, TimerId};
use obs::TransportEventKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srm::{PageId, SourceId, SrmConfig};
use srm_transport::{harvest_timeline, ChaosPlan, ChaosState, Harness, SoakOptions, TimerWheel};
use std::time::{Duration, Instant};

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Poll `cond` every 20ms until it returns true or `secs` elapse.
fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

// ---------------------------------------------------------------------------
// 1. Seeded chaos determinism
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two [`ChaosState`]s with the same seed and plan produce the
    /// identical verdict stream, and every verdict respects the plan's
    /// probability edges (p=0 never triggers, p=1 always does, hold-backs
    /// stay inside `[delay, delay + jitter]`).
    #[test]
    fn chaos_verdicts_replay_from_seed(
        seed in 0u64..1_000_000,
        loss in 0u32..=100,
        dup in 0u32..=100,
        corrupt in 0u32..=100,
        reorder in 0u32..=100,
        delay_ms in 1u64..200,
        jitter_ms in 0u64..100,
        frames in 1usize..200,
    ) {
        let plan = ChaosPlan::new()
            .loss(f64::from(loss) / 100.0)
            .duplication(f64::from(dup) / 100.0)
            .corruption(f64::from(corrupt) / 100.0)
            .reorder(f64::from(reorder) / 100.0, SimDuration::from_millis(delay_ms))
            .jitter(SimDuration::from_millis(jitter_ms));
        let mut a = ChaosState::new(plan.clone(), seed);
        let mut b = ChaosState::new(plan.clone(), seed);
        for i in 0..frames {
            let now = t(i as u64 * 13);
            let va = a.verdict(now);
            prop_assert_eq!(va, b.verdict(now), "frame {} diverged", i);
            if loss == 100 {
                prop_assert!(!va.deliver);
            }
            if loss == 0 {
                prop_assert!(va.deliver);
            }
            if dup == 0 {
                prop_assert!(!va.duplicate);
            }
            if reorder == 0 {
                prop_assert!(va.delay.is_none());
            }
            if let Some(d) = va.delay {
                prop_assert!(d >= plan.reorder_delay);
                prop_assert!(d <= plan.reorder_delay + plan.jitter);
            }
        }
    }
}

/// Chaos actions a filter run reported, by kind.
#[derive(Debug, Default, PartialEq)]
struct Actions {
    dropped: usize,
    duplicated: usize,
    delayed: usize,
    corrupted: usize,
}

/// Push `frames` payloads through a freshly seeded [`ChaosState::filter`]
/// and return everything observable: the copies sent to the fan-out now,
/// the queued (held-back) frames, and the actions reported.
fn run_filter(
    plan: &ChaosPlan,
    seed: u64,
    frames: usize,
) -> (Vec<(GroupId, Bytes, u32)>, Vec<(SimTime, Bytes)>, Actions) {
    let mut state = ChaosState::new(plan.clone(), seed);
    let mut sent = Vec::new();
    let mut acts = Actions::default();
    let opts = SendOptions::default();
    for i in 0..frames {
        let now = t(i as u64 * 17);
        let mut payload = Bytes::from(format!("frame {i} with room for a body tag"));
        let copies = state.filter(now, GroupId(1), &mut payload, &opts, |k| match k {
            TransportEventKind::ChaosDrop { .. } => acts.dropped += 1,
            TransportEventKind::ChaosDuplicate { .. } => acts.duplicated += 1,
            TransportEventKind::ChaosDelay { .. } => acts.delayed += 1,
            TransportEventKind::ChaosCorrupt { .. } => acts.corrupted += 1,
            other => panic!("not a chaos action: {other:?}"),
        });
        for _ in 0..copies {
            sent.push((GroupId(1), payload.clone(), opts.flow));
        }
    }
    let mut held = Vec::new();
    while let Some(d) = state.delayq.pop_due(t(100_000_000)) {
        held.push((d.due, d.payload));
    }
    (sent, held, acts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Filter-level determinism: same seed + plan + frame sequence ⇒
    /// byte-identical wire output, hold-back schedule, and actions — the
    /// whole observable effect, not just the verdict bits.
    #[test]
    fn chaos_transport_output_replays_from_seed(
        seed in 0u64..1_000_000,
        loss in 0u32..=60,
        dup in 0u32..=40,
        corrupt in 0u32..=40,
        reorder in 0u32..=60,
        frames in 1usize..120,
    ) {
        let plan = ChaosPlan::new()
            .loss(f64::from(loss) / 100.0)
            .duplication(f64::from(dup) / 100.0)
            .corruption(f64::from(corrupt) / 100.0)
            .reorder(f64::from(reorder) / 100.0, SimDuration::from_millis(25))
            .jitter(SimDuration::from_millis(10));
        let (sent_a, held_a, tally_a) = run_filter(&plan, seed, frames);
        let (sent_b, held_b, tally_b) = run_filter(&plan, seed, frames);
        prop_assert_eq!(&sent_a, &sent_b);
        prop_assert_eq!(&held_a, &held_b);
        prop_assert_eq!(tally_a, tally_b);
        // Conservation: every frame is dropped, sent now, or held back —
        // duplicates add one copy to whichever path their original took.
        let total = sent_a.len() + held_a.len() + tally_a.dropped;
        prop_assert_eq!(total, frames + tally_a.duplicated);
    }
}

// ---------------------------------------------------------------------------
// 2. Timer wheel under churn
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ModelTimer {
    id: TimerId,
    at: u64,
    token: u64,
    fired: bool,
    cancelled: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary arm/cancel/advance interleavings against a brute-force
    /// model: expired timers fire in (deadline, arm-order), cancelled ones
    /// never fire, cancel-after-fire is harmless, and the tombstone set
    /// obeys the compaction bound after every cancel.
    #[test]
    fn wheel_churn_matches_model_and_stays_bounded(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = TimerWheel::new();
        let mut model: Vec<ModelTimer> = Vec::new();
        let mut now = 0u64;
        let mut next_token = 0u64;
        for _ in 0..steps {
            for _ in 0..rng.random_range(0..8u32) {
                let at = now + rng.random_range(0..100u64);
                let id = w.arm(t(at), next_token);
                model.push(ModelTimer { id, at, token: next_token, fired: false, cancelled: false });
                next_token += 1;
            }
            for _ in 0..rng.random_range(0..8u32) {
                if model.is_empty() {
                    break;
                }
                let i = rng.random_range(0..model.len());
                if !model[i].cancelled {
                    w.cancel(model[i].id);
                    model[i].cancelled = true;
                    // The compaction contract: tombstones either stay under
                    // the small-wheel floor or under half the heap.
                    prop_assert!(
                        w.pending_cancels() <= 64 || w.pending_cancels() <= w.len() / 2,
                        "tombstones {} vs heap {}",
                        w.pending_cancels(),
                        w.len()
                    );
                }
            }
            now += rng.random_range(0..50u64);
            let mut expected: Vec<(u64, u64)> = model
                .iter()
                .filter(|m| !m.fired && !m.cancelled && m.at <= now)
                .map(|m| (m.at, m.token))
                .collect();
            expected.sort_unstable();
            let mut got = Vec::new();
            while let Some(token) = w.pop_expired(t(now)) {
                got.push(token);
            }
            let expected: Vec<u64> = expected.into_iter().map(|(_, tok)| tok).collect();
            prop_assert_eq!(got, expected);
            for m in model.iter_mut() {
                if !m.cancelled && m.at <= now {
                    m.fired = true;
                }
            }
        }
        // Drain the far future: only un-cancelled, un-fired timers remain.
        let live = model.iter().filter(|m| !m.fired && !m.cancelled).count();
        let mut rest = 0;
        while w.pop_expired(t(100_000_000)).is_some() {
            rest += 1;
        }
        prop_assert_eq!(rest, live);
        prop_assert!(w.is_empty());
    }
}

// ---------------------------------------------------------------------------
// 3. Blackhole-and-heal over live loopback UDP
// ---------------------------------------------------------------------------

/// One member of a three-node mesh goes silent behind a scripted
/// all-destination blackhole, publishes an ADU into the void, and heals:
///
/// - peers must notice the silence (liveness `peer_dead` on the timeline)
///   and the revival after heal (`peer_alive`),
/// - the ADU sent during the window must be recovered at every peer after
///   heal (the soak's eventual-delivery invariant, in miniature),
/// - the blackholed frames must be *accounted* — swallowed by the window,
///   not silently lost ([`srm_transport::TransportStats::frames_accounted`]).
///
/// The window `[1s, 5s)` is sized so the dead threshold (1.6 nominal
/// intervals = 1.6s of silence) is crossed with ≥ 2.4s to spare — longer
/// than the maximum session-sweep gap (1.5s) — so a sweep is guaranteed to
/// sample the dead state regardless of jitter draws.
#[test]
fn blackhole_heal_recovers_data_and_tracks_liveness() {
    let cfg = SrmConfig::fixed(3);
    let liveness = srm::LivenessConfig { suspect_after: 0.8, dead_after: 1.6 };
    let started = Instant::now();
    let h = Harness::loopback(3, GroupId(9), &cfg, |i, _addrs, opts| {
        opts.trace = true;
        opts.liveness = Some(liveness);
        if i == 0 {
            opts.chaos = Some(ChaosPlan::new().blackhole_all(t(1_000), t(5_000)));
        }
    })
    .unwrap();

    // Before the window: an ADU that flows normally, making sure every
    // peer has heard member 1 (liveness tracks only peers seen at least
    // once).
    let page = PageId::new(SourceId(1), 0);
    let before = h.nodes[0].send_data(page, Bytes::from_static(b"before the partition"));
    let mut got1 = Vec::new();
    let mut got2 = Vec::new();
    assert!(
        wait_for(10, || {
            got1.extend(h.nodes[1].take_delivered());
            got2.extend(h.nodes[2].take_delivered());
            got1.iter().any(|d| d.name == before) && got2.iter().any(|d| d.name == before)
        }),
        "pre-window ADU did not arrive"
    );

    // Into the window: wait until member 1's clock is inside [1s, 5s),
    // then publish. Every frame of this ADU is swallowed.
    while started.elapsed() < Duration::from_millis(1_600) {
        std::thread::sleep(Duration::from_millis(20));
    }
    let during = h.nodes[0].send_data(page, Bytes::from_static(b"sent into the void"));

    // After heal: session messages resume, peers spot the gap, and SRM
    // recovery delivers the void ADU everywhere.
    assert!(
        wait_for(40, || {
            got1.extend(h.nodes[1].take_delivered());
            got2.extend(h.nodes[2].take_delivered());
            got1.iter().any(|d| d.name == during) && got2.iter().any(|d| d.name == during)
        }),
        "blackholed ADU was not recovered after heal"
    );

    let stats: Vec<_> = h.nodes.iter().map(|n| n.stats()).collect();
    assert!(
        stats[0].blackholed >= 2,
        "the void ADU's fan-out (2 destinations) must be counted: {:?}",
        stats[0]
    );
    for (i, s) in stats.iter().enumerate() {
        assert!(s.frames_accounted(), "member {} leaks frames: {:?}", i + 1, s);
        assert_eq!(s.recv_deaths, 0, "member {} recv thread died", i + 1);
    }

    let mut agents = h.shutdown();
    let jsonl = harvest_timeline(&mut agents).to_jsonl();
    assert!(jsonl.contains("\"ev\":\"blackholed\""), "blackhole events missing from timeline");
    assert!(jsonl.contains("\"ev\":\"peer_dead\""), "peers never declared member 1 dead");
    assert!(jsonl.contains("\"ev\":\"peer_alive\""), "member 1 never revived after heal");
}

/// A node on group 1 under a plan scoped to group 7: group 1's frames are
/// not the plan's to touch, so neither an all-destination blackhole over
/// the whole run nor a rule dropping the first DATA frame (`srm-node
/// --drop-data 0` with `group=7`) may stop its DATA arriving as original.
#[test]
fn group_scoped_plan_spares_other_groups() {
    let plans = [
        ChaosPlan::new().blackhole_all(t(0), t(60_000)).scoped_to(7),
        ChaosPlan::new().drop_nth(netsim::flow::DATA, 0).scoped_to(7),
    ];
    for plan in plans {
        let cfg = SrmConfig::fixed(2);
        let h = Harness::loopback(2, GroupId(1), &cfg, |i, _addrs, opts| {
            opts.session_enabled = false;
            if i == 0 {
                opts.chaos = Some(plan.clone());
            }
        })
        .unwrap();
        let page = PageId::new(SourceId(1), 0);
        let name = h.nodes[0].send_data(page, Bytes::from_static(b"not group 7's"));
        let mut got = Vec::new();
        let arrived = wait_for(10, || {
            got.extend(h.nodes[1].take_delivered());
            got.iter().any(|d| d.name == name)
        });
        let st = h.nodes[0].stats();
        assert!(arrived, "group-1 DATA never arrived under {plan:?}: {st:?}");
        assert!(!got.iter().any(|d| d.via_repair), "delivered as original DATA");
        assert_eq!((st.blackholed, st.frames_dropped), (0, 0), "{st:?}");
        assert!(st.frames_accounted(), "{st:?}");
    }
}

/// Library-level soak smoke: a short bounded run under the default mixed
/// chaos spec must satisfy every soak invariant (eventual delivery, no
/// reactor deaths, bounded growth, full frame accounting). The CLI gate in
/// scripts/ci.sh runs the same check through `srm-node soak`.
#[test]
fn bounded_soak_run_passes_all_invariants() {
    let opts = SoakOptions {
        nodes: 3,
        duration: Duration::from_secs(2),
        adus_per_node: 2,
        chaos: "loss=0.08,dup=0.05,reorder=0.1:20ms,jitter=10ms,burst=0.85@500ms+1s".into(),
        seed: 11,
        settle: Duration::from_secs(25),
        trace: false,
        ..SoakOptions::default()
    };
    let report = srm_transport::soak::run(&opts).expect("soak harness failed to start");
    assert_eq!(
        report.violations(),
        Vec::<String>::new(),
        "soak violated invariants:\n{}",
        report.render()
    );
    assert_eq!(report.adus_sent, 6);
}

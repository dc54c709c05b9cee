//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and (per layer) the layer it
//! measures and the end-to-end metric and workload it should move.
//! `BENCHMARK.json` lists the same names and units; a unit test keeps the
//! two in step.

/// An end-to-end metric, reported by every workload in the untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        meaning: "median time before the timed phase: scenario builds, or socket binds, node/hub spawns and group creates",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        meaning: "peak resident memory of the benchmark process",
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        meaning: "median over passes of work done per second: recovery rounds (sim), ADU deliveries summed over receivers (live)",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        meaning: "median over timed passes of each pass's median latency of one unit of work: a recovery round's wall time (sim), an ADU from issue or due time to its delivery seen by the generator (live)",
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: "lower",
        meaning: "median over timed passes of each pass's 99th-percentile latency (node_paced_loss is one pass)",
    },
];

/// A per-layer metric, reported by every workload in the traced run; a
/// layer the workload does not run reads 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const SIM_SETUP: &str = "setup_s on sim_fig4_mix";
const SIM_RATE: &str = "throughput_per_s, latency_p50_ms/p99 on sim_fig4_mix";
const PACED_TAIL: &str = "latency_p99_ms on node_paced_loss";
const PACED_ALL: &str = "latency_p50_ms/latency_p99_ms on node_paced_loss";
const NODE_RATE: &str = "throughput_per_s on node_flood";
const NODE_RATE_PACED: &str = "throughput_per_s on node_flood, latency_p99_ms on node_paced_loss";
const FLOODS: &str = "throughput_per_s on node_flood and hub_flood";
const HUB_RATE: &str = "throughput_per_s on hub_flood (no change predicted on node_*)";

pub const PER_LAYER: &[PerLayer] = &[
    m(
        "experiments.build_ms.p50",
        "ms",
        "lower",
        "experiments",
        SIM_SETUP,
    ),
    m(
        "experiments.build_ms.p99",
        "ms",
        "lower",
        "experiments",
        SIM_SETUP,
    ),
    m(
        "alloc.per_build",
        "count",
        "lower",
        "experiments",
        SIM_SETUP,
    ),
    m(
        "experiments.round_us.p50",
        "us",
        "lower",
        "experiments",
        SIM_RATE,
    ),
    m(
        "experiments.round_us.p99",
        "us",
        "lower",
        "experiments",
        SIM_RATE,
    ),
    m(
        "netsim.events_per_round",
        "count",
        "lower",
        "netsim",
        SIM_RATE,
    ),
    m("netsim.events_per_s", "1/s", "higher", "netsim", SIM_RATE),
    m(
        "srm.requests_per_loss",
        "ratio",
        "lower",
        "srm",
        "throughput_per_s on sim_fig4_mix; latency_p99_ms on node_paced_loss",
    ),
    m(
        "srm.repairs_per_loss",
        "ratio",
        "lower",
        "srm",
        "throughput_per_s on sim_fig4_mix; latency_p99_ms on node_paced_loss",
    ),
    m(
        "srm.held_down_per_loss",
        "ratio",
        "lower",
        "srm",
        PACED_TAIL,
    ),
    m("srm.gave_up", "count", "lower", "srm", PACED_TAIL),
    m("srm.recovery_ms.p50", "ms", "lower", "srm", PACED_TAIL),
    m("srm.recovery_ms.p99", "ms", "lower", "srm", PACED_TAIL),
    m(
        "srm.dup_deliveries",
        "count",
        "lower",
        "srm",
        "must be 0 on every workload",
    ),
    m("alloc.per_round", "count", "lower", "srm", SIM_RATE),
    m("alloc.per_adu", "count", "lower", "srm", FLOODS),
    m(
        "runtime.exec_us.p50",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE_PACED,
    ),
    m(
        "runtime.exec_us.p99",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE_PACED,
    ),
    m(
        "runtime.take_delivered_us.p50",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE_PACED,
    ),
    m(
        "runtime.frames_sent_per_adu",
        "ratio",
        "lower",
        "transport.runtime",
        NODE_RATE_PACED,
    ),
    m(
        "runtime.inbound_overflow",
        "count",
        "lower",
        "transport.runtime",
        NODE_RATE_PACED,
    ),
    m(
        "runtime.send_errors",
        "count",
        "lower",
        "transport.runtime",
        NODE_RATE_PACED,
    ),
    m(
        "stage.queue_us.p50",
        "us",
        "lower",
        "transport.runtime",
        PACED_ALL,
    ),
    m(
        "stage.queue_us.p99",
        "us",
        "lower",
        "transport.runtime",
        PACED_ALL,
    ),
    m(
        "stage.decode_us.p50",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE,
    ),
    m(
        "stage.decode_us.p99",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE,
    ),
    m(
        "stage.handle_us.p50",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE,
    ),
    m(
        "stage.handle_us.p99",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE,
    ),
    m(
        "stage.send_us.p50",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE,
    ),
    m(
        "stage.send_us.p99",
        "us",
        "lower",
        "transport.runtime",
        NODE_RATE,
    ),
    m(
        "batch.inbound_drain.p50",
        "count",
        "higher",
        "transport.runtime",
        PACED_ALL,
    ),
    m(
        "batch.recv_frames.p50",
        "count",
        "higher",
        "transport.batch",
        FLOODS,
    ),
    m(
        "batch.send_frames.p50",
        "count",
        "higher",
        "transport.batch",
        FLOODS,
    ),
    m(
        "pool.misses_per_frame",
        "ratio",
        "lower",
        "transport.pool",
        FLOODS,
    ),
    m(
        "chaos.dropped",
        "count",
        "lower",
        "transport.chaos",
        "base count of injected losses: every live per-loss ratio divides by it",
    ),
    m("hub.send_us.p50", "us", "lower", "transport.hub", HUB_RATE),
    m("hub.send_us.p99", "us", "lower", "transport.hub", HUB_RATE),
    m(
        "hub.demux_splits_per_frame",
        "ratio",
        "lower",
        "transport.hub",
        HUB_RATE,
    ),
    m(
        "hub.inbound_overflow",
        "count",
        "lower",
        "transport.shard",
        HUB_RATE,
    ),
    m(
        "hub.rx_frames_per_adu",
        "ratio",
        "lower",
        "transport.hub",
        HUB_RATE,
    ),
    m(
        "bench.generator_late_ms.p99",
        "ms",
        "lower",
        "generator",
        "validity of every latency on node_paced_loss",
    ),
    m(
        "bench.generator_late_ms.max",
        "ms",
        "lower",
        "generator",
        "validity of every latency on node_paced_loss",
    ),
    m("data_p50_ms", "ms", "lower", "srm", PACED_ALL),
    m("data_p99_ms", "ms", "lower", "srm", PACED_ALL),
    m("repair_p50_ms", "ms", "lower", "srm", PACED_TAIL),
    m("repair_p99_ms", "ms", "lower", "srm", PACED_TAIL),
    m(
        "self_ms.bench",
        "ms",
        "lower",
        "generator",
        "the benchmark's own share of every end-to-end metric",
    ),
    m(
        "self_ms.experiments",
        "ms",
        "lower",
        "experiments",
        SIM_RATE,
    ),
    m(
        "self_ms.runtime",
        "ms",
        "lower",
        "transport.runtime",
        "throughput_per_s on node_flood and node_paced_loss",
    ),
    m("self_ms.hub", "ms", "lower", "transport.hub", HUB_RATE),
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        "tracing",
        "difference between the traced and untraced throughput_per_s",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use srm_sim::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(
            workloads,
            crate::WORKLOADS
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

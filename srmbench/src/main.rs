//! `srmbench`: one benchmark for the SRM simulator and the live stack.
//!
//! ```text
//! bash srmbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads, each driving the layers from outside through their public
//! API, with load from one generator thread (`sim`, `node`, `hub` modules
//! say why each is included):
//!
//! - `sim_fig4_mix`: Fig-4 recovery rounds over 60 pre-built scenarios;
//! - `node_flood`: a 2-member loopback session, 64-byte ADUs, closed loop;
//! - `node_paced_loss`: a 3-member session, open loop at 5,000 ADUs/s with
//!   5% send-side loss;
//! - `hub_flood`: one 2-shard hub hosting 4 groups, 1,000-byte ADUs.
//!
//! With `--trace 0` the run reports every end-to-end metric of
//! [`metrics::END_TO_END`]. With `--trace 1` it runs the workload twice,
//! untraced and then traced (spans around every call into a layer, the
//! nodes' and hub's metric registries on, the counting allocator on), and
//! reports every per-layer metric of [`metrics::PER_LAYER`], each layer's
//! self time and the tracing overhead; the spans are written to
//! `srmbench/out/`. Either way the last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the human-readable report. Inputs derive from `--seed` only.

mod alloc;
mod hub;
mod live;
mod metrics;
mod node;
mod sim;
mod stamp;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Recorder;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sim_fig4_mix", "node_flood", "node_paced_loss", "hub_flood"];

/// What one run of a workload measured and checked.
#[derive(Default)]
pub struct Run {
    /// Duration of every set-up the run made, seconds.
    pub setups_s: Vec<f64>,
    /// Work per second of each timed pass.
    pub pass_rates: Vec<f64>,
    /// Median and 99th percentile of the latencies (ms) within each timed
    /// pass.
    pub pass_latency: Vec<(f64, f64)>,
    /// Every latency of the run, ms, or a uniform sample when there were
    /// many: the pooled distribution for the report.
    pub latency_ms: Vec<f64>,
    /// Units of work the run expected: rounds, or ADU × receiver deliveries.
    pub attempted: u64,
    /// Units that failed: unrecovered rounds, or deliveries missing at the
    /// deadline, with a wrong payload, or duplicated.
    pub failed: u64,
    /// Other output checks that failed (invariants, replays, generator).
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Per-layer metrics; reported by the traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("srmbench: {why}");
    eprintln!(
        "usage: srmbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = val
                    .parse()
                    .map_err(|_| format!("bad value `{val}` for {flag}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{val}` for {flag}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(args: &Args, traced: bool) -> (Run, Recorder) {
    let mut tr = Recorder::new(traced);
    alloc::set_counting(traced);
    let run = match args.workload.as_str() {
        "sim_fig4_mix" => sim::run(args.seed, args.seconds, &mut tr),
        "node_flood" => node::flood(args.seed, args.seconds, &mut tr),
        "node_paced_loss" => node::paced_loss(args.seed, args.seconds, &mut tr),
        "hub_flood" => hub::flood(args.seed, args.seconds, &mut tr),
        other => unreachable!("workload `{other}` passed validation"),
    };
    alloc::set_counting(false);
    (run, tr)
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, in [`metrics::END_TO_END`]
/// order.
fn end_to_end(run: &mut Run) -> Vec<f64> {
    let setup = stats::median(&mut run.setups_s);
    let rate = stats::median(&mut run.pass_rates);
    let mut p50s: Vec<f64> = run.pass_latency.iter().map(|l| l.0).collect();
    let mut p99s: Vec<f64> = run.pass_latency.iter().map(|l| l.1).collect();
    let (p50, p99) = (stats::median(&mut p50s), stats::median(&mut p99s));
    let rss = peak_rss_mb();
    let q = |p| stats::quantile(&run.pass_rates, p).unwrap_or(0.0);
    let passes = run.pass_rates.len();
    run.report.extend([
        format!("setup_s = {setup:.6} s (median of {} set-ups)", run.setups_s.len()),
        format!(
            "throughput_per_s = {rate:.2} 1/s (median of {passes} passes; min {:.2}, p25 {:.2}, p75 {:.2}, max {:.2})",
            q(0.0),
            q(0.25),
            q(0.75),
            q(1.0)
        ),
        format!(
            "latency_p50_ms = {p50:.4} ms, latency_p99_ms = {p99:.4} ms (medians over {} passes of each pass's percentile)",
            run.pass_latency.len()
        ),
        format!("peak_rss_mb = {rss:.2} MB"),
    ]);
    match stats::Summary::of(&mut run.latency_ms) {
        Some(s) => run
            .report
            .push(format!("latency pooled over the run: {}", s.describe("ms"))),
        None => run.problems.push("no latency samples".into()),
    }
    for m in metrics::END_TO_END {
        run.report.push(format!(
            "  {} ({}, {} is better): {}",
            m.name, m.unit, m.better, m.meaning
        ));
    }
    vec![setup, rss, rate, p50, p99]
}

/// The per-layer metrics of a traced run, in [`metrics::PER_LAYER`] order:
/// the workload's own, every layer's self time and the tracing overhead
/// against the untraced run's throughput; 0 for layers it does not run.
fn per_layer(traced: &mut Run, tr: &Recorder, untraced_rate: f64) -> Vec<f64> {
    let self_times = trace::self_times(tr.spans());
    let total: u64 = self_times.values().map(|v| v.0).sum();
    traced.report.push("self time by layer:".into());
    for (layer, &(ns, count)) in &self_times {
        let ms = ns as f64 / 1e6;
        traced.report.push(format!(
            "  {layer:<12} {ms:>10.3} ms  {:>5.1}%  over {count} spans",
            100.0 * ns as f64 / total.max(1) as f64
        ));
        if let Some(m) = metrics::PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("self_ms.") == Some(*layer))
        {
            traced.layers.insert(m.name, ms);
        }
    }
    let traced_rate = stats::median(&mut traced.pass_rates);
    let overhead = 100.0 * (untraced_rate - traced_rate) / untraced_rate;
    traced.report.push(format!(
        "tracing overhead: throughput {untraced_rate:.2} 1/s untraced vs {traced_rate:.2} 1/s traced = {overhead:.2}%"
    ));
    traced.layers.insert("trace.overhead_pct", overhead);
    let values: Vec<f64> = metrics::PER_LAYER
        .iter()
        .map(|m| traced.layers.get(m.name).copied().unwrap_or(0.0))
        .collect();
    for (m, v) in metrics::PER_LAYER.iter().zip(&values) {
        traced.report.push(format!(
            "  {:<32} {v:>14.4} {:<6} ({} is better) [{}] -> {}",
            m.name, m.unit, m.better, m.layer, m.moves
        ));
    }
    values
}

/// The result line: `metrics` are `(name, unit, value)`.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!(r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    println!(
        "srmbench {} seed={} seconds={} trace={} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (mut base, _) = run_workload(&args, false);
    let e2e = end_to_end(&mut base);
    let (shown, values): (Run, Vec<(&str, &str, f64)>) = if args.trace {
        let (mut traced, tr) = run_workload(&args, true);
        let untraced_rate = stats::median(&mut base.pass_rates);
        let layer = per_layer(&mut traced, &tr, untraced_rate);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => traced.report.push(format!(
                "{} spans written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => traced.problems.push(format!("could not write spans: {e}")),
        }
        // Both runs' checks count.
        let mut both = Run {
            attempted: base.attempted + traced.attempted,
            failed: base.failed + traced.failed,
            ..Run::default()
        };
        for (label, run) in [("untraced", base), ("traced", traced)] {
            both.report.push(format!("{label} run:"));
            both.report
                .extend(run.report.into_iter().map(|l| format!("  {l}")));
            both.problems.extend(
                run.problems
                    .into_iter()
                    .map(|p| format!("{label} run: {p}")),
            );
        }
        let values = metrics::PER_LAYER
            .iter()
            .zip(layer)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        (both, values)
    } else {
        let values = metrics::END_TO_END
            .iter()
            .zip(e2e)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        (base, values)
    };
    for line in &shown.report {
        println!("{line}");
    }
    println!(
        "failed_ratio = {}/{} = {:.6}",
        shown.failed,
        shown.attempted,
        shown.failed as f64 / shown.attempted.max(1) as f64
    );
    for p in &shown.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = shown.failed == 0 && shown.problems.is_empty() && shown.attempted > 0;
    println!(
        "{}",
        json_line(correct, shown.attempted.max(1), shown.failed, &values)
    );
    ExitCode::SUCCESS
}

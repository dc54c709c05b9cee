//! # srm-bench
//!
//! Benchmarks for the SRM reproduction.
//!
//! Criterion targets live in `benches/`:
//!
//! - `figures`: one benchmark per reproduced paper figure (the unit of
//!   work of each evaluation scenario);
//! - `substrate`: microbenchmarks of the simulator and protocol substrates
//!   (event queue, routing, Prüfer generation, wire codecs, token bucket);
//! - `ablation`: the design-choice ablations DESIGN.md calls out (timer
//!   scaling, randomization width, backoff factor, adaptation, recovery
//!   scope, hold-down).
//!
//! Two macro-benchmark binaries time the end-to-end paths: `scale` (the
//! simulator, pinned in `BENCH_4.json`) and `live` (the UDP transport,
//! pinned in `BENCH_9.json`). This library is the one report harness both
//! share: the command line, the `run` / `check` / `validate` subcommands,
//! the report document, and the best-of-N regression gate. A binary
//! supplies a [`Tool`] descriptor, its workloads, and one JSON row per
//! bench ([`Bench`]); the two report schemas differ only in those rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use obs::json::Json;

/// Which way a tool's gated metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (a time per iteration).
    Lower,
    /// Larger is better (a throughput).
    Higher,
}

/// One measured benchmark, as a tool reports it.
pub trait Bench {
    /// The bench's name; `check` matches pinned rows by it.
    fn name(&self) -> &str;
    /// The value of the tool's gated metric ([`Tool::metric`]).
    fn value(&self) -> f64;
    /// The bench's row in the report's `benches` array.
    fn to_json(&self) -> Json;
}

/// A macro-benchmark tool: its report schema and its regression gate.
pub struct Tool {
    /// Binary name; every message starts with it.
    pub name: &'static str,
    /// The report's `schema` tag.
    pub schema: &'static str,
    /// The per-bench field `check` gates on.
    pub metric: &'static str,
    /// Which way `metric` improves.
    pub better: Better,
    /// Numeric per-bench fields `validate` requires besides `name`.
    pub required: &'static [&'static str],
    /// Usage lines, printed on a bad command line.
    pub usage: &'static str,
}

/// The command line shared by every tool.
#[derive(Debug)]
pub struct Cli {
    /// The subcommand (`run`, `check`, `validate`, or tool-specific).
    pub cmd: String,
    /// `--quick`: shorter workloads.
    pub quick: bool,
    /// `--out FILE`: where `run` writes its report (default stdout).
    pub out: Option<String>,
    /// `--merge-baseline FILE`: report whose baseline `run` carries forward.
    pub merge: Option<String>,
    /// `--against FILE`: the pinned report `check` gates on.
    pub against: Option<String>,
    /// `--label S`: the report's label.
    pub label: String,
    /// `--tolerance R`: the regression budget, as a ratio (default 1.25).
    pub tolerance: f64,
    /// The report `validate` checks.
    pub file: Option<String>,
}

/// Repetitions `check` takes the best of.
const CHECK_REPS: usize = 5;

/// Round `x` to `places` decimal places (report rows stay short).
pub fn round(x: f64, places: i32) -> f64 {
    let k = 10f64.powi(places);
    (x * k).round() / k
}

impl Tool {
    /// Print the usage text and exit with status 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage:\n{}", self.usage);
        std::process::exit(2);
    }

    /// Parse `args` (without the program name). A flag the harness does
    /// not know goes to `extra`, with a closure that takes the flag's
    /// value; `extra` returns false to reject it.
    pub fn parse(
        &self,
        args: &[String],
        mut extra: impl FnMut(&str, &mut dyn FnMut() -> String) -> bool,
    ) -> Cli {
        let Some(cmd) = args.first() else {
            self.usage()
        };
        let mut cli = Cli {
            cmd: cmd.clone(),
            quick: false,
            out: None,
            merge: None,
            against: None,
            label: "working-tree".into(),
            tolerance: 1.25,
            file: None,
        };
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            let mut value = || rest.next().unwrap_or_else(|| self.usage()).clone();
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--out" => cli.out = Some(value()),
                "--merge-baseline" => cli.merge = Some(value()),
                "--against" => cli.against = Some(value()),
                "--label" => cli.label = value(),
                "--tolerance" => cli.tolerance = value().parse().unwrap_or_else(|_| self.usage()),
                f if !f.starts_with('-') && cli.cmd == "validate" && cli.file.is_none() => {
                    cli.file = Some(f.to_string());
                }
                f => {
                    if !extra(f, &mut value) {
                        self.usage()
                    }
                }
            }
        }
        cli
    }

    /// Run the shared subcommands and exit with their status; returns only
    /// for a subcommand the tool handles itself. `measure` takes one
    /// repetition of every bench: `run` keeps the best of `runs`, `check`
    /// the best of five.
    pub fn dispatch<B: Bench>(&self, cli: &Cli, runs: usize, measure: impl FnMut() -> Vec<B>) {
        let code = match cli.cmd.as_str() {
            "run" => {
                let baseline = cli.merge.as_deref().and_then(extract_baseline);
                let benches = self.best_of(runs, measure);
                let text = self.report(&benches, cli, baseline).pretty();
                match &cli.out {
                    Some(path) => {
                        std::fs::write(path, format!("{text}\n")).expect("write report");
                        eprintln!("{}: wrote {path}", self.name);
                    }
                    None => println!("{text}"),
                }
                0
            }
            "check" => {
                let Some(against) = &cli.against else {
                    self.usage()
                };
                match self.load("check", against) {
                    Some(pinned) => {
                        let fresh = self.best_of(CHECK_REPS, measure);
                        i32::from(!self.gate(&pinned, &fresh, cli.tolerance, against))
                    }
                    None => 1,
                }
            }
            "validate" => {
                let Some(file) = &cli.file else { self.usage() };
                self.validate(file)
            }
            _ => return,
        };
        std::process::exit(code);
    }

    /// Best of `reps` repetitions per bench by the gated metric. Host noise
    /// (scheduling, page faults) only ever makes a repetition look worse,
    /// so the best one is the robust estimator: a regression fires only if
    /// every repetition shows it.
    pub fn best_of<B: Bench>(&self, reps: usize, mut measure: impl FnMut() -> Vec<B>) -> Vec<B> {
        let mut best = measure();
        for _ in 1..reps.max(1) {
            for (b, g) in best.iter_mut().zip(measure()) {
                let wins = match self.better {
                    Better::Lower => g.value() < b.value(),
                    Better::Higher => g.value() > b.value(),
                };
                if wins {
                    *b = g;
                }
            }
        }
        best
    }

    fn report<B: Bench>(&self, benches: &[B], cli: &Cli, baseline: Option<Json>) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::Str(self.schema.into())),
            ("label".into(), Json::Str(cli.label.clone())),
            ("quick".into(), Json::Bool(cli.quick)),
            (
                "benches".into(),
                Json::Arr(benches.iter().map(Bench::to_json).collect()),
            ),
        ];
        if let Some(b) = baseline {
            fields.push(("baseline_pre_pr".into(), b));
        }
        Json::Obj(fields)
    }

    /// Read a report, check its schema tag, and return its `benches`
    /// array. Failures are printed under `what` and give `None`.
    fn load(&self, what: &str, path: &str) -> Option<Vec<Json>> {
        let tag = format!("{} {what}", self.name);
        let text = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("{tag}: cannot read {path}: {e}"))
            .ok()?;
        let doc = Json::parse(&text)
            .map_err(|e| eprintln!("{tag}: {path} is not valid JSON: {e}"))
            .ok()?;
        if doc.get("schema").and_then(Json::as_str) != Some(self.schema) {
            eprintln!("{tag}: {path} missing schema {}", self.schema);
            return None;
        }
        let Some(benches) = doc.get("benches").and_then(Json::as_arr) else {
            eprintln!("{tag}: {path} has no benches array");
            return None;
        };
        Some(benches.to_vec())
    }

    /// Compare fresh measurements with the pinned rows; true when every
    /// pinned bench is within `tolerance` (ratio of worse to better).
    fn gate<B: Bench>(&self, pinned: &[Json], fresh: &[B], tolerance: f64, against: &str) -> bool {
        let (tool, metric) = (self.name, self.metric);
        let mut ok = true;
        for f in fresh {
            let name = f.name();
            let Some(pin) = pinned
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
            else {
                eprintln!("{tool} check: {name} not pinned in {against} (skipping)");
                continue;
            };
            let Some(pin_v) = pin.get(metric).and_then(Json::as_f64) else {
                eprintln!("{tool} check: pinned {name} has no {metric}");
                ok = false;
                continue;
            };
            let ratio = match self.better {
                Better::Lower => f.value() / pin_v,
                Better::Higher => pin_v / f.value(),
            };
            let values = format!("{metric} {:.3} vs pinned {pin_v:.3}", f.value());
            if ratio > tolerance {
                eprintln!(
                    "{tool} check: REGRESSION {name}: {values} ({ratio:.2}x > {tolerance}x budget)"
                );
                ok = false;
            } else {
                eprintln!("{tool} check: ok {name}: {values} ({ratio:.2}x)");
            }
        }
        if ok {
            eprintln!("{tool} check: all benchmarks within {tolerance}x of {against}");
        }
        ok
    }

    /// Structural validation of a report: schema tag, non-empty benches,
    /// and every entry carrying the fields `check` needs. No measuring.
    fn validate(&self, path: &str) -> i32 {
        let Some(benches) = self.load("validate", path) else {
            return 1;
        };
        if benches.is_empty() {
            eprintln!("{} validate: {path} benches array is empty", self.name);
            return 1;
        }
        for b in &benches {
            let name = b.get("name").and_then(Json::as_str);
            if name.is_none()
                || self
                    .required
                    .iter()
                    .any(|k| b.get(k).and_then(Json::as_f64).is_none())
            {
                eprintln!(
                    "{} validate: {path}: bench entry {:?} missing name/{}",
                    self.name,
                    name.unwrap_or("<unnamed>"),
                    self.required.join("/")
                );
                return 1;
            }
        }
        eprintln!(
            "{} validate: {path} ok ({} benches)",
            self.name,
            benches.len()
        );
        0
    }
}

/// Pull a baseline section out of an existing report: prefer its explicit
/// `baseline_pre_pr`, else treat its own `benches` as the baseline (the
/// first report written before an optimisation is exactly that).
fn extract_baseline(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).ok()?;
    doc.get("baseline_pre_pr")
        .or_else(|| doc.get("benches"))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row(&'static str, f64);

    impl Bench for Row {
        fn name(&self) -> &str {
            self.0
        }
        fn value(&self) -> f64 {
            self.1
        }
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("name".into(), Json::Str(self.0.into())),
                ("v".into(), Json::Num(self.1)),
            ])
        }
    }

    fn tool(better: Better) -> Tool {
        Tool {
            name: "t",
            schema: "t/1",
            metric: "v",
            better,
            required: &["v"],
            usage: "",
        }
    }

    #[test]
    fn best_of_keeps_the_best_repetition_in_the_tool_direction() {
        let mut reps = [
            vec![Row("a", 3.0)],
            vec![Row("a", 1.0)],
            vec![Row("a", 2.0)],
        ]
        .into_iter();
        assert_eq!(
            tool(Better::Lower).best_of(3, || reps.next().unwrap())[0].1,
            1.0
        );
        let mut reps = [
            vec![Row("a", 3.0)],
            vec![Row("a", 1.0)],
            vec![Row("a", 2.0)],
        ]
        .into_iter();
        assert_eq!(
            tool(Better::Higher).best_of(3, || reps.next().unwrap())[0].1,
            3.0
        );
    }

    #[test]
    fn gate_ratio_is_worse_over_better_in_both_directions() {
        let pinned = [Row("a", 10.0).to_json()];
        // Lower is better: fresh / pin.
        assert!(tool(Better::Lower).gate(&pinned, &[Row("a", 12.5)], 1.25, "pin"));
        assert!(!tool(Better::Lower).gate(&pinned, &[Row("a", 12.6)], 1.25, "pin"));
        // Higher is better: pin / fresh.
        assert!(tool(Better::Higher).gate(&pinned, &[Row("a", 8.0)], 1.25, "pin"));
        assert!(!tool(Better::Higher).gate(&pinned, &[Row("a", 7.9)], 1.25, "pin"));
        // Unpinned benches are skipped; a pin without the metric fails.
        assert!(tool(Better::Lower).gate(&pinned, &[Row("b", 99.0)], 1.25, "pin"));
        let bare = [Json::Obj(vec![("name".into(), Json::Str("a".into()))])];
        assert!(!tool(Better::Lower).gate(&bare, &[Row("a", 1.0)], 1.25, "pin"));
    }
}

//! # srm-sim — scenario-driven SRM simulation
//!
//! Describe a topology, session, loss process, and workload in a JSON file
//! (see `scenarios/` at the repository root) and run it:
//!
//! ```text
//! srm-sim scenarios/lossy_tree.json
//! srm-sim --json scenarios/fec_stream.json   # machine-readable report
//! srm-sim --trace out.jsonl scenarios/lossy_tree.json  # episode timeline
//! ```
//!
//! The schema lives in [`spec`], the executor and report in [`run()`](run());
//! `--trace` additionally records every member's recovery-episode events
//! (via [`run_with_trace`]) and writes them as JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The JSON module lives in `obs`. It is re-exported here because the
// standalone benchmark package (`srmbench/`) imports it as `srm_sim::json`.
pub use obs::json;
pub mod run;
pub mod spec;

pub use run::{run, run_with_trace, Report, RunError};
pub use spec::Scenario;

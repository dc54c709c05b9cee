//! Command-line helpers shared by the `srm-node` and `srm-hub` binaries.
//!
//! Each binary defines `die(msg) -> !` at its root (message prefix, usage
//! text, exit status 2); the helpers report every bad flag through it, so
//! both binaries word their errors the same way.

use srm_transport::BatchOptions;
use std::str::FromStr;

/// The argument after `flag`, or die with "FLAG needs a value".
pub fn next(argv: &mut dyn Iterator<Item = String>, flag: &str) -> String {
    argv.next()
        .unwrap_or_else(|| crate::die(&format!("{flag} needs a value")))
}

/// The argument after `flag` parsed as `T`, or die with "FLAG must be WHAT".
pub fn value<T: FromStr>(argv: &mut dyn Iterator<Item = String>, flag: &str, what: &str) -> T {
    next(argv, flag)
        .parse()
        .unwrap_or_else(|_| crate::die(&format!("{flag} must be {what}")))
}

/// A count that must be at least 1 (pool slabs, cache entries).
pub fn at_least_one(argv: &mut dyn Iterator<Item = String>, flag: &str) -> usize {
    let n = value(argv, flag, "an integer");
    if n == 0 {
        crate::die(&format!("{flag} must be at least 1"));
    }
    n
}

/// A strictly positive number of seconds (intervals, refresh periods).
pub fn positive_secs(argv: &mut dyn Iterator<Item = String>, flag: &str) -> f64 {
    let secs: f64 = value(argv, flag, "seconds");
    if secs <= 0.0 {
        crate::die(&format!("{flag} must be positive"));
    }
    secs
}

/// Apply `--batch N` and `--pool N` to the datapath options.
pub fn apply_batch(b: &mut BatchOptions, batch: Option<usize>, pool: Option<usize>) {
    match batch {
        // 0 keeps the pooled datapath but moves one datagram per syscall.
        Some(0) => b.force_portable = true,
        Some(n) => {
            b.recv_batch = n;
            b.send_batch = n;
        }
        None => {}
    }
    if let Some(n) = pool {
        b.pool_slabs = n;
    }
}

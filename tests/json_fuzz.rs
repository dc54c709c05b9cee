//! Adversarial input for the one JSON parser (`obs::json`) and the hub's
//! control-plane grammar built on it: arbitrary bytes and token soup must
//! never panic, every syntax error must point inside the input, and any
//! finite JSON tree must survive a print/parse round trip.

use obs::json::Json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use srm_transport::parse_command;

/// Fragments that steer generated input into the parser's deeper paths:
/// escapes, truncated literals, numbers, nesting, and control-plane keys.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "\n", "\"a\"", "\"cmd\"", "\"create\"",
    "\"send\"", "\"group\"", "\"peers\"", "\"text\"", "\"127.0.0.1:9\"", "0", "1", "-", "2.5",
    "1e5", "1e999", "-0", ".", "e", "+", "true", "false", "null", "tru", "nul", "\"\\u00e9\"",
    "\"\\u12", "\"\\ud800\"", "\"\\x\"", "\"\\n\\t\"", "é", "\u{1}",
];

/// A random finite-number JSON tree of depth at most `depth`.
struct Tree {
    depth: u32,
}

fn string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0usize..8);
    (0..len)
        .map(|_| match rng.random_range(0u32..4) {
            0 => ['"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', '/'][rng.random_range(0usize..8)],
            1 => char::from_u32(rng.random_range(0x20u32..0x7f)).unwrap(),
            _ => char::from_u32(rng.random_range(0u32..0x11_0000)).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn number(rng: &mut StdRng) -> f64 {
    match rng.random_range(0u32..3) {
        0 => rng.random_range(-1_000_000i64..1_000_000) as f64,
        1 => (rng.random::<f64>() - 0.5) * 10f64.powi(rng.random_range(-20i32..20)),
        _ => loop {
            let n = f64::from_bits(rng.random::<u64>());
            if n.is_finite() {
                break n;
            }
        },
    }
}

impl Strategy for Tree {
    type Value = Json;

    fn generate(&self, rng: &mut StdRng) -> Json {
        let leaf = self.depth == 0 || rng.random_range(0u32..3) == 0;
        let kind = if leaf {
            rng.random_range(0u32..4)
        } else {
            rng.random_range(4u32..6)
        };
        let child = Tree {
            depth: self.depth.saturating_sub(1),
        };
        let len = rng.random_range(0usize..4);
        match kind {
            0 => Json::Null,
            1 => Json::Bool(rng.random()),
            2 => Json::Num(number(rng)),
            3 => Json::Str(string(rng)),
            4 => Json::Arr((0..len).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..len)
                    .map(|_| (string(rng), child.generate(rng)))
                    .collect(),
            ),
        }
    }
}

/// Both entry points on one input: no panic, and any syntax error points
/// at or before the end of the input.
fn check_input(s: &str) -> TestCaseResult {
    if let Err(e) = Json::parse(s) {
        prop_assert!(
            e.at <= s.len(),
            "error {e} past the end of a {}-byte input",
            s.len()
        );
    }
    let _ = parse_command(s);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_input(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(picks in prop::collection::vec(0..TOKENS.len(), 0..96)) {
        let s: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check_input(&s)?;
        // The same soup wrapped as a control object reaches field parsing.
        check_input(&format!("{{\"cmd\":{s}}}"))?;
    }

    #[test]
    fn finite_trees_roundtrip_through_pretty(v in Tree { depth: 4 }) {
        prop_assert_eq!(Json::parse(&v.pretty()).map_err(|e| e.to_string()), Ok(v.clone()));
    }
}

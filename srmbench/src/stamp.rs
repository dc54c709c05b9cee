//! The stamp every live ADU carries: its sequence number and the time it
//! was issued (closed loop) or due (open loop), so the generator can check
//! each delivery and time it without a side table.
//!
//! The stamp is ASCII so that the hub's text API can carry it: 16 lowercase
//! hex digits of sequence, 16 of nanoseconds on the run clock, then filler
//! up to the payload length. The filler letter derives from the sequence, so
//! a payload delivered under another ADU's stamp fails the check.
//! `HubHandle::send` publishes the i-th of `count > 1` copies of one text as
//! `"{text} #{i}"`; [`parse`] adds `i` to the stamped sequence.

/// Bytes taken by the sequence and time fields.
pub const HEADER: usize = 32;

/// A decoded stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// Sequence number, unique within a run.
    pub seq: u64,
    /// Issue or due time, nanoseconds on the run clock.
    pub t_ns: u64,
}

fn filler(seq: u64) -> u8 {
    b'a' + (seq % 26) as u8
}

fn push_hex(out: &mut Vec<u8>, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..16).rev() {
        out.push(DIGITS[((v >> (shift * 4)) & 0xf) as usize]);
    }
}

fn read_hex(b: &[u8]) -> Option<u64> {
    b.iter().try_fold(0u64, |acc, &c| {
        let d = match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(d))
    })
}

fn read_dec(b: &[u8]) -> Option<u64> {
    if b.is_empty() {
        return None;
    }
    b.iter().try_fold(0u64, |acc, &c| {
        c.is_ascii_digit()
            .then(|| acc.checked_mul(10)?.checked_add(u64::from(c - b'0')))?
    })
}

/// A payload of `len` bytes (at least [`HEADER`]) stamped with `stamp`.
pub fn encode(stamp: Stamp, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len.max(HEADER));
    push_hex(&mut v, stamp.seq);
    push_hex(&mut v, stamp.t_ns);
    v.resize(len.max(HEADER), filler(stamp.seq));
    v
}

/// Decode a delivered payload; `None` if it is not an intact stamp.
pub fn parse(payload: &[u8]) -> Option<Stamp> {
    let (body, copy) = match payload.iter().position(|&c| c == b' ') {
        None => (payload, 0),
        Some(at) => (
            &payload[..at],
            read_dec(payload[at + 1..].strip_prefix(b"#")?)?,
        ),
    };
    if body.len() < HEADER {
        return None;
    }
    let base = read_hex(&body[..16])?;
    let t_ns = read_hex(&body[16..HEADER])?;
    let f = filler(base);
    if !body[HEADER..].iter().all(|&c| c == f) {
        return None;
    }
    Some(Stamp {
        seq: base.checked_add(copy)?,
        t_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_every_payload_size() {
        for (seq, t_ns, len) in [
            (0, 0, 64),
            (41, 7_000_123, 64),
            (u64::MAX, u64::MAX, 1000),
            (9, 1, 10),
        ] {
            let s = Stamp { seq, t_ns };
            let p = encode(s, len);
            assert_eq!(p.len(), len.max(HEADER));
            assert_eq!(parse(&p), Some(s));
        }
    }

    #[test]
    fn hub_copy_suffix_adds_to_the_sequence() {
        let text = String::from_utf8(encode(Stamp { seq: 100, t_ns: 5 }, 80)).unwrap();
        let copy = format!("{text} #17");
        assert_eq!(parse(copy.as_bytes()), Some(Stamp { seq: 117, t_ns: 5 }));
        assert_eq!(parse(format!("{text} #").as_bytes()), None);
        assert_eq!(parse(format!("{text} 17").as_bytes()), None);
    }

    #[test]
    fn damaged_payloads_are_rejected() {
        let good = encode(Stamp { seq: 3, t_ns: 9 }, 64);
        let mut wrong_filler = good.clone();
        wrong_filler[40] = b'z';
        assert_eq!(parse(&wrong_filler), None);
        let mut bad_digit = good.clone();
        bad_digit[2] = b'G';
        assert_eq!(parse(&bad_digit), None);
        assert_eq!(parse(&good[..HEADER - 1]), None);
        // Another ADU's filler under this stamp's header.
        let other = encode(Stamp { seq: 4, t_ns: 9 }, 64);
        let mut swapped = good[..HEADER].to_vec();
        swapped.extend_from_slice(&other[HEADER..]);
        assert_eq!(parse(&swapped), None);
    }
}

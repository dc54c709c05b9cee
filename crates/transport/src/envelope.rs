//! Datagram envelope: what actually crosses a UDP socket.
//!
//! The SRM wire format ([`srm::wire`]) deliberately carries no network-layer
//! fields — in the simulator those ride on [`netsim::Packet`], and on a real
//! network most of them would be IP-header properties (source, TTL,
//! admin scope bit). A portable runtime over plain `std` UDP sockets cannot
//! read the IP TTL of a received datagram, so the envelope carries the
//! paper's Section VII-B3 extension literally: the initial TTL (and the
//! rest of the simulator's packet metadata) travels *in the packet*, and
//! receivers reconstruct a [`netsim::Packet`] from it for the agent.
//!
//! Layout (big-endian, 22-byte header):
//!
//! ```text
//! magic "SRMT" | ver u8 | src u32 | group u32 | ttl u8 | initial_ttl u8 |
//! flags u8 (bit0 = admin_scoped) | flow u32 | len u16 | payload = wire::Message
//! ```
//!
//! `len` declares the payload length.  A receiver rejects any datagram
//! whose declared length disagrees with what actually arrived — the frame
//! was truncated in flight, padded, or corrupted — *before* handing the
//! payload to the message decoder.

use bytes::{BufMut, Bytes, BytesMut};

/// First four bytes of every datagram.
pub const MAGIC: [u8; 4] = *b"SRMT";
/// Envelope format version.
pub const VERSION: u8 = 2;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 22;
/// Largest payload the u16 length field can declare.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

/// Network-layer metadata for one datagram, plus the encoded SRM message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node (the runtime's node id, mirrored into
    /// [`netsim::PacketBody::src`]).
    pub src: u32,
    /// Destination multicast group id (the SRM session or a local-recovery
    /// group).
    pub group: u32,
    /// Remaining TTL as of transmission; receivers decrement per hop
    /// traversed (one hop on a loopback mesh).
    pub ttl: u8,
    /// The TTL the packet was originally sent with (Section VII-B3).
    pub initial_ttl: u8,
    /// Administrative-scope flag (Section VII-B1).
    pub admin_scoped: bool,
    /// Traffic class ([`netsim::flow`]).
    pub flow: u32,
    /// Encoded [`srm::Message`] bytes.
    pub payload: Bytes,
}

/// Why a datagram was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match — not ours.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Declared payload length disagrees with the datagram's actual size.
    LengthMismatch {
        /// Length the header declared.
        declared: u16,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// Payload longer than the length field can represent (send side only).
    Oversized,
}

impl EnvelopeError {
    /// Stable snake_case class label for counters and typed events.
    pub fn label(&self) -> &'static str {
        match self {
            EnvelopeError::Truncated => "truncated",
            EnvelopeError::BadMagic => "bad_magic",
            EnvelopeError::BadVersion(_) => "bad_version",
            EnvelopeError::LengthMismatch { .. } => "length_mismatch",
            EnvelopeError::Oversized => "oversized",
        }
    }
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "datagram shorter than envelope header"),
            EnvelopeError::BadMagic => write!(f, "bad envelope magic"),
            EnvelopeError::BadVersion(v) => write!(f, "unknown envelope version {v}"),
            EnvelopeError::LengthMismatch { declared, actual } => write!(
                f,
                "declared payload length {declared} but {actual} bytes arrived"
            ),
            EnvelopeError::Oversized => write!(f, "payload exceeds the u16 length field"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl Envelope {
    /// Serialize to one datagram's bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Serialize by appending to any [`BufMut`] — lets the send path reuse
    /// one scratch buffer per socket instead of allocating per datagram.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD`]; the send path checks
    /// that first and counts an oversized frame as a send error.
    pub fn encode_into<B: BufMut>(&self, b: &mut B) {
        let len = u16::try_from(self.payload.len()).expect("payload fits a UDP datagram");
        b.put_slice(&MAGIC);
        b.put_u8(VERSION);
        b.put_u32(self.src);
        b.put_u32(self.group);
        b.put_u8(self.ttl);
        b.put_u8(self.initial_ttl);
        b.put_u8(self.admin_scoped as u8);
        b.put_u32(self.flow);
        b.put_u16(len);
        b.put_slice(&self.payload);
    }

    /// Parse one received datagram into an owned envelope. Copies the
    /// payload once; the zero-copy hot path is [`Envelope::decode_view`].
    pub fn decode(buf: &[u8]) -> Result<Envelope, EnvelopeError> {
        Ok(Envelope::decode_view(buf)?.to_owned())
    }

    /// The cheap pre-decode filter: validate only the fixed-position header
    /// prefix (length, magic, version) and return the destination group id
    /// without touching the payload or the length field. This is what a
    /// demultiplexer needs to route a frame — anything that passes here and
    /// later fails [`Envelope::decode_view`] still fails *in the same way*
    /// on whichever shard receives it, so prechecking never changes a
    /// frame's fate, only where that fate is decided.
    pub fn precheck(buf: &[u8]) -> Result<u32, EnvelopeError> {
        if buf.len() < HEADER_LEN {
            return Err(EnvelopeError::Truncated);
        }
        if buf[0..4] != MAGIC {
            return Err(EnvelopeError::BadMagic);
        }
        if buf[4] != VERSION {
            return Err(EnvelopeError::BadVersion(buf[4]));
        }
        Ok(u32::from_be_bytes(buf[9..13].try_into().expect("4 bytes")))
    }

    /// Parse one received datagram *in place*: every field is read out of
    /// `buf` and the payload stays a borrow of it, so the reactor can
    /// filter (self-delivery, unjoined group, zero TTL) before paying for
    /// any copy at all. The payload is *not* decoded here — the agent's
    /// packet handler owns [`srm::Message::decode`] and its error
    /// handling, exactly as in the simulator.
    pub fn decode_view(buf: &[u8]) -> Result<EnvelopeView<'_>, EnvelopeError> {
        if buf.len() < HEADER_LEN {
            return Err(EnvelopeError::Truncated);
        }
        if buf[0..4] != MAGIC {
            return Err(EnvelopeError::BadMagic);
        }
        let ver = buf[4];
        if ver != VERSION {
            return Err(EnvelopeError::BadVersion(ver));
        }
        let be32 = |at: usize| u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
        let declared = u16::from_be_bytes(buf[20..22].try_into().expect("2 bytes"));
        let payload = &buf[HEADER_LEN..];
        if usize::from(declared) != payload.len() {
            return Err(EnvelopeError::LengthMismatch {
                declared,
                actual: payload.len(),
            });
        }
        Ok(EnvelopeView {
            src: be32(5),
            group: be32(9),
            ttl: buf[13],
            initial_ttl: buf[14],
            admin_scoped: buf[15] != 0,
            flow: be32(16),
            payload,
        })
    }
}

/// A decoded envelope whose payload borrows the receive buffer — the
/// zero-copy counterpart of [`Envelope`] for the reactor's inbound path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvelopeView<'a> {
    /// Sending node id.
    pub src: u32,
    /// Destination multicast group id.
    pub group: u32,
    /// Remaining TTL as of transmission.
    pub ttl: u8,
    /// The TTL the packet was originally sent with.
    pub initial_ttl: u8,
    /// Administrative-scope flag.
    pub admin_scoped: bool,
    /// Traffic class.
    pub flow: u32,
    /// Encoded [`srm::Message`] bytes, borrowed from the datagram buffer.
    pub payload: &'a [u8],
}

impl EnvelopeView<'_> {
    /// Copy out into an owned [`Envelope`] (one payload-sized copy).
    pub fn to_owned(&self) -> Envelope {
        Envelope {
            src: self.src,
            group: self.group,
            ttl: self.ttl,
            initial_ttl: self.initial_ttl,
            admin_scoped: self.admin_scoped,
            flow: self.flow,
            payload: Bytes::copy_from_slice(self.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope {
            src: 3,
            group: 1,
            ttl: 254,
            initial_ttl: 255,
            admin_scoped: true,
            flow: 2,
            payload: Bytes::from_static(b"opaque srm message"),
        }
    }

    #[test]
    fn roundtrip() {
        let e = sample();
        let wire = e.encode();
        assert_eq!(wire.len(), HEADER_LEN + e.payload.len());
        assert_eq!(Envelope::decode(&wire).unwrap(), e);
    }

    #[test]
    fn rejects_short_foreign_and_future_datagrams() {
        assert_eq!(Envelope::decode(b"SRM"), Err(EnvelopeError::Truncated));
        let mut wire = sample().encode().to_vec();
        wire[0] = b'X';
        assert_eq!(Envelope::decode(&wire), Err(EnvelopeError::BadMagic));
        let mut wire = sample().encode().to_vec();
        wire[4] = 9;
        assert_eq!(Envelope::decode(&wire), Err(EnvelopeError::BadVersion(9)));
    }

    #[test]
    fn rejects_length_disagreement() {
        // Truncated in flight: bytes missing off the tail.
        let wire = sample().encode();
        let cut = &wire[..wire.len() - 3];
        assert_eq!(
            Envelope::decode(cut),
            Err(EnvelopeError::LengthMismatch { declared: 18, actual: 15 })
        );
        // Padded / oversized: extra trailing bytes.
        let mut padded = wire.to_vec();
        padded.extend_from_slice(b"junk");
        assert_eq!(
            Envelope::decode(&padded),
            Err(EnvelopeError::LengthMismatch { declared: 18, actual: 22 })
        );
        // A corrupted length field is equally caught.
        let mut bad_len = wire.to_vec();
        bad_len[HEADER_LEN - 1] ^= 0x08;
        assert!(matches!(
            Envelope::decode(&bad_len),
            Err(EnvelopeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn error_labels_are_stable() {
        assert_eq!(EnvelopeError::Truncated.label(), "truncated");
        assert_eq!(EnvelopeError::BadVersion(1).label(), "bad_version");
        assert_eq!(
            EnvelopeError::LengthMismatch { declared: 1, actual: 2 }.label(),
            "length_mismatch"
        );
    }

    #[test]
    fn view_agrees_with_owned_decode_on_arbitrary_mutations() {
        // The borrowed and owned decoders must be the same function:
        // identical fields on success, identical error on rejection.
        let wire = sample().encode();
        for cut in 0..wire.len() {
            let buf = &wire[..cut];
            match (Envelope::decode_view(buf), Envelope::decode(buf)) {
                (Ok(v), Ok(e)) => assert_eq!(v.to_owned(), e),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("decoders disagree at cut {cut}: {a:?} vs {b:?}"),
            }
        }
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match (Envelope::decode_view(&flipped), Envelope::decode(&flipped)) {
                (Ok(v), Ok(e)) => assert_eq!(v.to_owned(), e),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("decoders disagree at bit {bit}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn precheck_agrees_with_full_decode_on_routing() {
        // precheck(ok) must report the same group decode_view would, and a
        // precheck rejection must be a decode_view rejection too (the
        // reverse need not hold: a length mismatch passes precheck).
        let wire = sample().encode();
        assert_eq!(Envelope::precheck(&wire), Ok(sample().group));
        for cut in 0..wire.len() {
            match (Envelope::precheck(&wire[..cut]), Envelope::decode_view(&wire[..cut])) {
                (Ok(g), _) => assert_eq!(g, sample().group),
                (Err(_), Ok(_)) => panic!("precheck rejected a decodable frame at cut {cut}"),
                (Err(_), Err(_)) => {}
            }
        }
        let mut bad = wire.to_vec();
        bad[0] = b'X';
        assert_eq!(Envelope::precheck(&bad), Err(EnvelopeError::BadMagic));
    }

    #[test]
    fn empty_payload_is_fine() {
        let e = Envelope {
            payload: Bytes::new(),
            ..sample()
        };
        assert_eq!(Envelope::decode(&e.encode()).unwrap(), e);
    }
}

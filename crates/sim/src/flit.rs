//! The unit of data moving through the simulated network.

use icnoc_topology::PortId;
use serde::{Deserialize, Serialize};

/// Position of a flit within its packet — the wormhole sideband.
///
/// Packets travel as worms: the [`Head`](FlitKind::Head) makes the routing
/// decision and locks each arbitrated router stage it passes; bodies follow
/// the lock; the [`Tail`](FlitKind::Tail) releases it. A one-flit packet is
/// a [`Single`](FlitKind::Single) and never locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; routes and acquires locks.
    Head,
    /// Middle flit; follows the head's locks.
    Body,
    /// Last flit; releases the locks it passes.
    Tail,
    /// A complete one-flit packet.
    Single,
}

impl FlitKind {
    /// Whether this flit may be captured by an *unlocked* arbitrated stage
    /// (i.e. whether it can open a new wormhole).
    #[must_use]
    pub fn opens_route(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether capturing this flit ends a wormhole (releases the lock).
    #[must_use]
    pub fn closes_route(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }

    fn tag(self) -> u8 {
        match self {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::Single => 3,
        }
    }
}

/// A flit (flow-control unit) — in the IC-NoC demonstrator, one 32-bit word
/// plus its routing and wormhole sideband.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Flit {
    /// Originating network port.
    pub src: PortId,
    /// Destination network port.
    pub dest: PortId,
    /// Per-source sequence number, used by the scoreboard to detect loss,
    /// duplication and reordering.
    pub seq: u64,
    /// Per-source packet number this flit belongs to.
    pub packet: u64,
    /// This flit's position within the packet.
    pub kind: FlitKind,
    /// Half-cycle tick at which the source injected the flit.
    pub injected_tick: u64,
    /// The 32-bit payload word.
    pub payload: u32,
    /// CRC-16/CCITT over the identity fields and payload, computed at
    /// creation. Fault injection flips payload bits *without* refreshing
    /// this field, so a consumer detects corruption by recomputing it.
    pub crc: u16,
    /// Retransmission attempt, 0 for the original transmission. A retried
    /// flit travels standalone — it both opens and closes a route — and
    /// the scoreboard exempts it from in-order/wormhole checks, since a
    /// recovered flit legitimately arrives late.
    pub retry: u8,
}

impl Flit {
    /// Creates a single-flit packet.
    #[must_use]
    pub fn new(src: PortId, dest: PortId, seq: u64, injected_tick: u64) -> Self {
        Self::with_kind(src, dest, seq, seq, FlitKind::Single, injected_tick)
    }

    /// Creates a flit with an explicit packet id and kind.
    #[must_use]
    pub fn with_kind(
        src: PortId,
        dest: PortId,
        seq: u64,
        packet: u64,
        kind: FlitKind,
        injected_tick: u64,
    ) -> Self {
        let payload = Self::expected_payload(src, dest, seq);
        Self {
            src,
            dest,
            seq,
            packet,
            kind,
            injected_tick,
            payload,
            crc: crc16(src, dest, seq, packet, kind, payload),
            retry: 0,
        }
    }

    /// The identity-derived payload for these coordinates. A payload
    /// derived from identity makes accidental flit mix-ups visible in
    /// tests and doubles as the end-to-end integrity oracle: any silent
    /// corruption shows up as a mismatch at delivery.
    #[must_use]
    pub fn expected_payload(src: PortId, dest: PortId, seq: u64) -> u32 {
        (seq as u32).wrapping_mul(0x9E37_79B9) ^ src.0 ^ dest.0.rotate_left(16)
    }

    /// Whether the CRC still matches the flit's contents.
    #[must_use]
    pub fn crc_ok(&self) -> bool {
        self.crc
            == crc16(
                self.src,
                self.dest,
                self.seq,
                self.packet,
                self.kind,
                self.payload,
            )
    }

    /// This flit with payload bit `bit % 32` flipped and the CRC left
    /// stale — a single-event upset as the fault injector models it.
    #[must_use]
    pub fn with_corrupted_payload(mut self, bit: u32) -> Self {
        self.payload ^= 1 << (bit % 32);
        self
    }

    /// A retransmitted copy: same identity and payload, `retry` set to
    /// `attempt`. The original injection tick is preserved so recovered
    /// flits report their true (fault-inflated) latency.
    #[must_use]
    pub fn as_retry(mut self, attempt: u8) -> Self {
        self.retry = attempt;
        self
    }

    /// Whether this flit may be captured by an *unlocked* arbitrated
    /// stage. Retransmissions travel standalone and always may, whatever
    /// their original wormhole position.
    #[must_use]
    pub fn opens_route(&self) -> bool {
        self.kind.opens_route() || self.retry > 0
    }

    /// Whether capturing this flit releases a stage lock. Retransmissions
    /// always do.
    #[must_use]
    pub fn closes_route(&self) -> bool {
        self.kind.closes_route() || self.retry > 0
    }

    /// Latency in half-cycles if delivered at `tick`.
    #[must_use]
    pub fn latency_half_cycles(&self, tick: u64) -> u64 {
        tick.saturating_sub(self.injected_tick)
    }
}

/// The CRC-16/CCITT polynomial, `x^16 + x^12 + x^5 + 1`.
const CRC_POLY: u16 = 0x1021;

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the register after
/// shifting byte `b`, then `k` zero bytes, into a zero register. The
/// register is linear in the message, so eight message bytes, the first
/// two XORed with the register, shift through as the XOR of eight
/// independent lookups, one per table ([`crc16`]).
const CRC_TABLES: [[u16; 256]; 8] = {
    let mut tables = [[0u16; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = (byte as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ CRC_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// The bytes [`crc16`] covers, little-endian, in field order.
fn crc_bytes(
    src: PortId,
    dest: PortId,
    seq: u64,
    packet: u64,
    kind: FlitKind,
    payload: u32,
) -> [u8; 29] {
    let mut bytes = [0u8; 29];
    bytes[..4].copy_from_slice(&src.0.to_le_bytes());
    bytes[4..8].copy_from_slice(&dest.0.to_le_bytes());
    bytes[8..16].copy_from_slice(&seq.to_le_bytes());
    bytes[16..24].copy_from_slice(&packet.to_le_bytes());
    bytes[24] = kind.tag();
    bytes[25..].copy_from_slice(&payload.to_le_bytes());
    bytes
}

/// CRC-16/CCITT-FALSE over the flit's identity fields and payload. `retry`
/// and `injected_tick` are deliberately excluded: a retransmission carries
/// the original's checksum unchanged.
fn crc16(src: PortId, dest: PortId, seq: u64, packet: u64, kind: FlitKind, payload: u32) -> u16 {
    let bytes = crc_bytes(src, dest, seq, packet, kind, payload);
    let mut chunks = bytes.chunks_exact(8);
    let mut crc: u16 = 0xFFFF;
    for chunk in &mut chunks {
        let [hi, lo] = crc.to_be_bytes();
        let at = |k: usize, b: u8| CRC_TABLES[7 - k][usize::from(b)];
        crc = at(0, chunk[0] ^ hi)
            ^ at(1, chunk[1] ^ lo)
            ^ at(2, chunk[2])
            ^ at(3, chunk[3])
            ^ at(4, chunk[4])
            ^ at(5, chunk[5])
            ^ at(6, chunk[6])
            ^ at(7, chunk[7]);
    }
    chunks.remainder().iter().fold(crc, |crc, &b| {
        (crc << 8) ^ CRC_TABLES[0][usize::from((crc >> 8) as u8 ^ b)]
    })
}

impl core::fmt::Display for Flit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}->{} #{}", self.src, self.dest, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial CRC-16/CCITT-FALSE [`crc16`]'s tables stand for:
    /// eight shifts per byte, over its own walk of the fields.
    fn crc16_bitwise(
        src: PortId,
        dest: PortId,
        seq: u64,
        packet: u64,
        kind: FlitKind,
        payload: u32,
    ) -> u16 {
        let mut crc: u16 = 0xFFFF;
        let bytes = src
            .0
            .to_le_bytes()
            .into_iter()
            .chain(dest.0.to_le_bytes())
            .chain(seq.to_le_bytes())
            .chain(packet.to_le_bytes())
            .chain([kind.tag()])
            .chain(payload.to_le_bytes());
        for b in bytes {
            crc ^= u16::from(b) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ CRC_POLY
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    proptest! {
        #[test]
        fn sliced_crc_matches_the_bitwise_reference(
            src in any::<u32>(),
            dest in any::<u32>(),
            seq in any::<u64>(),
            packet in any::<u64>(),
            kind in 0u8..4,
            payload in any::<u32>(),
        ) {
            let kind = [FlitKind::Head, FlitKind::Body, FlitKind::Tail, FlitKind::Single]
                [usize::from(kind)];
            let (src, dest) = (PortId(src), PortId(dest));
            prop_assert_eq!(
                crc16(src, dest, seq, packet, kind, payload),
                crc16_bitwise(src, dest, seq, packet, kind, payload)
            );
        }
    }

    #[test]
    fn latency_is_measured_from_injection() {
        let f = Flit::new(PortId(0), PortId(5), 7, 100);
        assert_eq!(f.latency_half_cycles(130), 30);
        assert_eq!(f.latency_half_cycles(90), 0); // clamped, not underflowed
    }

    #[test]
    fn payload_differs_across_flits() {
        let a = Flit::new(PortId(0), PortId(5), 0, 0);
        let b = Flit::new(PortId(0), PortId(5), 1, 0);
        let c = Flit::new(PortId(1), PortId(5), 0, 0);
        assert_ne!(a.payload, b.payload);
        assert_ne!(a.payload, c.payload);
    }

    #[test]
    fn display_names_endpoints() {
        let f = Flit::new(PortId(2), PortId(9), 4, 0);
        assert_eq!(f.to_string(), "p2->p9 #4");
    }

    #[test]
    fn kind_routing_predicates() {
        assert!(FlitKind::Head.opens_route());
        assert!(FlitKind::Single.opens_route());
        assert!(!FlitKind::Body.opens_route());
        assert!(!FlitKind::Tail.opens_route());
        assert!(FlitKind::Tail.closes_route());
        assert!(FlitKind::Single.closes_route());
        assert!(!FlitKind::Head.closes_route());
    }

    #[test]
    fn single_flit_constructor_is_a_complete_packet() {
        let f = Flit::new(PortId(0), PortId(1), 7, 0);
        assert_eq!(f.kind, FlitKind::Single);
        assert_eq!(f.packet, 7);
    }

    #[test]
    fn crc_detects_any_single_payload_bit_flip() {
        let f = Flit::new(PortId(3), PortId(12), 41, 9);
        assert!(f.crc_ok());
        for bit in 0..32 {
            let corrupted = f.with_corrupted_payload(bit);
            assert!(!corrupted.crc_ok(), "bit {bit} flip must break the CRC");
            assert_eq!(corrupted.crc, f.crc, "corruption leaves the CRC stale");
        }
    }

    #[test]
    fn retry_keeps_identity_and_checksum_but_relaxes_routing() {
        let body = Flit::with_kind(PortId(0), PortId(1), 5, 2, FlitKind::Body, 10);
        assert!(!body.opens_route() && !body.closes_route());
        let retx = body.as_retry(2);
        assert!(retx.crc_ok(), "retry is excluded from the CRC");
        assert_eq!(retx.payload, body.payload);
        assert_eq!(retx.injected_tick, body.injected_tick);
        assert!(retx.opens_route() && retx.closes_route());
    }
}

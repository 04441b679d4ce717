//! Network elements: handshake stages, traffic sources and sinks.

use crate::hash::FxHashSet;
use crate::label::LabelId;
use crate::{Flit, FlitKind, LatencyStats, TrafficPattern, TrafficPhase};
use icnoc_clock::{ClockGatingStats, ClockPolarity};
use icnoc_topology::PortId;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Index of an element inside a [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ElementId(pub(crate) u32);

impl ElementId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for ElementId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An output direction of a 2-D mesh router (for the globally synchronous
/// mesh baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeshDirection {
    /// Towards larger x.
    East,
    /// Towards smaller x.
    West,
    /// Towards larger y.
    North,
    /// Towards smaller y.
    South,
    /// This router's own port.
    Local,
}

/// Which flits a stage is willing to capture — the distributed routing
/// decision of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteFilter {
    /// Accept any flit (1:1 pipeline stages, router input stages).
    Any,
    /// Accept flits whose destination lies in `lo..hi` — a tree router
    /// output towards the child subtree covering those ports.
    DestInRange {
        /// Inclusive lower port bound.
        lo: u32,
        /// Exclusive upper port bound.
        hi: u32,
    },
    /// Accept flits whose destination lies outside `lo..hi` — a tree router
    /// output towards its parent (`lo..hi` is the router's own subtree).
    DestOutsideRange {
        /// Inclusive lower port bound of the subtree.
        lo: u32,
        /// Exclusive upper port bound of the subtree.
        hi: u32,
    },
    /// Accept only flits for exactly this destination — the entry stage of
    /// a ring shortcut channel.
    DestIs {
        /// The single destination admitted.
        port: u32,
    },
    /// Reject flits for up to two specific destinations (use `u32::MAX`
    /// for unused slots) — the tree-side entry of a port that also owns
    /// ring shortcuts to those destinations.
    DestNotIn {
        /// First excluded destination.
        a: u32,
        /// Second excluded destination.
        b: u32,
    },
    /// Accept flits that dimension-ordered (XY) routing at mesh position
    /// `(x, y)` sends towards `dir` — x is corrected first, then y.
    MeshOutput {
        /// Routers per mesh edge.
        side: u32,
        /// This router's x coordinate.
        x: u32,
        /// This router's y coordinate.
        y: u32,
        /// The output direction this filter guards.
        dir: MeshDirection,
    },
}

impl RouteFilter {
    /// Whether this filter lets `flit` through.
    #[must_use]
    pub fn wants(self, flit: &Flit) -> bool {
        match self {
            RouteFilter::Any => true,
            RouteFilter::DestInRange { lo, hi } => flit.dest.0 >= lo && flit.dest.0 < hi,
            RouteFilter::DestOutsideRange { lo, hi } => flit.dest.0 < lo || flit.dest.0 >= hi,
            RouteFilter::DestIs { port } => flit.dest.0 == port,
            RouteFilter::DestNotIn { a, b } => flit.dest.0 != a && flit.dest.0 != b,
            RouteFilter::MeshOutput { side, x, y, dir } => {
                let dx = flit.dest.0 % side;
                let dy = flit.dest.0 / side;
                let decision = if dx > x {
                    MeshDirection::East
                } else if dx < x {
                    MeshDirection::West
                } else if dy > y {
                    MeshDirection::North
                } else if dy < y {
                    MeshDirection::South
                } else {
                    MeshDirection::Local
                };
                decision == dir
            }
        }
    }
}

/// How a stage with several competing upstreams picks one per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arbitration {
    /// Rotating fairness: start the scan one past the previous winner.
    RoundRobin,
    /// Static priority in upstream order — used at leaf routers so "a
    /// processor always has priority to accessing its local memory".
    Priority,
}

/// When a sink consumes flits, used to create controlled congestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SinkMode {
    /// Consume whenever a flit is offered.
    AlwaysAccept,
    /// Refuse flits while the cycle counter is inside `[from, to)` — the
    /// Fig. 4 stall window ("stop in an instance ... resume without
    /// delay").
    StallDuring {
        /// First stalled cycle.
        from: u64,
        /// First accepting cycle after the stall.
        to: u64,
    },
    /// Accept only one flit every `period` cycles — a slow consumer
    /// exerting steady back pressure.
    Throttle {
        /// Accept on cycles where `cycle % period == 0`.
        period: u64,
    },
}

impl SinkMode {
    /// Whether the sink accepts at local `cycle`.
    #[must_use]
    pub fn accepts(self, cycle: u64) -> bool {
        match self {
            SinkMode::AlwaysAccept => true,
            SinkMode::StallDuring { from, to } => !(from..to).contains(&cycle),
            SinkMode::Throttle { period } => period == 0 || cycle.is_multiple_of(period),
        }
    }
}

/// Mutable state of a traffic source.
#[derive(Debug, Clone)]
pub(crate) struct SourceState {
    pub port: PortId,
    pub pattern: TrafficPattern,
    pub rng: StdRng,
    pub next_seq: u64,
    pub sent: u64,
    pub stalled_edges: u64,
    pub enabled: bool,
    /// Flits per packet (1 = single-flit packets).
    pub packet_len: u32,
    /// Next packet id to assign.
    pub next_packet: u64,
    /// Packets fully injected so far.
    pub packets_sent: u64,
    /// In-progress multi-flit emission: destination and flits remaining.
    pub emitting: Option<(PortId, u32)>,
}

impl SourceState {
    /// The flit this source presents on an edge at `tick` with its
    /// register free: the next body or tail of an open worm (a started
    /// worm completes even while draining), else, if enabled, the single
    /// flit or head its pattern injects. Advances the sequence, packet
    /// and sent counters. Always inlined, and callers write their
    /// register only when it returns a flit: a pinned source calls it on
    /// every free edge, and without both idle-source visits cost 20–49%
    /// more (EXPERIMENTS.md E31).
    #[inline(always)]
    pub(crate) fn next_flit(&mut self, tick: u64, num_ports: u32) -> Option<Flit> {
        let (dest, kind) = match self.emitting {
            Some((dest, 1)) => {
                self.emitting = None;
                (dest, FlitKind::Tail)
            }
            Some((dest, remaining)) => {
                self.emitting = Some((dest, remaining - 1));
                (dest, FlitKind::Body)
            }
            None if self.enabled => {
                // One active edge per cycle on a fixed parity: the
                // element-local cycle counter is exactly `tick / 2`,
                // derived rather than stored so elements the activity
                // list leaves asleep cannot drift.
                let cycle = tick / 2;
                let TrafficPhase::Inject(dest) =
                    self.pattern
                        .decide(self.port, num_ports, cycle, &mut self.rng)
                else {
                    return None;
                };
                if self.packet_len == 1 {
                    (dest, FlitKind::Single)
                } else {
                    self.emitting = Some((dest, self.packet_len - 1));
                    (dest, FlitKind::Head)
                }
            }
            None => return None,
        };
        let flit = Flit::with_kind(self.port, dest, self.next_seq, self.next_packet, kind, tick);
        self.next_seq += 1;
        self.sent += 1;
        if kind.closes_route() {
            self.next_packet += 1;
            self.packets_sent += 1;
        }
        Some(flit)
    }
}

/// What a closed-loop tile endpoint does.
#[derive(Debug, Clone)]
pub(crate) enum TileRole {
    /// A microprocessor: issues request flits per its pattern, bounded by
    /// `max_outstanding`, and absorbs responses, measuring round trips.
    Processor {
        pattern: TrafficPattern,
        max_outstanding: usize,
    },
    /// A memory: absorbs requests and answers each one `service_cycles`
    /// later.
    Memory { service_cycles: u64 },
}

/// Mutable state of a closed-loop tile (processor or memory).
#[derive(Debug, Clone)]
pub(crate) struct TileState {
    pub port: PortId,
    pub role: TileRole,
    pub rng: StdRng,
    pub next_seq: u64,
    /// Flits sent; every tile packet is one flit, so also packets sent.
    pub sent: u64,
    pub stalled_edges: u64,
    pub enabled: bool,
    /// Memory: responses waiting for their service latency, as
    /// `(requester, ready_cycle)`.
    pub pending: VecDeque<(PortId, u64)>,
    /// Processor: send ticks of outstanding requests, FIFO per memory.
    pub outstanding: HashMap<u32, VecDeque<u64>>,
    /// Processor: requests outstanding, the total length of
    /// `outstanding`'s queues.
    pub in_flight: usize,
    /// Processor: measured request→response round trips.
    pub round_trip: LatencyStats,
    /// Processor: responses received.
    pub responses: u64,
}

impl TileState {
    /// Processes a flit the consumer gate cleared at `tick`: a memory
    /// queues one response per packet, due after its service latency; a
    /// processor closes the round trip of its oldest request to the
    /// responder.
    pub(crate) fn consume(&mut self, flit: &Flit, tick: u64) {
        match self.role {
            TileRole::Memory { service_cycles } => {
                if flit.closes_route() {
                    let ready = (tick / 2).saturating_add(service_cycles);
                    self.pending.push_back((flit.src, ready));
                }
            }
            TileRole::Processor { .. } => {
                let queue = self.outstanding.get_mut(&flit.src.0);
                if let Some(sent_tick) = queue.and_then(VecDeque::pop_front) {
                    self.in_flight -= 1;
                    self.round_trip.record(tick.saturating_sub(sent_tick));
                    self.responses += 1;
                }
            }
        }
    }

    /// The flit this tile presents on an edge at `tick` with its register
    /// free: a memory's oldest response whose service latency has passed,
    /// or, if enabled, a processor's next request within its outstanding
    /// window. Tiles emit single-flit packets whose id is the sequence
    /// number. Always inlined, like [`SourceState::next_flit`].
    #[inline(always)]
    pub(crate) fn next_flit(&mut self, tick: u64, num_ports: u32) -> Option<Flit> {
        let cycle = tick / 2;
        let dest = match &self.role {
            TileRole::Memory { .. } => {
                let &(requester, ready) = self.pending.front()?;
                if cycle < ready {
                    return None;
                }
                self.pending.pop_front();
                requester
            }
            TileRole::Processor {
                pattern,
                max_outstanding,
            } => {
                if !self.enabled || self.in_flight >= *max_outstanding {
                    return None;
                }
                match pattern.decide(self.port, num_ports, cycle, &mut self.rng) {
                    TrafficPhase::Inject(dest) => {
                        self.outstanding.entry(dest.0).or_default().push_back(tick);
                        self.in_flight += 1;
                        dest
                    }
                    TrafficPhase::Idle => return None,
                }
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent += 1;
        let flit = Flit::with_kind(self.port, dest, seq, seq, FlitKind::Single, tick);
        Some(flit)
    }
}

/// Mutable state of a sink.
#[derive(Debug, Clone)]
pub(crate) struct SinkState {
    pub port: PortId,
    pub mode: SinkMode,
}

/// A port endpoint's own fault state (sources, sinks and tiles in fault
/// runs; boxed, so every other element pays one pointer).
#[derive(Debug, Clone, Default)]
pub(crate) struct ElementFaults {
    /// Retransmissions the recovery layer released for this port's
    /// injector, in injection order.
    pub retx: VecDeque<Flit>,
    /// `(source, sequence)` pairs this port's consumer received cleanly —
    /// the consumer gate's duplicate filter.
    pub delivered: FxHashSet<(u32, u64)>,
}

/// What an element is.
#[derive(Debug, Clone)]
pub(crate) enum Kind {
    /// A handshake pipeline register.
    Stage,
    /// A port's injector.
    Source(SourceState),
    /// A port's consumer.
    Sink(SinkState),
    /// A closed-loop request/response endpoint (demonstrator tiles).
    Tile(TileState),
}

/// One element of the simulated element graph.
#[derive(Debug, Clone)]
pub(crate) struct Element {
    /// Interned label, resolved through the network's
    /// [`LabelTable`](crate::LabelTable) at report/diagnosis time.
    pub label: LabelId,
    pub kind: Kind,
    pub polarity: ClockPolarity,
    pub upstreams: Vec<ElementId>,
    pub downstreams: Vec<ElementId>,
    pub filter: RouteFilter,
    pub arb: Arbitration,
    pub rr_next: usize,
    /// The flit this element currently presents downstream (its register).
    pub out_flit: Option<Flit>,
    /// Wormhole lock: while a multi-flit packet passes, the stage only
    /// captures from this upstream, until the tail releases it.
    pub lock: Option<ElementId>,
    /// Which upstream's flit this element captured on its last active edge.
    pub accepted_from: Option<ElementId>,
    /// Gating accounting (stages only).
    pub gating: ClockGatingStats,
    /// Tick at which a register upset erases the held flit (fault runs
    /// only; `u64::MAX`: never). Drawn when the flit is latched.
    pub upset_at: u64,
    /// Endpoint fault state, set on sources, sinks and tiles when a fault
    /// plan attaches.
    pub faults: Option<Box<ElementFaults>>,
}

impl Element {
    pub(crate) fn new(label: LabelId, kind: Kind, polarity: ClockPolarity) -> Self {
        Self {
            label,
            kind,
            polarity,
            upstreams: Vec::new(),
            downstreams: Vec::new(),
            filter: RouteFilter::Any,
            arb: Arbitration::RoundRobin,
            rr_next: 0,
            out_flit: None,
            lock: None,
            accepted_from: None,
            gating: ClockGatingStats::new(),
            upset_at: u64::MAX,
            faults: None,
        }
    }

    /// Flits queued inside this endpoint, outside its register: a memory
    /// tile's pending responses and the retransmissions released to it.
    pub(crate) fn queued(&self) -> u64 {
        let retx = self.faults.as_ref().map_or(0, |f| f.retx.len());
        let pending = match &self.kind {
            Kind::Tile(t) => t.pending.len(),
            _ => 0,
        };
        (retx + pending) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit_to(dest: u32) -> Flit {
        Flit::new(PortId(0), PortId(dest), 0, 0)
    }

    #[test]
    fn filters_partition_destinations() {
        let inside = RouteFilter::DestInRange { lo: 4, hi: 8 };
        let outside = RouteFilter::DestOutsideRange { lo: 4, hi: 8 };
        for d in 0..12 {
            let f = flit_to(d);
            assert_ne!(inside.wants(&f), outside.wants(&f), "dest {d}");
            assert!(RouteFilter::Any.wants(&f));
        }
        assert!(inside.wants(&flit_to(4)));
        assert!(!inside.wants(&flit_to(8)));
    }

    #[test]
    fn sink_modes_schedule_acceptance() {
        assert!(SinkMode::AlwaysAccept.accepts(123));
        let stall = SinkMode::StallDuring { from: 10, to: 20 };
        assert!(stall.accepts(9));
        assert!(!stall.accepts(10));
        assert!(!stall.accepts(19));
        assert!(stall.accepts(20));
        let slow = SinkMode::Throttle { period: 4 };
        assert!(slow.accepts(0));
        assert!(!slow.accepts(1));
        assert!(slow.accepts(8));
    }

    #[test]
    fn zero_period_throttle_always_accepts() {
        assert!(SinkMode::Throttle { period: 0 }.accepts(17));
    }
}

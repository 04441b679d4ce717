//! Flit-lifecycle observability: event tracing and per-element counters.
//!
//! The simulator core stays uninstrumented by default — a network starts
//! with no trace sinks attached. Every instrumentation site in the dense
//! loop is guarded by an is-empty check on the sink list, so its disabled
//! path costs one branch per potential event (the `trace_overhead` bench
//! in `icnoc-bench` holds this to within noise of the uninstrumented
//! baseline), and the activity-list kernel compiles its trace lane only
//! into the visits of traced runs. Attaching a sink turns on a stream of
//! [`TraceEvent`]s covering a flit's whole life:
//!
//! * [`Injected`](TraceEventKind::Injected) — a source or tile placed a
//!   fresh flit into its output register;
//! * [`HopForwarded`](TraceEventKind::HopForwarded) — a pipeline/router
//!   stage captured a flit from an upstream;
//! * [`Arbitrated`](TraceEventKind::Arbitrated) — that capture won a
//!   merge with more than one upstream competing;
//! * [`Blocked`](TraceEventKind::Blocked) — an element holding a flit saw
//!   its downstream refuse it this edge (back pressure);
//! * [`Delivered`](TraceEventKind::Delivered) — a sink or tile consumed
//!   the flit at its destination;
//! * [`Dropped`](TraceEventKind::Dropped) — the flit left the network
//!   undelivered; every drop carries a structured [`DropCause`] (a
//!   misroute, or one of the fault-injection outcomes);
//! * [`Corrupted`](TraceEventKind::Corrupted) — a flit's payload no longer
//!   matches its CRC (an injected upset or resolved metastability);
//! * [`TimingViolation`](TraceEventKind::TimingViolation) — a link
//!   crossing's effective skew fell outside the analytic setup/hold
//!   window (the per-transfer timing guard fired);
//! * [`Retransmitted`](TraceEventKind::Retransmitted) — a source or tile
//!   re-injected a NACKed or timed-out flit;
//! * [`FrequencyBackoff`](TraceEventKind::FrequencyBackoff) — the DFS
//!   controller stepped the clock down after repeated violations.
//!
//! Two sinks ship with the crate: [`RingBufferSink`] keeps the last N
//! events for post-mortem dumps (allocation-free once full), and
//! [`CountersSink`] folds the stream into per-element utilisation and
//! per-flow latency percentiles, surfaced through
//! [`ObservabilityReport`] inside [`SimReport`](crate::SimReport).

use crate::{ElementId, Flit, LatencyHistogram, LatencyStats};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;

/// Why a flit left the network undelivered.
///
/// A [`Dropped`](TraceEventKind::Dropped) event is never emitted without a
/// cause — drops are the one place where silent accounting would hide
/// faults, so the cause taxonomy is part of the event, not a comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// A consumer received a flit addressed to a different port (never
    /// happens in a correct fabric).
    Misroute,
    /// An injected register upset erased a held flit outright.
    FaultUpset,
    /// A timing violation resolved as metastability-to-loss: the transfer
    /// consumed the upstream's flit but nothing valid was latched.
    Metastability,
    /// A consumer discarded a flit whose CRC/identity check failed
    /// (detected corruption; a NACK retransmission is scheduled).
    CorruptPayload,
    /// A consumer discarded a duplicate of an already-delivered flit
    /// (stuck-handshake double capture, or a redundant retransmission).
    Duplicate,
}

impl DropCause {
    /// Every cause, in the order used by
    /// [`CountersSink::drops_by_cause`].
    pub const ALL: [DropCause; 5] = [
        DropCause::Misroute,
        DropCause::FaultUpset,
        DropCause::Metastability,
        DropCause::CorruptPayload,
        DropCause::Duplicate,
    ];

    /// Index of this cause within [`ALL`](Self::ALL).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            DropCause::Misroute => 0,
            DropCause::FaultUpset => 1,
            DropCause::Metastability => 2,
            DropCause::CorruptPayload => 3,
            DropCause::Duplicate => 4,
        }
    }

    /// A short human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DropCause::Misroute => "misroute",
            DropCause::FaultUpset => "fault-upset",
            DropCause::Metastability => "metastability",
            DropCause::CorruptPayload => "corrupt-payload",
            DropCause::Duplicate => "duplicate",
        }
    }
}

/// What happened to a flit at one element on one clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A source/tile created the flit and presented it downstream.
    Injected,
    /// A stage captured the flit from an upstream register.
    HopForwarded,
    /// The element holds the flit but its downstream refused capture.
    Blocked,
    /// The capture won an arbitration among `contenders` competing
    /// upstreams (emitted alongside the corresponding `HopForwarded`).
    Arbitrated {
        /// Upstreams that presented an eligible flit this edge.
        contenders: u32,
    },
    /// A sink/tile consumed the flit at its destination port.
    Delivered,
    /// The flit left the network undelivered, for the stated cause.
    Dropped {
        /// Why the flit was removed.
        cause: DropCause,
    },
    /// A flit whose payload no longer matches its CRC was observed
    /// (emitted at the element that detected or created the corruption).
    Corrupted,
    /// A link crossing's effective skew fell outside the setup/hold
    /// window computed by `icnoc-timing` — the per-transfer timing guard
    /// turned a silently-marginal transfer into an explicit event.
    TimingViolation,
    /// A source or tile re-injected an un-acknowledged or NACKed flit.
    Retransmitted,
    /// The dynamic-frequency-scaling controller stepped the clock down in
    /// response to repeated timing violations.
    FrequencyBackoff,
}

/// One observability event: element, half-cycle timestamp, flit, kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Half-cycle tick at which the edge occurred.
    pub tick: u64,
    /// The element the event happened at.
    pub element: ElementId,
    /// What happened.
    pub kind: TraceEventKind,
    /// The flit involved.
    pub flit: Flit,
}

/// A consumer of [`TraceEvent`]s.
///
/// Implementations must be cheap per event — `record` runs inside the
/// simulation hot loop whenever tracing is enabled. The `Debug` bound and
/// [`box_clone`](TraceSink::box_clone) keep
/// [`Network`](crate::Network) derivable (`Debug`, `Clone`);
/// [`as_any`](TraceSink::as_any) lets callers recover a concrete sink
/// (e.g. the counters) after a run.
pub trait TraceSink: std::fmt::Debug {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Clones this sink behind a fresh box.
    fn box_clone(&self) -> Box<dyn TraceSink>;

    /// Downcast support for retrieving concrete sinks from a network.
    fn as_any(&self) -> &dyn Any;
}

impl Clone for Box<dyn TraceSink> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A bounded event log keeping the most recent events.
///
/// The buffer is allocated once at the requested capacity and then
/// overwrites its oldest entry per excess event — steady-state recording
/// never allocates. [`overwritten`](Self::overwritten) counts how many
/// events scrolled out.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest entry once the buffer has wrapped.
    head: usize,
    overwritten: u64,
}

impl RingBufferSink {
    /// Creates a sink retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    #[track_caller]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an event buffer needs capacity");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            overwritten: 0,
        }
    }

    /// Events currently retained, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events that scrolled out of the buffer.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(*event);
        } else {
            self.buf[self.head] = *event;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    fn box_clone(&self) -> Box<dyn TraceSink> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Per-element activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElementCounters {
    /// Flits this element injected (sources/tiles).
    pub injected: u64,
    /// Flits this element captured from an upstream (stages).
    pub forwarded: u64,
    /// Edges on which this element held a flit its downstream refused.
    pub blocked_edges: u64,
    /// Captures that won a multi-upstream arbitration.
    pub arbitrated: u64,
    /// Flits consumed here as their destination (sinks/tiles).
    pub delivered: u64,
    /// Flits removed from the network here (any [`DropCause`]).
    pub dropped: u64,
    /// Corrupted flits observed here (created or detected).
    pub corrupted: u64,
    /// Timing-guard violations observed at this element's input link.
    pub violations: u64,
    /// Retransmissions re-injected by this source or tile.
    pub retransmitted: u64,
}

impl ElementCounters {
    /// Edges on which this element's register did useful or blocked work —
    /// the occupancy integral behind
    /// [`utilisation`](ElementUtilisation::utilisation).
    #[must_use]
    pub fn active_edges(&self) -> u64 {
        // `corrupted` and `violations` annotate captures/consumes already
        // counted above; retransmissions occupy the register like a fresh
        // injection does.
        self.injected
            + self.forwarded
            + self.blocked_edges
            + self.delivered
            + self.dropped
            + self.retransmitted
    }
}

/// Per-flow (source → destination) latency accumulator.
#[derive(Debug, Clone, PartialEq)]
struct FlowCounters {
    stats: LatencyStats,
    histogram: LatencyHistogram,
}

impl FlowCounters {
    fn new() -> Self {
        Self {
            stats: LatencyStats::new(),
            histogram: LatencyHistogram::new(),
        }
    }
}

/// Per-flow storage: a dense `ports × ports` matrix when the port count is
/// known (the network-attached case — every Delivered event then costs an
/// index instead of a hash), falling back to a hash map for hand-built
/// sinks.
#[derive(Debug, Clone)]
enum FlowMap {
    /// Cell `src * ports + dest`; `None` until the flow's first delivery.
    /// Boxed so idle cells cost one pointer, not a full histogram.
    Dense {
        ports: u32,
        cells: Vec<Option<Box<FlowCounters>>>,
    },
    /// Unknown port count: hash on the (src, dest) pair.
    Sparse(HashMap<(u32, u32), FlowCounters>),
}

impl Default for FlowMap {
    fn default() -> Self {
        FlowMap::Sparse(HashMap::new())
    }
}

impl FlowMap {
    fn slot(&mut self, src: u32, dest: u32) -> &mut FlowCounters {
        match self {
            FlowMap::Dense { ports, cells } => {
                let idx = src as usize * *ports as usize + dest as usize;
                cells[idx].get_or_insert_with(|| Box::new(FlowCounters::new()))
            }
            FlowMap::Sparse(map) => map.entry((src, dest)).or_insert_with(FlowCounters::new),
        }
    }

    /// Live flows in ascending `(src, dest)` order — the dense layout
    /// yields it for free, the sparse fallback sorts.
    fn collect(&self) -> Vec<(u32, u32, &FlowCounters)> {
        match self {
            FlowMap::Dense { ports, cells } => cells
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    c.as_deref()
                        .map(|f| (i as u32 / *ports, i as u32 % *ports, f))
                })
                .collect(),
            FlowMap::Sparse(map) => {
                let mut v: Vec<_> = map.iter().map(|(&(s, d), f)| (s, d, f)).collect();
                v.sort_unstable_by_key(|&(s, d, _)| (s, d));
                v
            }
        }
    }
}

/// A [`TraceSink`] folding events into per-element counters and per-flow
/// latency histograms — constant memory, no event log.
#[derive(Debug, Clone, Default)]
pub struct CountersSink {
    elements: Vec<ElementCounters>,
    flows: FlowMap,
    totals: TraceTotals,
    drops_by_cause: [u64; DropCause::ALL.len()],
}

impl CountersSink {
    /// Creates an empty counters sink with sparse per-flow storage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a counters sink for a network of `ports` ports, using the
    /// dense per-flow matrix.
    #[must_use]
    pub fn with_ports(ports: u32) -> Self {
        Self {
            flows: FlowMap::Dense {
                ports,
                cells: vec![None; ports as usize * ports as usize],
            },
            ..Self::default()
        }
    }

    /// Counters of one element (zeroes for untouched elements).
    #[must_use]
    pub fn element(&self, id: ElementId) -> ElementCounters {
        self.elements.get(id.index()).copied().unwrap_or_default()
    }

    /// Event totals across the run.
    #[must_use]
    pub fn totals(&self) -> TraceTotals {
        self.totals
    }

    /// Drop counts broken down by cause, indexed as [`DropCause::ALL`].
    /// The entries always sum to [`TraceTotals::dropped`] — the
    /// no-silent-drop invariant.
    #[must_use]
    pub fn drops_by_cause(&self) -> [u64; DropCause::ALL.len()] {
        self.drops_by_cause
    }

    fn slot(&mut self, id: ElementId) -> &mut ElementCounters {
        let idx = id.index();
        if idx >= self.elements.len() {
            self.elements.resize(idx + 1, ElementCounters::default());
        }
        &mut self.elements[idx]
    }

    /// Folds the counters into a report, given the run length in cycles
    /// and every element's label (indexed by element id).
    ///
    /// Each element is clocked once per cycle (on its polarity's edge), so
    /// its utilisation is `active_edges / cycles`.
    #[must_use]
    pub fn report(&self, cycles: u64, labels: &[&str]) -> ObservabilityReport {
        let mut elements: Vec<ElementUtilisation> = self
            .elements
            .iter()
            .enumerate()
            .map(|(idx, c)| ElementUtilisation {
                label: labels.get(idx).copied().unwrap_or("?").to_owned(),
                counters: *c,
                utilisation: if cycles == 0 {
                    0.0
                } else {
                    c.active_edges() as f64 / cycles as f64
                },
            })
            .collect();
        // Labels can repeat across builders only by construction error;
        // keep deterministic order by busiest-first, then label.
        elements.sort_by(|a, b| {
            b.counters
                .active_edges()
                .cmp(&a.counters.active_edges())
                .then_with(|| a.label.cmp(&b.label))
        });
        let flows: Vec<FlowLatency> = self
            .flows
            .collect()
            .into_iter()
            .map(|(src, dest, f)| FlowLatency {
                src,
                dest,
                delivered: f.stats.count(),
                mean_cycles: f.stats.mean_cycles(),
                p50: f.histogram.p50(),
                p95: f.histogram.p95(),
                p99: f.histogram.p99(),
                max_cycles: f.stats.max_cycles(),
            })
            .collect();
        ObservabilityReport {
            cycles,
            totals: self.totals,
            elements,
            flows,
        }
    }
}

impl TraceSink for CountersSink {
    fn record(&mut self, event: &TraceEvent) {
        let slot = self.slot(event.element);
        match event.kind {
            TraceEventKind::Injected => {
                slot.injected += 1;
                self.totals.injected += 1;
            }
            TraceEventKind::HopForwarded => {
                slot.forwarded += 1;
                self.totals.forwarded += 1;
            }
            TraceEventKind::Blocked => {
                slot.blocked_edges += 1;
                self.totals.blocked_edges += 1;
            }
            TraceEventKind::Arbitrated { .. } => {
                slot.arbitrated += 1;
                self.totals.arbitrated += 1;
            }
            TraceEventKind::Delivered => {
                slot.delivered += 1;
                self.totals.delivered += 1;
                let latency = event.flit.latency_half_cycles(event.tick);
                let flow = self.flows.slot(event.flit.src.0, event.flit.dest.0);
                flow.stats.record(latency);
                flow.histogram.record(latency);
            }
            TraceEventKind::Dropped { cause } => {
                slot.dropped += 1;
                self.totals.dropped += 1;
                self.drops_by_cause[cause.index()] += 1;
            }
            TraceEventKind::Corrupted => {
                slot.corrupted += 1;
                self.totals.corrupted += 1;
            }
            TraceEventKind::TimingViolation => {
                slot.violations += 1;
                self.totals.violations += 1;
            }
            TraceEventKind::Retransmitted => {
                slot.retransmitted += 1;
                self.totals.retransmitted += 1;
            }
            TraceEventKind::FrequencyBackoff => {
                self.totals.backoffs += 1;
            }
        }
    }

    fn box_clone(&self) -> Box<dyn TraceSink> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Event totals across a run — the conservation ledger: every injected
/// flit must end up delivered, dropped, or still in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceTotals {
    /// Flits injected by sources and tiles.
    pub injected: u64,
    /// Stage captures (hop count across all flits).
    pub forwarded: u64,
    /// Back-pressure edges across all elements.
    pub blocked_edges: u64,
    /// Multi-upstream arbitration wins.
    pub arbitrated: u64,
    /// Flits consumed at their destination.
    pub delivered: u64,
    /// Flits removed undelivered (sum over all [`DropCause`]s).
    pub dropped: u64,
    /// Corrupted-flit observations.
    pub corrupted: u64,
    /// Per-transfer timing-guard violations.
    pub violations: u64,
    /// Retransmissions injected by the recovery layer.
    pub retransmitted: u64,
    /// DFS frequency backoffs.
    pub backoffs: u64,
}

/// One element's activity over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElementUtilisation {
    /// The element's label (e.g. `r0.mid1`, `src3`, `l5d.0`).
    pub label: String,
    /// Raw event counters.
    pub counters: ElementCounters,
    /// Fraction of the element's clock edges spent holding or moving a
    /// flit (`active_edges / cycles`).
    pub utilisation: f64,
}

/// Delivery-latency summary of one (source, destination) flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowLatency {
    /// Source port.
    pub src: u32,
    /// Destination port.
    pub dest: u32,
    /// Flits delivered on this flow.
    pub delivered: u64,
    /// Mean latency in cycles.
    pub mean_cycles: f64,
    /// Median latency in cycles.
    pub p50: f64,
    /// 95th-percentile latency in cycles.
    pub p95: f64,
    /// 99th-percentile latency in cycles.
    pub p99: f64,
    /// Maximum latency in cycles.
    pub max_cycles: f64,
}

/// The observability section of a [`SimReport`](crate::SimReport):
/// per-element utilisation plus per-flow latency percentiles, produced by
/// an attached [`CountersSink`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservabilityReport {
    /// Run length in cycles when the report was taken.
    pub cycles: u64,
    /// Event totals (the flit-conservation ledger).
    pub totals: TraceTotals,
    /// Per-element activity, busiest first.
    pub elements: Vec<ElementUtilisation>,
    /// Per-flow latency summaries, ordered by (src, dest).
    pub flows: Vec<FlowLatency>,
}

/// Minimal JSON string escaping (labels contain no exotic characters, but
/// be defensive).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ObservabilityReport {
    /// Renders the report as a JSON document (no external serializer is
    /// available in this workspace, so the emission is hand-rolled).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = self.totals;
        let _ = write!(
            out,
            "{{\n  \"cycles\": {},\n  \"totals\": {{\"injected\": {}, \"forwarded\": {}, \
             \"blocked_edges\": {}, \"arbitrated\": {}, \"delivered\": {}, \"dropped\": {}, \
             \"corrupted\": {}, \"violations\": {}, \"retransmitted\": {}, \"backoffs\": {}}},\n",
            self.cycles,
            t.injected,
            t.forwarded,
            t.blocked_edges,
            t.arbitrated,
            t.delivered,
            t.dropped,
            t.corrupted,
            t.violations,
            t.retransmitted,
            t.backoffs
        );
        out.push_str("  \"elements\": [\n");
        for (i, e) in self.elements.iter().enumerate() {
            let c = e.counters;
            let _ = writeln!(
                out,
                "    {{\"label\": \"{}\", \"injected\": {}, \"forwarded\": {}, \
                 \"blocked_edges\": {}, \"arbitrated\": {}, \"delivered\": {}, \
                 \"dropped\": {}, \"corrupted\": {}, \"retransmitted\": {}, \
                 \"utilisation\": {:.6}}}{}",
                json_escape(&e.label),
                c.injected,
                c.forwarded,
                c.blocked_edges,
                c.arbitrated,
                c.delivered,
                c.dropped,
                c.corrupted,
                c.retransmitted,
                e.utilisation,
                if i + 1 < self.elements.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"flows\": [\n");
        for (i, f) in self.flows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"src\": {}, \"dest\": {}, \"delivered\": {}, \"mean_cycles\": {:.3}, \
                 \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"max_cycles\": {:.1}}}{}",
                f.src,
                f.dest,
                f.delivered,
                f.mean_cycles,
                f.p50,
                f.p95,
                f.p99,
                f.max_cycles,
                if i + 1 < self.flows.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the per-element table as CSV (header + one row per
    /// element).
    #[must_use]
    pub fn elements_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "label,injected,forwarded,blocked_edges,arbitrated,delivered,dropped,corrupted,\
             retransmitted,utilisation\n",
        );
        for e in &self.elements {
            let c = e.counters;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{:.6}",
                e.label,
                c.injected,
                c.forwarded,
                c.blocked_edges,
                c.arbitrated,
                c.delivered,
                c.dropped,
                c.corrupted,
                c.retransmitted,
                e.utilisation
            );
        }
        out
    }

    /// Renders the per-flow table as CSV (header + one row per flow).
    #[must_use]
    pub fn flows_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("src,dest,delivered,mean_cycles,p50,p95,p99,max_cycles\n");
        for f in &self.flows {
            let _ = writeln!(
                out,
                "{},{},{},{:.3},{:.1},{:.1},{:.1},{:.1}",
                f.src, f.dest, f.delivered, f.mean_cycles, f.p50, f.p95, f.p99, f.max_cycles
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icnoc_topology::PortId;

    fn ev(tick: u64, element: u32, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            tick,
            element: ElementId(element),
            kind,
            flit: Flit::new(PortId(0), PortId(1), 0, tick.saturating_sub(4)),
        }
    }

    #[test]
    fn ring_buffer_keeps_the_most_recent_events() {
        let mut sink = RingBufferSink::new(3);
        for t in 0..5 {
            sink.record(&ev(t, 0, TraceEventKind::HopForwarded));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.overwritten(), 2);
        let ticks: Vec<u64> = sink.events().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
    }

    #[test]
    fn ring_buffer_does_not_grow_past_capacity() {
        let mut sink = RingBufferSink::new(8);
        for t in 0..1000 {
            sink.record(&ev(t, 0, TraceEventKind::Blocked));
        }
        assert_eq!(sink.len(), 8);
        assert!(sink.buf.capacity() <= 8 * 2, "buffer must stay bounded");
    }

    #[test]
    fn counters_fold_per_element_and_per_flow() {
        let mut sink = CountersSink::new();
        sink.record(&ev(0, 2, TraceEventKind::Injected));
        sink.record(&ev(1, 5, TraceEventKind::HopForwarded));
        sink.record(&ev(1, 5, TraceEventKind::Arbitrated { contenders: 2 }));
        sink.record(&ev(2, 5, TraceEventKind::Blocked));
        sink.record(&ev(8, 7, TraceEventKind::Delivered));
        let c5 = sink.element(ElementId(5));
        assert_eq!(c5.forwarded, 1);
        assert_eq!(c5.arbitrated, 1);
        assert_eq!(c5.blocked_edges, 1);
        assert_eq!(sink.element(ElementId(2)).injected, 1);
        assert_eq!(sink.element(ElementId(7)).delivered, 1);
        assert_eq!(sink.element(ElementId(100)), ElementCounters::default());
        let totals = sink.totals();
        assert_eq!(totals.injected, 1);
        assert_eq!(totals.delivered, 1);
        assert_eq!(totals.dropped, 0);

        let labels = ["a", "b", "src", "d", "e", "stage", "g", "sink"];
        let report = sink.report(10, &labels);
        assert_eq!(report.cycles, 10);
        // Busiest first: element 5 has 2 active edges.
        assert_eq!(report.elements[0].label, "stage");
        assert!((report.elements[0].utilisation - 0.2).abs() < 1e-12);
        assert_eq!(report.flows.len(), 1);
        let flow = report.flows[0];
        assert_eq!((flow.src, flow.dest), (0, 1));
        assert_eq!(flow.delivered, 1);
        // Latency of the delivered flit: 4 half-cycles = 2 cycles.
        assert_eq!(flow.p50, 2.0);
        assert_eq!(flow.max_cycles, 2.0);
    }

    #[test]
    fn dense_flow_matrix_matches_sparse_fold() {
        let mut dense = CountersSink::with_ports(4);
        let mut sparse = CountersSink::new();
        let deliveries = [(0u32, 1u32, 8u64), (3, 0, 12), (0, 1, 20), (2, 2, 6)];
        for &(src, dest, tick) in &deliveries {
            let event = TraceEvent {
                tick,
                element: ElementId(dest),
                kind: TraceEventKind::Delivered,
                flit: Flit::new(PortId(src), PortId(dest), 0, tick - 4),
            };
            dense.record(&event);
            sparse.record(&event);
        }
        let labels = ["a", "b", "c", "d"];
        let d = dense.report(16, &labels);
        let s = sparse.report(16, &labels);
        assert_eq!(d.flows, s.flows);
        // Ascending (src, dest) without any sort on the dense path.
        let order: Vec<(u32, u32)> = d.flows.iter().map(|f| (f.src, f.dest)).collect();
        assert_eq!(order, vec![(0, 1), (2, 2), (3, 0)]);
        assert_eq!(d.flows[0].delivered, 2);
    }

    #[test]
    fn drops_are_partitioned_by_cause() {
        let mut sink = CountersSink::new();
        for cause in DropCause::ALL {
            sink.record(&ev(1, 3, TraceEventKind::Dropped { cause }));
        }
        sink.record(&ev(
            2,
            3,
            TraceEventKind::Dropped {
                cause: DropCause::Duplicate,
            },
        ));
        let by_cause = sink.drops_by_cause();
        assert_eq!(by_cause[DropCause::Duplicate.index()], 2);
        assert_eq!(by_cause.iter().sum::<u64>(), sink.totals().dropped);
    }

    #[test]
    fn fault_events_fold_into_totals() {
        let mut sink = CountersSink::new();
        sink.record(&ev(0, 1, TraceEventKind::TimingViolation));
        sink.record(&ev(0, 1, TraceEventKind::Corrupted));
        sink.record(&ev(1, 0, TraceEventKind::Retransmitted));
        sink.record(&ev(1, 1, TraceEventKind::FrequencyBackoff));
        let t = sink.totals();
        assert_eq!(
            (t.violations, t.corrupted, t.retransmitted, t.backoffs),
            (1, 1, 1, 1)
        );
        let c = sink.element(ElementId(1));
        assert_eq!((c.violations, c.corrupted), (1, 1));
        assert_eq!(sink.element(ElementId(0)).retransmitted, 1);
    }

    #[test]
    fn json_and_csv_render() {
        let mut sink = CountersSink::new();
        sink.record(&ev(0, 0, TraceEventKind::Injected));
        sink.record(&ev(6, 1, TraceEventKind::Delivered));
        let report = sink.report(5, &["src0", "sink1"]);
        let json = report.to_json();
        assert!(json.contains("\"cycles\": 5"), "{json}");
        assert!(json.contains("\"label\": \"src0\""), "{json}");
        assert!(json.contains("\"p95\""), "{json}");
        let csv = report.elements_csv();
        assert!(csv.starts_with("label,injected"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "{csv}");
        let flows = report.flows_csv();
        assert!(flows.contains("0,1,1"), "{flows}");
    }

    #[test]
    fn json_escapes_labels() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn empty_counters_report_is_empty() {
        let sink = CountersSink::new();
        let report = sink.report(0, &[]);
        assert!(report.elements.is_empty());
        assert!(report.flows.is_empty());
        assert_eq!(report.totals, TraceTotals::default());
        assert!(report.to_json().contains("\"elements\": ["));
    }
}

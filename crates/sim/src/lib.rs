//! Two-phase, cycle-accurate simulation of the IC-NoC.
//!
//! The paper's flow control (Section 5) clocks pipeline stages on
//! **alternating clock edges**: a producer presents `valid` + data on its
//! edge, the consumer — clocked half a cycle later — captures the flit if it
//! can and answers with an `accept` level, which the producer samples on its
//! *next* edge. Every control signal therefore has exactly half a clock
//! period to propagate, which is precisely the timing budget analysed in
//! Section 4. This crate simulates that protocol at half-cycle resolution:
//!
//! * [`Flit`] — the 32-bit-payload unit travelling the network;
//! * [`Network`] — an element graph of handshake [`stages`](ElementId),
//!   traffic sources and sinks, with two builders:
//!   [`Network::pipeline`] (the straight pipeline of Fig. 4 used for E8)
//!   and [`TreeNetworkConfig::build`] (a full IC-NoC of 3×3/5×5 routers);
//! * [`TrafficPattern`] — uniform / neighbour / hotspot / bursty generators
//!   (deterministic per seed);
//! * [`SimReport`] — loss/duplication/ordering scoreboard, latency and
//!   throughput statistics, and per-network clock-gating numbers.
//!
//! # Example: the Fig. 4 handshake pipeline
//!
//! ```
//! use icnoc_sim::{Network, SinkMode, TrafficPattern};
//!
//! // An 8-stage pipeline streaming at full speed.
//! let mut net = Network::pipeline(8, TrafficPattern::saturate(), SinkMode::AlwaysAccept, 7);
//! let report = net.run_cycles(200);
//! assert_eq!(report.lost(), 0);
//! assert_eq!(report.duplicated, 0);
//! // Full throughput: ~1 flit per cycle arrives once the pipe fills.
//! assert!(report.throughput_per_cycle() > 0.9);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod element;
mod fault;
mod flit;
mod label;
mod network;
mod parallel;
mod profile;
mod report;
mod trace;
mod traffic;
mod tree_net;
mod vcd;

pub use element::{Arbitration, ElementId, MeshDirection, RouteFilter, SinkMode};
pub use fault::{FaultCounts, FaultKind, FaultPlan, FaultRates, RecoveryReport};
pub use flit::{Flit, FlitKind};
pub use label::{LabelId, LabelTable};
pub use network::{DrainTimeout, Network, SimKernel, MAX_CYCLES};
pub use profile::{EpochSample, PerfReport, PerfWall, ShardCounters, TimedWakes, WorkerProfile};
pub use report::{LatencyHistogram, LatencyStats, ReportDigest, SimReport};
pub use trace::{
    CountersSink, DropCause, ElementCounters, ElementUtilisation, FlowLatency, ObservabilityReport,
    RingBufferSink, TraceEvent, TraceEventKind, TraceTotals,
};
pub use traffic::{TrafficPattern, TrafficPhase};
pub use tree_net::{TileTraffic, TreeNetworkConfig};
pub use vcd::VcdTrace;

//! The element-graph simulator core and the straight-pipeline builder.

use crate::element::{Element, Kind, SinkState, SourceState, TileRole, TileState};
use crate::fault::{
    arrival_event, ArrivalVerdict, CaptureEffect, ClockTopology, FaultCtx, FaultOp, FaultState,
};
use crate::label::LabelTable;
use crate::parallel::{self, ParState};
use crate::profile::{KernelProfiler, PerfReport, PerfWall, ShardCounters, TimedWakes};
use crate::report::Scoreboard;
use crate::trace::{CountersSink, DropCause, RingBufferSink, Sinks, TraceEvent, TraceEventKind};
use crate::{
    Arbitration, ElementId, FaultPlan, Flit, LatencyStats, RecoveryReport, RouteFilter, SimReport,
    SinkMode, TrafficPattern,
};
use icnoc_clock::{ClockGatingStats, ClockPolarity};
use icnoc_timing::Direction;
use icnoc_topology::PortId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which stepping kernel a [`Network`] uses to evaluate its elements.
///
/// There are two stepping loops: the dense scan and the struct-of-arrays
/// activity-list step of the `parallel` module, run as
/// one shard (`EventDriven`) or as one shard per worker (`Parallel`).
/// Every kernel implements the exact same half-cycle semantics and
/// produces **bit-identical** [`SimReport`]s (including trace events,
/// counters and the recovery ledger) for the same configuration and
/// seed — the dense kernel is retained as a differential-testing oracle
/// and selected with `--kernel dense` on the CLI.
///
/// Fault plans and trace sinks run on every kernel. Each fault is a pure
/// hash of `(seed, tick, element, slot)`, no fault changes an element no
/// handshake or timed wake visits, and the recovery layer folds its
/// logged operations at every tick boundary. A traced run keeps every
/// element that holds a blocked flit armed, so each blocked edge is a
/// visit that emits its `Blocked` event; visits log their events stamped
/// with `(tick, element)`, and the sinks receive them merged in that
/// order — the dense loop's order — at every window end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimKernel {
    /// Scan every element on every tick, skipping mismatched polarities —
    /// the straightforward oracle implementation.
    Dense,
    /// Activity-list stepping on one struct-of-arrays shard: elements
    /// register into a per-polarity ready-set when a handshake edge can
    /// change their state (valid asserted, accept freed), and a tick
    /// drains only that set — the software mirror of the paper's
    /// handshake-derived clock gating (Section 5).
    #[default]
    EventDriven,
    /// Multi-threaded stepping: the element graph is partitioned into
    /// per-worker shards along subtree boundaries and each shard runs the
    /// event kernel's step on its own thread. A cross-shard wake made on
    /// one tick is needed only on the next (every connection joins
    /// opposite clock polarities), so the coordinating thread routes it
    /// between windows. Reports and element-visit counts stay identical
    /// to the event kernel at any worker count.
    Parallel {
        /// Worker thread count; `0` means auto-detect from the host's
        /// available parallelism.
        workers: u32,
    },
}

impl SimKernel {
    /// Parses a CLI spelling (`dense` / `event` / `parallel`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dense" => Ok(SimKernel::Dense),
            "event" | "event-driven" => Ok(SimKernel::EventDriven),
            "parallel" => Ok(SimKernel::Parallel { workers: 0 }),
            other => Err(format!(
                "unknown kernel {other:?} (try dense|event|parallel)"
            )),
        }
    }

    /// Stable label used in benchmark output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimKernel::Dense => "dense",
            SimKernel::EventDriven => "event",
            SimKernel::Parallel { .. } => "parallel",
        }
    }
}

/// The longest run, in cycles, whose half-cycle tick count fits in a
/// `u64`. Front ends reject longer runs; [`Network`] saturates.
pub const MAX_CYCLES: u64 = u64::MAX / 2;

/// A simulated network: an element graph evaluated at half-cycle
/// resolution.
///
/// Every connection joins elements of **opposite clock polarity** (checked
/// at construction), so within one tick the active elements only read state
/// written by the inactive half on the previous tick — exactly the paper's
/// alternating-edge discipline, with every `valid`/`accept` level enjoying
/// half a period of propagation time.
#[derive(Debug, Clone)]
pub struct Network {
    elements: Vec<Element>,
    /// Interned element labels; elements carry 4-byte ids into this table
    /// and text is resolved only at report/diagnosis time.
    labels: LabelTable,
    tick: u64,
    num_ports: u32,
    scoreboard: Scoreboard,
    finalized: bool,
    /// Attached observability sinks, at most one of each kind. Empty by
    /// default.
    sinks: Sinks,
    /// Fault injection and recovery state, if a [`FaultPlan`] is attached.
    /// Boxed: the fault-free hot path pays one pointer of state.
    faults: Option<Box<FaultState>>,
    /// Which stepping kernel [`step`](Self::step) runs.
    kernel: SimKernel,
    /// Activity-list kernel state (shard plan, per-shard ready sets and
    /// outboxes), built lazily at the first event or parallel step.
    /// `None` for the dense kernel.
    par: Option<ParState>,
    /// Clock-distribution topology (per-element and per-port clock
    /// domains plus the active backend), set by tree builders. Handed to
    /// the fault layer when a plan attaches, so clock-domain faults can
    /// freeze whole subtrees; also used to attribute stalled holders to a
    /// quarantined domain in [`diagnose_stall`](Self::diagnose_stall).
    clock_domains: Option<ClockTopology>,
    /// Element visits of the dense loop; the activity-list kernel counts
    /// its own in its shard cores. Deliberately *not* part of
    /// [`SimReport`]: the kernels visit different element counts while
    /// producing identical reports.
    dense_steps: u64,
    /// Kernel profiler, if [`enable_profiling`](Self::enable_profiling)
    /// was called. Boxed like `faults`: the unprofiled hot path pays one
    /// pointer of state and one branch per tick.
    prof: Option<Box<KernelProfiler>>,
}

impl Network {
    /// Creates an empty network for `num_ports` ports.
    ///
    /// Prefer the high-level builders — [`Network::pipeline`] and
    /// [`Network::tree`](crate::TreeNetworkConfig::build) — unless you are
    /// constructing custom fabrics.
    ///
    /// # Panics
    ///
    /// Panics if `num_ports < 2`: traffic needs somewhere to go.
    #[must_use]
    #[track_caller]
    pub fn new(num_ports: u32) -> Self {
        assert!(num_ports >= 2, "a network needs at least two ports");
        Self {
            elements: Vec::new(),
            labels: LabelTable::new(),
            tick: 0,
            num_ports,
            scoreboard: Scoreboard::default(),
            finalized: false,
            sinks: Sinks::default(),
            faults: None,
            kernel: SimKernel::default(),
            par: None,
            clock_domains: None,
            dense_steps: 0,
            prof: None,
        }
    }

    /// Selects the stepping kernel. Must be called before the first
    /// [`step`](Self::step): the kernels share all element state, but the
    /// activity-list ready-sets are only maintained from tick zero.
    ///
    /// # Panics
    ///
    /// Panics if the network has already been stepped.
    #[track_caller]
    pub fn set_kernel(&mut self, kernel: SimKernel) {
        assert_eq!(self.tick, 0, "select the kernel before stepping");
        self.kernel = kernel;
    }

    /// The stepping kernel in use.
    #[must_use]
    pub fn kernel(&self) -> SimKernel {
        self.kernel
    }

    /// The activity-list kernel's resolved worker count, once it has
    /// taken its first step: `1` on the event kernel. `None` on the dense
    /// kernel.
    #[must_use]
    pub fn active_workers(&self) -> Option<usize> {
        self.par.as_ref().map(ParState::workers)
    }

    /// The parallel kernel's deepest safe lookahead window — the largest
    /// hop distance from any element to the nearest shard-cut boundary,
    /// i.e. the most barrier-free ticks one epoch can ever batch. `None`
    /// before the first activity-list step, on the dense kernel, and when
    /// the shard plan has no cut edges at all (the
    /// event kernel, or a single worker), in which case only the fold
    /// interval bounds a window.
    #[must_use]
    pub fn parallel_lookahead(&self) -> Option<u64> {
        self.par.as_ref().and_then(ParState::lookahead)
    }

    /// Total element visits executed so far, across all ticks. The dense
    /// kernel visits every matching-polarity element per tick; the
    /// event-driven and parallel kernels visit only armed elements — on
    /// an idle network this counter stops advancing entirely. With trace
    /// sinks attached they also visit every element holding a blocked
    /// flit on each of its edges: one extra visit per `Blocked` event.
    #[must_use]
    pub fn element_steps(&self) -> u64 {
        self.dense_steps + self.par.as_ref().map_or(0, ParState::steps)
    }

    /// Switches on the kernel profiler. Must be called before the first
    /// [`step`](Self::step), so every barrier epoch is covered; the
    /// collected data lands in the `perf` section of
    /// [`report`](Self::report) (see [`PerfReport`]).
    ///
    /// # Panics
    ///
    /// Panics if the network has already been stepped.
    #[track_caller]
    pub fn enable_profiling(&mut self) {
        assert_eq!(self.tick, 0, "enable profiling before stepping");
        self.prof = Some(Box::new(KernelProfiler::default()));
    }

    /// Ignored: speculate-and-replay no longer exists, and the parallel
    /// kernel always runs its conservative lookahead windows. Kept only so
    /// the `benchmark/` package builds unchanged; the next change to that
    /// package deletes it.
    pub fn set_speculation(&mut self, _max_k: Option<u32>) {}

    /// Attaches a fault-injection and recovery plan. Call after
    /// [`finalize`](Self::finalize): the outage stages, clock domains and
    /// retransmission injectors resolve against the complete element
    /// list.
    ///
    /// # Panics
    ///
    /// Panics if the network is not finalized, or if the plan's nominal
    /// link delays violate timing at its nominal frequency (faults must be
    /// excursions from a working design).
    #[track_caller]
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        assert!(
            self.finalized,
            "enable faults after finalize(): fault state resolves against the full graph"
        );
        assert!(
            self.par.is_none(),
            "attach a fault plan before stepping an event- or parallel-kernel network"
        );
        let stages: Vec<bool> = self
            .elements
            .iter()
            .map(|e| matches!(e.kind, Kind::Stage))
            .collect();
        let mut state = Box::new(FaultState::new(plan, &stages));
        if let Some(topology) = self.clock_domains.clone() {
            state.set_clock_topology(topology);
        }
        let mut injectors = vec![u32::MAX; self.num_ports as usize];
        for (i, el) in self.elements.iter().enumerate() {
            if let Kind::Source(SourceState { port, .. }) | Kind::Tile(TileState { port, .. }) =
                &el.kind
            {
                if let Some(slot) = injectors.get_mut(port.0 as usize) {
                    *slot = i as u32;
                }
            }
        }
        state.set_injectors(injectors);
        for el in &mut self.elements {
            if !matches!(el.kind, Kind::Stage) {
                el.faults = Some(Box::default());
            }
        }
        self.faults = Some(state);
    }

    /// Whether a fault plan is attached.
    #[must_use]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The fault-injection/recovery ledger so far, if a plan is attached.
    #[must_use]
    pub fn fault_report(&self) -> Option<RecoveryReport> {
        self.faults.as_ref().map(|f| f.report())
    }

    /// Panics if the network has already stepped on the event or parallel
    /// kernel: a traced run keeps every element holding a blocked flit
    /// armed from its first step, so the sinks hear about every blocked
    /// edge.
    #[track_caller]
    fn assert_unstepped(&self) {
        assert!(
            self.par.is_none(),
            "attach trace sinks before stepping an event- or parallel-kernel network"
        );
    }

    /// Attaches a [`CountersSink`], enabling the per-element utilisation
    /// and per-flow latency sections of [`SimReport`]. A second call
    /// keeps the first sink.
    ///
    /// # Panics
    ///
    /// Panics if the network has already stepped on the event or parallel
    /// kernel.
    #[track_caller]
    pub fn enable_counters(&mut self) {
        self.assert_unstepped();
        self.sinks.counters.get_or_insert_with(CountersSink::new);
    }

    /// Attaches a [`RingBufferSink`] retaining the last `capacity` events
    /// for post-mortem dumps. A second call keeps the first buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or if the network has already
    /// stepped on the event or parallel kernel.
    #[track_caller]
    pub fn enable_event_buffer(&mut self, capacity: usize) {
        self.assert_unstepped();
        self.sinks
            .events
            .get_or_insert(RingBufferSink::new(capacity));
    }

    /// Whether any trace sink is attached.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// The attached [`CountersSink`], if any.
    #[must_use]
    pub fn counters(&self) -> Option<&CountersSink> {
        self.sinks.counters.as_ref()
    }

    /// The attached [`RingBufferSink`], if any.
    #[must_use]
    pub fn event_buffer(&self) -> Option<&RingBufferSink> {
        self.sinks.events.as_ref()
    }

    /// The label of element `id`, if it exists.
    #[must_use]
    pub fn element_label(&self, id: ElementId) -> Option<&str> {
        self.elements
            .get(id.index())
            .map(|e| self.labels.resolve(e.label))
    }

    /// Every element's label, indexed by element id.
    #[must_use]
    pub fn element_labels(&self) -> Vec<&str> {
        self.elements
            .iter()
            .map(|e| self.labels.resolve(e.label))
            .collect()
    }

    /// Fans one event out to every attached sink. Callers guard with
    /// [`tracing_enabled`](Self::tracing_enabled) so the disabled path
    /// never constructs events.
    fn emit(&mut self, element: usize, kind: TraceEventKind, flit: Flit) {
        let event = TraceEvent {
            tick: self.tick,
            element: ElementId(element as u32),
            kind,
            flit,
        };
        self.sinks.record(&event);
    }

    /// Builds the straight handshake pipeline of Fig. 4: one source,
    /// `stages` pipeline registers at alternating polarities, one sink.
    ///
    /// Port 0 is the source, port 1 the sink; `pattern` drives injection
    /// and `sink_mode` creates (or withholds) back pressure.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    #[must_use]
    #[track_caller]
    pub fn pipeline(
        stages: usize,
        pattern: TrafficPattern,
        sink_mode: SinkMode,
        seed: u64,
    ) -> Self {
        assert!(stages > 0, "a pipeline needs at least one stage");
        let mut net = Network::new(2);
        let mut polarity = ClockPolarity::Rising;
        let src = net.add_source(PortId(0), pattern, polarity, seed);
        let mut prev = src;
        for i in 0..stages {
            polarity = polarity.inverted();
            let stage = net.add_stage(
                format!("s{i}"),
                polarity,
                RouteFilter::Any,
                Arbitration::Priority,
            );
            net.connect(prev, stage);
            prev = stage;
        }
        let sink = net.add_sink(PortId(1), sink_mode, polarity.inverted());
        net.connect(prev, sink);
        net.finalize();
        net
    }

    /// Adds a pipeline/router register stage.
    ///
    /// Part of the low-level builder API for custom fabrics (the mesh
    /// baseline is built this way); call [`finalize`](Self::finalize) once
    /// wiring is complete.
    pub fn add_stage(
        &mut self,
        label: String,
        polarity: ClockPolarity,
        filter: RouteFilter,
        arb: Arbitration,
    ) -> ElementId {
        let label = self.labels.intern(label);
        let mut el = Element::new(label, Kind::Stage, polarity);
        el.filter = filter;
        el.arb = arb;
        self.push(el)
    }

    /// Adds a traffic source for `port` (low-level builder API).
    pub fn add_source(
        &mut self,
        port: PortId,
        pattern: TrafficPattern,
        polarity: ClockPolarity,
        seed: u64,
    ) -> ElementId {
        let state = SourceState {
            port,
            pattern,
            rng: StdRng::seed_from_u64(seed ^ (u64::from(port.0) << 32) ^ 0x5EED),
            next_seq: 0,
            sent: 0,
            stalled_edges: 0,
            enabled: true,
            packet_len: 1,
            next_packet: 0,
            packets_sent: 0,
            emitting: None,
        };
        let label = self.labels.intern(format!("src{}", port.0));
        self.push(Element::new(label, Kind::Source(state), polarity))
    }

    /// Adds a sink for `port` (low-level builder API).
    pub fn add_sink(&mut self, port: PortId, mode: SinkMode, polarity: ClockPolarity) -> ElementId {
        let state = SinkState { port, mode };
        let label = self.labels.intern(format!("sink{}", port.0));
        self.push(Element::new(label, Kind::Sink(state), polarity))
    }

    /// Adds a closed-loop tile endpoint (low-level builder API): a
    /// processor issuing requests or a memory answering them.
    pub(crate) fn add_tile(
        &mut self,
        port: PortId,
        role: TileRole,
        polarity: ClockPolarity,
        seed: u64,
    ) -> ElementId {
        let state = TileState {
            port,
            role,
            rng: StdRng::seed_from_u64(seed ^ (u64::from(port.0) << 32) ^ 0x71E5),
            next_seq: 0,
            sent: 0,
            packets_sent: 0,
            stalled_edges: 0,
            enabled: true,
            pending: std::collections::VecDeque::new(),
            outstanding: std::collections::HashMap::new(),
            round_trip: LatencyStats::new(),
            responses: 0,
        };
        let label = self.labels.intern(format!("tile{}", port.0));
        self.push(Element::new(label, Kind::Tile(state), polarity))
    }

    /// Overrides an element's route filter (used by the tree builder to
    /// exclude ring-shortcut destinations from a port's tree-side entry).
    pub(crate) fn set_filter(&mut self, id: ElementId, filter: RouteFilter) {
        self.elements[id.index()].filter = filter;
    }

    fn push(&mut self, el: Element) -> ElementId {
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(el);
        id
    }

    /// Wires `up → down` (low-level builder API).
    pub fn connect(&mut self, up: ElementId, down: ElementId) {
        self.elements[down.index()].upstreams.push(up);
    }

    /// Completes construction: derives downstream lists and checks the
    /// alternating-polarity invariant on every connection.
    ///
    /// # Panics
    ///
    /// Panics if any connection joins two elements of equal polarity — such
    /// a fabric would not be clockable by the IC-NoC scheme.
    pub fn finalize(&mut self) {
        for i in 0..self.elements.len() {
            let ups = self.elements[i].upstreams.clone();
            for u in ups {
                assert_ne!(
                    self.elements[u.index()].polarity,
                    self.elements[i].polarity,
                    "connection {} -> {} joins equal polarities; \
                     the 2-phase protocol requires alternating edges",
                    self.labels.resolve(self.elements[u.index()].label),
                    self.labels.resolve(self.elements[i].label),
                );
                self.elements[u.index()]
                    .downstreams
                    .push(ElementId(i as u32));
            }
        }
        self.finalized = true;
    }

    /// Records the clock-distribution topology (per-element/per-port
    /// domains and the active backend). Tree builders call this; manual
    /// fabrics without it simply have no clock domains to fault.
    pub(crate) fn set_clock_domains(&mut self, topology: ClockTopology) {
        assert_eq!(
            topology.elements.len(),
            self.elements.len(),
            "one clock domain per element"
        );
        self.clock_domains = Some(topology);
    }

    /// Whether this step should take the activity-list path, activating
    /// the shard state on first use. The event kernel is one shard, the
    /// parallel kernel one per worker.
    fn soa_ready(&mut self) -> bool {
        let requested = match self.kernel {
            SimKernel::Dense => return false,
            SimKernel::EventDriven => 1,
            SimKernel::Parallel { workers: 0 } => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            SimKernel::Parallel { workers } => workers as usize,
        };
        if self.par.is_none() {
            // Each clock domain is one root-child subtree, so its element
            // map doubles as the shard hints (whole groups stay on one
            // worker; builders without one get contiguous ranges).
            let hints = self.clock_domains.as_ref().map(|c| c.elements.as_slice());
            let mut par = ParState::build(&self.elements, requested, hints);
            if self.prof.is_some() {
                par.enable_profiling();
            }
            self.par = Some(par);
        }
        true
    }

    /// Runs `ticks` half-cycles on the activity-list kernel. Must only be
    /// called when [`soa_ready`](Self::soa_ready) returned true.
    fn par_step_batch(&mut self, ticks: u64, stop_when_drained: bool) {
        let par = self.par.as_mut().expect("parallel state active");
        if let Some(prof) = &self.prof {
            // Anchor each core's sample timestamps at the profiler's
            // cumulative elapsed time, so epochs of successive batches
            // form one continuous timeline.
            for core in par.cores_mut() {
                if let Some(p) = &mut core.prof {
                    p.begin_batch(prof.elapsed_ns);
                }
            }
        }
        let batch_start = self.prof.as_ref().map(|_| std::time::Instant::now());
        let executed = parallel::par_run(
            parallel::ParRunCtx {
                elements: &mut self.elements,
                scoreboard: &mut self.scoreboard,
                par,
                faults: self.faults.as_deref_mut(),
                sinks: &mut self.sinks,
                num_ports: self.num_ports,
                base_tick: self.tick,
            },
            ticks,
            stop_when_drained,
        );
        self.tick += executed;
        if let (Some(prof), Some(t)) = (&mut self.prof, batch_start) {
            prof.elapsed_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Number of ports.
    #[must_use]
    pub fn num_ports(&self) -> u32 {
        self.num_ports
    }

    /// Number of elements in the graph.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// The element graph, for the kernels' unit tests.
    #[cfg(test)]
    pub(crate) fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The current half-cycle tick.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Enables or disables all traffic sources and processor tiles (used
    /// for draining; memories keep answering outstanding requests).
    pub fn set_sources_enabled(&mut self, enabled: bool) {
        for el in &mut self.elements {
            match &mut el.kind {
                Kind::Source(s) => s.enabled = enabled,
                Kind::Tile(t) => t.enabled = enabled,
                _ => {}
            }
        }
        if let Some(par) = &mut self.par {
            par.repin(&self.elements);
        }
    }

    /// Occupancy of every pipeline/router stage: `(label, holds_flit)`, in
    /// construction order. Useful for waveform-style visualisation of the
    /// Fig. 4 handshake.
    pub fn stage_occupancy(&self) -> impl Iterator<Item = (&str, bool)> {
        let labels = &self.labels;
        self.elements.iter().filter_map(move |e| match e.kind {
            Kind::Stage => Some((labels.resolve(e.label), e.out_flit.is_some())),
            _ => None,
        })
    }

    /// Sets the packet length (flits per packet) of every source. Lengths
    /// above 1 enable wormhole switching: heads lock arbitrated stages,
    /// tails release them.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[track_caller]
    pub fn set_packet_length(&mut self, len: u32) {
        assert!(len > 0, "packets need at least one flit");
        for el in &mut self.elements {
            if let Kind::Source(s) = &mut el.kind {
                s.packet_len = len;
            }
        }
    }

    /// Flits currently held in registers or waiting in sources, plus
    /// responses queued inside memory tiles and retransmissions queued by
    /// the recovery layer.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.elements
            .iter()
            .map(|e| u64::from(e.out_flit.is_some()) + e.queued())
            .sum()
    }

    /// Queues the retransmissions the recovery layer released this tick
    /// at their ports' injectors.
    fn queue_released(elements: &mut [Element], faults: &mut FaultState) {
        for (injector, flit) in faults.released() {
            if let Some(gate) = elements
                .get_mut(injector as usize)
                .and_then(|e| e.faults.as_mut())
            {
                gate.retx.push_back(flit);
            }
        }
    }

    /// Advances the simulation by one half-cycle (one clock edge).
    ///
    /// # Panics
    ///
    /// Panics if the network was constructed manually and never finalized.
    pub fn step(&mut self) {
        assert!(self.finalized, "network must be finalized before stepping");
        if self.soa_ready() {
            self.par_step_batch(1, false);
            return;
        }
        let seq_start = self
            .prof
            .as_ref()
            .map(|_| (std::time::Instant::now(), self.dense_steps));
        if let Some(f) = &mut self.faults {
            // Per-edge recovery machinery: clock-domain state, outage
            // epochs, DFS creep-up, ack timeouts, retransmission
            // scheduling.
            f.begin_step(self.tick);
            Self::queue_released(&mut self.elements, f);
        }
        let parity = if self.tick.is_multiple_of(2) {
            ClockPolarity::Rising
        } else {
            ClockPolarity::Falling
        };
        // The dense loop: the oracle.
        for i in 0..self.elements.len() {
            if self.elements[i].polarity != parity {
                continue;
            }
            self.dense_steps += 1;
            self.dispatch(i);
        }
        if let Some((t0, steps0)) = seq_start {
            let step_ns = t0.elapsed().as_nanos() as u64;
            let steps = self.dense_steps - steps0;
            self.prof
                .as_mut()
                .expect("profiling enabled")
                .record_sequential_tick(self.tick, steps, step_ns);
        }
        self.tick += 1;
    }

    #[inline]
    fn dispatch(&mut self, i: usize) {
        match self.elements[i].kind {
            Kind::Stage => self.step_stage(i),
            Kind::Source(_) => self.step_source(i),
            Kind::Sink(_) => self.step_sink(i),
            Kind::Tile(_) => self.step_tile(i),
        }
    }

    /// Whether any downstream element captured `i`'s presented flit on the
    /// previous tick.
    fn was_drained(&self, i: usize) -> bool {
        self.elements[i].out_flit.is_some()
            && self.elements[i]
                .downstreams
                .iter()
                .any(|d| self.elements[d.index()].accepted_from == Some(ElementId(i as u32)))
    }

    fn step_stage(&mut self, i: usize) {
        let mut faults = self.faults.take();
        let tick = self.tick;
        // A frozen stage (its clock domain is out, or its outage epoch
        // drew a freeze) captures nothing and presents nothing new. A flit
        // drained on the previous edge is still gone (the downstream
        // register already holds it).
        if faults.as_deref().is_some_and(|f| f.ctx().frozen(i, tick)) {
            let drained = self.was_drained(i);
            let el = &mut self.elements[i];
            if drained {
                el.out_flit = None;
            }
            el.accepted_from = None;
            self.faults = faults;
            return;
        }
        let mut drained = self.was_drained(i);
        // A lost `accept`: the stage misses the drain and re-presents a
        // flit the downstream already captured — a duplicate is born.
        if drained {
            if let Some(f) = faults.as_deref_mut() {
                let flit = self.elements[i].out_flit.expect("drained implies held");
                if f.hook(tick, |c, log| c.stuck_valid(i, tick, &flit, log)).0 {
                    drained = false;
                }
            }
        }
        let tracing = !self.sinks.is_empty();
        // Collect capture candidates. A locked stage (a wormhole in
        // progress) only listens to the locked upstream and takes whatever
        // it presents; an unlocked stage arbitrates among upstreams
        // presenting route-opening flits (heads/singles/retries) its
        // filter wants.
        let el = &self.elements[i];
        let n = el.upstreams.len();
        let mut winner: Option<(usize, Flit)> = None;
        let mut contenders = 0u32;
        let mut arbitrating = false;
        if let Some(locked) = el.lock {
            if let Some(flit) = self.elements[locked.index()].out_flit {
                let slot = el
                    .upstreams
                    .iter()
                    .position(|&u| u == locked)
                    .expect("lock always names an upstream");
                winner = Some((slot, flit));
            }
        } else if n > 0 {
            arbitrating = n > 1;
            let start = match el.arb {
                Arbitration::RoundRobin => el.rr_next % n,
                Arbitration::Priority => 0,
            };
            for k in 0..n {
                let slot = (start + k) % n;
                let u = el.upstreams[slot];
                if let Some(flit) = self.elements[u.index()].out_flit {
                    if flit.opens_route() && el.filter.wants(&flit) {
                        if winner.is_none() {
                            winner = Some((slot, flit));
                            if !tracing {
                                break;
                            }
                        }
                        // Tracing only: keep scanning to count the
                        // losers of this arbitration.
                        contenders += 1;
                    }
                }
            }
        }
        let new_empty = el.out_flit.is_none() || drained;
        // A glitched-away `valid`: on an edge where it could capture, the
        // stage sees no offer.
        if winner.is_some() && new_empty {
            if let Some(f) = faults.as_deref_mut() {
                if f.hook(tick, |c, log| c.lost_valid(i, tick, log)).0 {
                    winner = None;
                }
            }
        }

        let el = &mut self.elements[i];
        let held = el.out_flit;
        match winner {
            Some((slot, flit)) if new_empty => {
                let upstream = el.upstreams[slot];
                // The capture crosses a physical link: evaluate injected
                // delay excursions against the analytic setup/hold window
                // at the DFS controller's frequency. Rising-edge captures
                // sit on downstream links, falling-edge captures on
                // upstream ones — the alternating-edge discipline.
                let direction = match el.polarity {
                    ClockPolarity::Rising => Direction::Downstream,
                    ClockPolarity::Falling => Direction::Upstream,
                };
                let (effect, backoff) = match faults.as_deref_mut() {
                    Some(f) => f.hook(tick, |c, log| c.on_capture(i, tick, flit, direction, log)),
                    None => (CaptureEffect::clean(flit), false),
                };
                el.accepted_from = Some(upstream);
                // `None` here means metastability resolved to a lost flit:
                // the upstream sees its drain, but nothing was latched.
                el.out_flit = effect.flit;
                if let (Some(f), Some(latched)) = (faults.as_deref(), effect.flit) {
                    el.upset_at = f.ctx().upset_tick(i, tick, &latched);
                }
                if flit.opens_route() {
                    el.rr_next = (slot + 1) % n.max(1);
                }
                el.lock = if flit.closes_route() {
                    None
                } else {
                    Some(upstream)
                };
                el.gating.record_enabled();
                if tracing {
                    if effect.violation {
                        self.emit(i, TraceEventKind::TimingViolation, flit);
                    }
                    if backoff {
                        self.emit(i, TraceEventKind::FrequencyBackoff, flit);
                    }
                    match effect.flit {
                        Some(latched) => {
                            self.emit(i, TraceEventKind::HopForwarded, latched);
                            if effect.corrupted {
                                self.emit(i, TraceEventKind::Corrupted, latched);
                            }
                            if arbitrating && contenders > 1 {
                                self.emit(i, TraceEventKind::Arbitrated { contenders }, latched);
                            }
                        }
                        None => self.emit(
                            i,
                            TraceEventKind::Dropped {
                                cause: DropCause::Metastability,
                            },
                            flit,
                        ),
                    }
                }
            }
            _ => {
                if drained {
                    el.out_flit = None;
                }
                el.accepted_from = None;
                if tracing && !drained {
                    if let Some(flit) = held {
                        self.emit(i, TraceEventKind::Blocked, flit);
                    }
                }
            }
        }
        // A register upset erases the held flit once its drawn tick
        // arrives.
        if let Some(f) = faults.as_deref_mut() {
            let el = &mut self.elements[i];
            if let Some(flit) = el.out_flit.filter(|_| tick >= el.upset_at) {
                el.out_flit = None;
                f.hook(tick, |_, log| FaultCtx::held_drop(&flit, log));
                if tracing {
                    self.emit(
                        i,
                        TraceEventKind::Dropped {
                            cause: DropCause::FaultUpset,
                        },
                        flit,
                    );
                }
            }
        }
        self.faults = faults;
    }

    fn step_source(&mut self, i: usize) {
        let mut faults = self.faults.take();
        // A source in a clock-dead domain injects nothing and consumes no
        // pattern randomness; queued retransmissions wait for re-sync.
        if faults
            .as_deref()
            .is_some_and(|f| f.ctx().frozen(i, self.tick))
        {
            let drained = self.was_drained(i);
            let el = &mut self.elements[i];
            if drained {
                el.out_flit = None;
            }
            el.accepted_from = None;
            self.faults = faults;
            return;
        }
        let drained = self.was_drained(i);
        let tracing = !self.sinks.is_empty();
        let mut injected: Option<Flit> = None;
        let mut retransmitted: Option<Flit> = None;
        let mut blocked: Option<Flit> = None;
        let num_ports = self.num_ports;
        let tick = self.tick;
        let el = &mut self.elements[i];
        if drained {
            el.out_flit = None;
        }
        el.accepted_from = None;
        let Kind::Source(state) = &mut el.kind else {
            unreachable!("step_source called on non-source")
        };
        // Retransmissions take the idle slot between packets — never
        // mid-worm: a standalone retry captured by a stage locked on this
        // source would release the lock and strand the worm's remaining
        // flits.
        if el.out_flit.is_none() && state.emitting.is_none() {
            if let Some(flit) = el.faults.as_mut().and_then(|f| f.retx.pop_front()) {
                el.out_flit = Some(flit);
                retransmitted = Some(flit);
            }
        }
        if state.enabled || state.emitting.is_some() {
            if el.out_flit.is_none() {
                if let Some(flit) = state.next_flit(tick, num_ports) {
                    el.out_flit = Some(flit);
                    injected = Some(flit);
                }
            } else if retransmitted.is_none() {
                state.stalled_edges += 1;
                blocked = el.out_flit;
            }
        }
        if let Some(f) = faults.as_deref_mut() {
            FaultOp::endpoint(injected, retransmitted, |op| {
                f.apply(tick, op);
            });
        }
        self.faults = faults;
        if tracing {
            if let Some(flit) = injected {
                self.emit(i, TraceEventKind::Injected, flit);
            }
            if let Some(flit) = retransmitted {
                self.emit(i, TraceEventKind::Retransmitted, flit);
            }
            if let Some(flit) = blocked {
                self.emit(i, TraceEventKind::Blocked, flit);
            }
        }
    }

    fn step_sink(&mut self, i: usize) {
        let mut faults = self.faults.take();
        let tick = self.tick;
        // A sink in a clock-dead domain captures nothing: its upstream
        // keeps presenting until the domain re-syncs.
        if faults.as_deref().is_some_and(|f| f.ctx().frozen(i, tick)) {
            self.elements[i].accepted_from = None;
            self.faults = faults;
            return;
        }
        // Scan all upstreams (a port with ring shortcuts has several) and
        // consume the first one offering a flit.
        let (up, offered) = self.first_offer(i);
        let el = &mut self.elements[i];
        let Kind::Sink(state) = &mut el.kind else {
            unreachable!("step_sink called on non-sink")
        };
        // Element-local cycle == tick / 2 (one active edge per cycle).
        let accepts = state.mode.accepts(tick / 2);
        let port = state.port;
        match (accepts, offered) {
            (true, Some(flit)) => {
                el.accepted_from = up;
                // The consumer-side gate: CRC/identity and duplicate
                // checks. Corrupt and duplicate flits are consumed but
                // never reach the scoreboard — the gate NACKs/acks the
                // recovery layer instead.
                let verdict = match faults.as_deref_mut() {
                    Some(f) => {
                        let delivered = &mut el
                            .faults
                            .as_mut()
                            .expect("fault runs give every endpoint a fault slot")
                            .delivered;
                        f.hook(tick, |_, log| {
                            FaultCtx::on_arrival(&flit, port, delivered, log)
                        })
                        .0
                    }
                    None => ArrivalVerdict::Deliver,
                };
                if verdict == ArrivalVerdict::Deliver {
                    self.scoreboard.record_arrival(&flit, tick, port);
                }
                if !self.sinks.is_empty() {
                    self.emit(i, arrival_event(verdict, &flit, port), flit);
                }
            }
            _ => {
                el.accepted_from = None;
            }
        }
        self.faults = faults;
    }

    fn step_tile(&mut self, i: usize) {
        let mut faults = self.faults.take();
        let tick = self.tick;
        // A tile in a clock-dead domain neither captures nor injects.
        if faults.as_deref().is_some_and(|f| f.ctx().frozen(i, tick)) {
            let drained = self.was_drained(i);
            let el = &mut self.elements[i];
            if drained {
                el.out_flit = None;
            }
            el.accepted_from = None;
            self.faults = faults;
            return;
        }
        let tracing = !self.sinks.is_empty();
        let mut injected: Option<Flit> = None;
        let mut retransmitted: Option<Flit> = None;
        let mut blocked: Option<Flit> = None;
        let num_ports = self.num_ports;
        let drained = self.was_drained(i);
        // Input side: tiles always accept (they are their port's sink).
        let (up, offered) = self.first_offer(i);

        let el = &mut self.elements[i];
        if drained {
            el.out_flit = None;
        }
        let out_empty = el.out_flit.is_none();
        let Kind::Tile(state) = &mut el.kind else {
            unreachable!("step_tile called on non-tile")
        };
        let port = state.port;

        // Consume whatever arrived, but only process flits the
        // consumer-side gate clears: corrupt arrivals are NACKed (the
        // recovery layer retransmits) and duplicates discarded, so a
        // memory never double-serves and a processor never double-counts.
        let mut arrived = None;
        if let Some(flit) = offered {
            el.accepted_from = up;
            arrived = Some(flit);
        } else {
            el.accepted_from = None;
        }
        let offered_flit = arrived;
        let verdict = match (faults.as_deref_mut(), arrived) {
            (Some(f), Some(flit)) => {
                let delivered = &mut el
                    .faults
                    .as_mut()
                    .expect("fault runs give every endpoint a fault slot")
                    .delivered;
                f.hook(tick, |_, log| {
                    FaultCtx::on_arrival(&flit, port, delivered, log)
                })
                .0
            }
            _ => ArrivalVerdict::Deliver,
        };
        if verdict != ArrivalVerdict::Deliver {
            arrived = None;
        }
        if let Some(flit) = arrived {
            state.consume(&flit, tick);
        }

        // Output side: a pending retransmission takes the idle slot first
        // (tiles only ever emit standalone flits, so any idle edge works).
        if out_empty {
            if let Some(flit) = el.faults.as_mut().and_then(|f| f.retx.pop_front()) {
                el.out_flit = Some(flit);
                retransmitted = Some(flit);
            }
        }

        // Produce at most one flit.
        if out_empty && retransmitted.is_none() {
            if let Some(flit) = state.next_flit(tick, num_ports) {
                el.out_flit = Some(flit);
                injected = Some(flit);
            }
        } else if !out_empty && state.enabled {
            state.stalled_edges += 1;
            blocked = el.out_flit;
        }
        // A tile consumes flits itself; record them like a sink does.
        if let Some(flit) = arrived {
            self.scoreboard.record_arrival(&flit, tick, port);
        }
        if let Some(f) = faults.as_deref_mut() {
            FaultOp::endpoint(injected, retransmitted, |op| {
                f.apply(tick, op);
            });
        }
        self.faults = faults;
        if tracing {
            if let Some(flit) = offered_flit {
                self.emit(i, arrival_event(verdict, &flit, port), flit);
            }
            if let Some(flit) = injected {
                self.emit(i, TraceEventKind::Injected, flit);
            }
            if let Some(flit) = retransmitted {
                self.emit(i, TraceEventKind::Retransmitted, flit);
            }
            if let Some(flit) = blocked {
                self.emit(i, TraceEventKind::Blocked, flit);
            }
        }
    }

    /// Runs `cycles` full clock cycles (two ticks each) and returns the
    /// cumulative report. The tick counter saturates: a run that would
    /// pass `u64::MAX` stops there.
    pub fn run_cycles(&mut self, cycles: u64) -> SimReport {
        self.advance(self.ticks_left(cycles));
        self.report()
    }

    /// The one run recipe every simulate-to-verdict entry point shares:
    /// runs until `cycles` cycles have elapsed in total (ticks already
    /// stepped, e.g. a VCD warm-up, count toward them), then drains with
    /// [`drain_or_diagnose`](Self::drain_or_diagnose). The drain budget
    /// is `cycles.max(1_000)`, four times that with a fault plan
    /// attached: recovery chains (timeout plus bounded backoff per retry)
    /// outlive a traffic-only drain by a wide margin.
    ///
    /// # Errors
    ///
    /// Returns the [`DrainTimeout`] if the network did not drain within
    /// the budget; the run's statistics stay readable via
    /// [`report`](Self::report) either way.
    pub fn run_and_drain(&mut self, cycles: u64) -> Result<(), DrainTimeout> {
        self.advance(self.ticks_left(cycles.saturating_sub(self.tick / 2)));
        let recovery = if self.faults_enabled() { 4 } else { 1 };
        self.drain_or_diagnose(cycles.max(1_000).saturating_mul(recovery))
    }

    /// Steps `ticks` half-cycle ticks.
    fn advance(&mut self, ticks: u64) {
        if ticks > 0 && self.soa_ready() {
            // One thread scope for the whole batch: spawn cost amortises
            // over all the ticks.
            self.par_step_batch(ticks, false);
        } else {
            for _ in 0..ticks {
                self.step();
            }
        }
    }

    /// The ticks in `cycles` cycles, capped at those left before the
    /// tick counter would overflow.
    fn ticks_left(&self, cycles: u64) -> u64 {
        cycles.saturating_mul(2).min(u64::MAX - self.tick)
    }

    /// Whether nothing is left in flight and the recovery layer (if any)
    /// has no un-acknowledged flits or queued retransmissions.
    fn drained_idle(&self) -> bool {
        self.in_flight() == 0 && self.faults.as_ref().is_none_or(|f| !f.recovery_busy())
    }

    /// Stops injection and steps until the network is empty or
    /// `max_cycles` elapse. Returns `true` if fully drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.drain_or_diagnose(max_cycles).is_ok()
    }

    /// Like [`drain`](Self::drain), but a timeout returns a
    /// [`DrainTimeout`] carrying the held-flit locations from
    /// [`diagnose_stall`](Self::diagnose_stall) — so a failed soak names
    /// the stuck elements instead of a bare `false`.
    pub fn drain_or_diagnose(&mut self, max_cycles: u64) -> Result<(), DrainTimeout> {
        self.set_sources_enabled(false);
        if self.drained_idle() {
            return Ok(());
        }
        if self.soa_ready() {
            // The batch evaluates the drained condition between ticks —
            // the same place this loop checks — so tick counts match the
            // dense loop exactly.
            self.par_step_batch(self.ticks_left(max_cycles), true);
        } else {
            for _ in 0..self.ticks_left(max_cycles) {
                if self.drained_idle() {
                    return Ok(());
                }
                self.step();
            }
        }
        if self.drained_idle() {
            return Ok(());
        }
        Err(DrainTimeout {
            cycles: max_cycles,
            in_flight: self.in_flight(),
            pending_recovery: self.faults.as_ref().map_or(0, |f| f.pending_hazards()),
            holders: self.diagnose_stall(),
        })
    }

    /// The first upstream of `i` currently presenting a flit, if any.
    fn first_offer(&self, i: usize) -> (Option<ElementId>, Option<Flit>) {
        for &u in &self.elements[i].upstreams {
            if let Some(flit) = self.elements[u.index()].out_flit {
                return (Some(u), Some(flit));
            }
        }
        (None, None)
    }

    /// Active edges a fixed-polarity element has seen after `self.tick`
    /// half-cycles: rising edges land on even ticks, falling on odd ones.
    fn edges_elapsed(&self, polarity: ClockPolarity) -> u64 {
        match polarity {
            ClockPolarity::Rising => self.tick.div_ceil(2),
            ClockPolarity::Falling => self.tick / 2,
        }
    }

    /// A stage's complete gating statistics. Only *enabled* edges (flit
    /// captures) are recorded eagerly; every other active edge held the
    /// register, so the gated count is derived from elapsed time. This
    /// lets the activity list leave idle stages entirely unvisited —
    /// mirroring the gated clock, which also costs nothing when idle —
    /// while still reporting numbers identical to the dense oracle.
    fn stage_gating(&self, el: &Element) -> ClockGatingStats {
        let enabled = el.gating.enabled_edges();
        let gated = self.edges_elapsed(el.polarity) - enabled;
        ClockGatingStats::from_counts(enabled, gated)
    }

    /// Aggregated clock-gating statistics over the stages whose label
    /// starts with `prefix` — e.g. `"r0."` for the root router, `"ring"`
    /// for the ring synchronisers, `"l"` for link pipeline stages.
    #[must_use]
    pub fn gating_for_label_prefix(&self, prefix: &str) -> ClockGatingStats {
        let mut acc = ClockGatingStats::new();
        for el in &self.elements {
            if matches!(el.kind, Kind::Stage) && self.labels.resolve(el.label).starts_with(prefix) {
                acc.merge(&self.stage_gating(el));
            }
        }
        acc
    }

    /// Diagnoses why the network will not drain: which elements still hold
    /// flits, and what they hold. Intended for debugging after
    /// [`drain`](Self::drain) returns `false` (a correct IC-NoC never
    /// deadlocks, so a stuck network means a mis-built fabric — e.g. a
    /// route filter that no destination satisfies).
    #[must_use]
    pub fn diagnose_stall(&self) -> Vec<String> {
        // Labels resolve lazily through the interning table: only the
        // handful of holding elements ever materialise a line, and the
        // label text itself is borrowed, never cloned per element.
        //
        // A holder inside a quarantined clock domain is not the cause of
        // the stall — its clock is: name the outage on the holder line so
        // a drain timeout points at the root cause, not the victim.
        let quarantined = self
            .faults
            .as_ref()
            .map(|f| f.quarantined_domains())
            .unwrap_or_default();
        let domain_of = |idx: usize| -> Option<u32> {
            let d = *self.clock_domains.as_ref()?.elements.get(idx)?;
            (d != u32::MAX).then_some(d)
        };
        let mut lines: Vec<String> = self
            .elements
            .iter()
            .enumerate()
            .filter_map(|(idx, e)| {
                e.out_flit.map(|flit| {
                    let line = format!(
                        "{} holds {} ({:?})",
                        self.labels.resolve(e.label),
                        flit,
                        flit.kind
                    );
                    match domain_of(idx) {
                        Some(d) if quarantined.contains(&d) => {
                            format!("{line} — clock domain {d} quarantined (clock outage)")
                        }
                        _ => line,
                    }
                })
            })
            .collect();
        for e in &self.elements {
            if let Kind::Tile(t) = &e.kind {
                if !t.pending.is_empty() {
                    lines.push(format!(
                        "{} queues {} pending response(s)",
                        self.labels.resolve(e.label),
                        t.pending.len()
                    ));
                }
            }
        }
        let mut queued: Vec<(u32, usize)> = self
            .elements
            .iter()
            .filter_map(|e| {
                let len = e.faults.as_ref().map_or(0, |f| f.retx.len());
                match &e.kind {
                    Kind::Source(s) if len > 0 => Some((s.port.0, len)),
                    Kind::Tile(t) if len > 0 => Some((t.port.0, len)),
                    _ => None,
                }
            })
            .collect();
        queued.sort_unstable();
        for (port, len) in queued {
            lines.push(format!("p{port} retransmit queue holds {len} flit(s)"));
        }
        if let Some(f) = &self.faults {
            lines.extend(f.stall_lines());
        }
        lines
    }

    /// Snapshot of the statistics so far.
    #[must_use]
    pub fn report(&self) -> SimReport {
        let mut sent = 0;
        let mut packets_sent = 0;
        let mut stalls = 0;
        let mut round_trip = LatencyStats::new();
        let mut responses = 0;
        let mut gating = ClockGatingStats::new();
        for el in &self.elements {
            match &el.kind {
                Kind::Source(s) => {
                    sent += s.sent;
                    packets_sent += s.packets_sent;
                    stalls += s.stalled_edges;
                }
                Kind::Stage => gating.merge(&self.stage_gating(el)),
                Kind::Sink(_) => {}
                Kind::Tile(t) => {
                    sent += t.sent;
                    packets_sent += t.packets_sent;
                    stalls += t.stalled_edges;
                    round_trip.merge(&t.round_trip);
                    responses += t.responses;
                }
            }
        }
        let observability = self
            .sinks
            .counters
            .as_ref()
            .map(|c| c.report(self.tick / 2, &self.element_labels()));
        // `enable_profiling` requires tick 0, so every tick is a profiled
        // barrier epoch.
        let perf = self.prof.as_ref().map(|prof| match &self.par {
            Some(par) => PerfReport {
                kernel: self.kernel.label().to_owned(),
                workers: par.workers() as u32,
                epochs: self.tick,
                fallback: None,
                shards: par
                    .shard_elements()
                    .iter()
                    .zip(par.cores())
                    .zip(par.wakes_received())
                    .enumerate()
                    .map(|(w, ((&elements, core), &wakes_received))| ShardCounters {
                        worker: w as u32,
                        elements,
                        steps: core.steps,
                        wakes_sent: core.wakes_sent,
                        wakes_received,
                    })
                    .collect(),
                timed_wakes: par.timed_wakes(),
                wall: Some(PerfWall {
                    workers: par
                        .cores()
                        .iter()
                        .enumerate()
                        .map(|(w, core)| {
                            core.prof
                                .as_ref()
                                .expect("profiling enabled on parallel cores")
                                .snapshot(w as u32)
                        })
                        .collect(),
                }),
            },
            // The dense kernel: one logical worker covering the whole
            // graph.
            None => PerfReport {
                kernel: self.kernel.label().to_owned(),
                workers: 1,
                epochs: self.tick,
                fallback: None,
                shards: vec![ShardCounters {
                    worker: 0,
                    elements: self.elements.len() as u64,
                    steps: self.dense_steps,
                    wakes_sent: 0,
                    wakes_received: 0,
                }],
                timed_wakes: TimedWakes::default(),
                wall: Some(PerfWall {
                    workers: vec![prof.seq.snapshot(0)],
                }),
            },
        });
        SimReport {
            schema_version: SimReport::SCHEMA_VERSION,
            cycles: self.tick / 2,
            sent,
            delivered: self.scoreboard.delivered,
            in_flight: self.in_flight(),
            duplicated: self.scoreboard.duplicated,
            reordered: self.scoreboard.reordered,
            misrouted: self.scoreboard.misrouted,
            latency: self.scoreboard.latency,
            histogram: self.scoreboard.histogram.clone(),
            gating,
            source_stall_edges: stalls,
            packets_sent,
            packets_delivered: self.scoreboard.packets_delivered,
            interleaved: self.scoreboard.interleaved,
            round_trip,
            responses,
            observability,
            integrity_failures: self.scoreboard.integrity_failures,
            recovery: self.faults.as_ref().map(|f| f.report()),
            perf,
        }
    }

    /// Latency statistics so far (shortcut into [`report`](Self::report)).
    #[must_use]
    pub fn latency(&self) -> LatencyStats {
        self.scoreboard.latency
    }
}

/// Why a [`Network::drain_or_diagnose`] call timed out: how much is still
/// in flight, how much recovery work is unresolved, and which elements
/// hold what (the [`Network::diagnose_stall`] lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainTimeout {
    /// The cycle budget that elapsed.
    pub cycles: u64,
    /// Flits still held in registers and queues.
    pub in_flight: u64,
    /// Fault hazards still charged to un-acknowledged flits.
    pub pending_recovery: u64,
    /// One line per holding element / pending queue.
    pub holders: Vec<String>,
}

impl core::fmt::Display for DrainTimeout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "network failed to drain within {} cycles: {} in flight, {} unresolved fault hazard(s)",
            self.cycles, self.in_flight, self.pending_recovery
        )?;
        for line in &self.holders {
            write!(f, "\n  {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DrainTimeout {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_pipeline_reaches_full_throughput() {
        let mut net = Network::pipeline(8, TrafficPattern::saturate(), SinkMode::AlwaysAccept, 1);
        let report = net.run_cycles(400);
        assert!(report.is_correct(), "{report}");
        // One flit per cycle minus pipeline fill.
        assert!(
            report.throughput_per_cycle() > 0.95,
            "throughput {}",
            report.throughput_per_cycle()
        );
    }

    #[test]
    fn pipeline_forward_latency_is_half_cycle_per_stage() {
        // A lone flit crosses each stage in half a cycle (Fig. 4).
        for stages in [1usize, 2, 4, 8, 16] {
            let mut net = Network::pipeline(
                stages,
                TrafficPattern::Bursty {
                    burst: 1,
                    idle: 1000,
                },
                SinkMode::AlwaysAccept,
                3,
            );
            net.run_cycles(100);
            let report = net.report();
            assert_eq!(report.delivered, 1, "stages={stages}");
            // Latency: one half-cycle per stage plus the sink's capture.
            let expected = (stages as f64 + 1.0) / 2.0;
            assert!(
                (report.latency.mean_cycles() - expected).abs() <= 0.5,
                "stages={stages}: got {} expected ~{expected}",
                report.latency.mean_cycles()
            );
        }
    }

    #[test]
    fn stall_and_resume_lose_nothing() {
        // The Fig. 4 scenario: full-speed stream, congestion appears, the
        // pipeline stops "in an instance", then resumes without loss.
        let mut net = Network::pipeline(
            6,
            TrafficPattern::saturate(),
            SinkMode::StallDuring { from: 50, to: 150 },
            7,
        );
        net.run_cycles(300);
        assert!(net.drain(100), "pipeline must drain after the stall");
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert_eq!(report.lost(), 0);
        // The stall produced back pressure at the source.
        assert!(report.source_stall_edges > 0);
    }

    #[test]
    fn throttled_sink_limits_throughput() {
        let mut net = Network::pipeline(
            4,
            TrafficPattern::saturate(),
            SinkMode::Throttle { period: 4 },
            9,
        );
        let report = net.run_cycles(400);
        assert!(
            (report.throughput_per_cycle() - 0.25).abs() < 0.05,
            "{report}"
        );
        assert_eq!(report.duplicated, 0);
        assert_eq!(report.reordered, 0);
    }

    #[test]
    fn idle_pipeline_is_fully_clock_gated() {
        let mut net = Network::pipeline(8, TrafficPattern::Silent, SinkMode::AlwaysAccept, 5);
        let report = net.run_cycles(100);
        assert_eq!(report.sent, 0);
        assert_eq!(report.gating.enabled_edges(), 0);
        assert!(report.gating.gated_fraction() > 0.99);
    }

    #[test]
    fn bursty_traffic_gates_in_proportion_to_idleness() {
        let mut net = Network::pipeline(
            8,
            TrafficPattern::Bursty {
                burst: 10,
                idle: 90,
            },
            SinkMode::AlwaysAccept,
            5,
        );
        let report = net.run_cycles(2000);
        assert!(report.is_correct());
        // ~10% duty => ~90% gated (within fill/drain slop).
        assert!(
            (report.gating.gated_fraction() - 0.9).abs() < 0.05,
            "gated {}",
            report.gating.gated_fraction()
        );
    }

    #[test]
    fn alternating_polarity_is_enforced() {
        let mut net = Network::new(2);
        let a = net.add_stage(
            "a".into(),
            ClockPolarity::Rising,
            RouteFilter::Any,
            Arbitration::Priority,
        );
        let b = net.add_stage(
            "b".into(),
            ClockPolarity::Rising,
            RouteFilter::Any,
            Arbitration::Priority,
        );
        net.connect(a, b);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.finalize()));
        assert!(
            result.is_err(),
            "equal-polarity connection must be rejected"
        );
    }

    #[test]
    fn stall_diagnosis_names_the_blocked_stages() {
        // A sink that never accepts wedges the pipeline full; the
        // diagnosis lists every holding element.
        let mut net = Network::pipeline(
            4,
            TrafficPattern::saturate(),
            SinkMode::StallDuring {
                from: 0,
                to: u64::MAX,
            },
            1,
        );
        net.run_cycles(50);
        assert!(!net.drain(20), "a permanently wedged pipeline cannot drain");
        let diagnosis = net.diagnose_stall();
        assert!(diagnosis.len() >= 4, "{diagnosis:?}");
        assert!(diagnosis.iter().any(|d| d.contains("s0")), "{diagnosis:?}");
        assert!(
            diagnosis.iter().any(|d| d.contains("Single")),
            "{diagnosis:?}"
        );
        // A drained network diagnoses clean.
        let mut ok = Network::pipeline(4, TrafficPattern::saturate(), SinkMode::AlwaysAccept, 1);
        ok.run_cycles(50);
        assert!(ok.drain(50));
        assert!(ok.diagnose_stall().is_empty());
    }

    #[test]
    fn run_and_drain_counts_earlier_ticks_and_sizes_its_budget() {
        for faults in [false, true] {
            let mut net = Network::pipeline(
                4,
                TrafficPattern::saturate(),
                SinkMode::StallDuring {
                    from: 0,
                    to: u64::MAX,
                },
                1,
            );
            if faults {
                net.enable_faults(FaultPlan::new(1));
            }
            for _ in 0..20 {
                net.step();
            }
            let timeout = net
                .run_and_drain(50)
                .expect_err("a wedged pipeline cannot drain");
            let budget = if faults { 4_000 } else { 1_000 };
            assert_eq!(timeout.cycles, budget);
            // The 10 stepped cycles were part of the 50.
            assert_eq!(net.tick(), 2 * (50 + budget));
        }
    }

    #[test]
    fn cycle_counts_saturate_at_the_tick_limit() {
        for kernel in [SimKernel::Dense, SimKernel::EventDriven] {
            // A drain budget whose tick count overflows still drains.
            let mut net =
                Network::pipeline(4, TrafficPattern::saturate(), SinkMode::AlwaysAccept, 1);
            net.set_kernel(kernel);
            net.run_cycles(50);
            assert!(net.drain(MAX_CYCLES + 1), "{kernel:?}");
            // A run past the last tick stops there. One stage: summed
            // gating counts of several would overflow first.
            let mut idle = Network::pipeline(1, TrafficPattern::Silent, SinkMode::AlwaysAccept, 1);
            idle.set_kernel(kernel);
            idle.tick = u64::MAX - 8;
            assert_eq!(idle.run_cycles(u64::MAX).cycles, MAX_CYCLES, "{kernel:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = Network::pipeline(
                6,
                TrafficPattern::uniform(0.3),
                SinkMode::AlwaysAccept,
                seed,
            );
            net.run_cycles(500)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        let c = run(43);
        assert_ne!(a.sent, c.sent);
    }
}

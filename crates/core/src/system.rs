//! System construction and the top-level IC-NoC object.

use crate::{SystemError, TimingVerification};
use icnoc_clock::{ClockBackend, ClockDistribution, ClockScheme};
use icnoc_sim::{
    FaultPlan, Network, SimKernel, SimReport, TileTraffic, TrafficPattern, TreeNetworkConfig,
};
use icnoc_timing::{
    Direction, FlipFlopTiming, LinkTiming, PipelineTimingModel, ProcessVariation, WireModel,
};
use icnoc_topology::{AreaModel, Floorplan, LinkGeometry, TreeKind, TreeTopology};
use icnoc_units::{Gigahertz, Millimeters, Picoseconds, SquareMillimeters};
use serde::{Deserialize, Serialize};

/// The largest die edge [`SystemBuilder::build`] accepts (mm): the width
/// of a 300 mm wafer. The paper's demonstrator is 10 mm; past a wafer the
/// floorplan's link stages outgrow memory.
const MAX_DIE_MM: f64 = 300.0;

/// The largest port count [`SystemBuilder::build`] accepts. The paper
/// stops at 64; a 65,536-port system still builds and simulates in under
/// 1 GiB, while four times that aborts on allocation under a 2 GB
/// address-space cap.
const MAX_PORTS: usize = 65_536;

/// Builder for an IC-NoC [`System`].
///
/// Defaults to the paper's 90 nm technology models; see
/// [`SystemBuilder::demonstrator`] for the complete Section 6
/// configuration.
///
/// ```
/// use icnoc::SystemBuilder;
/// use icnoc_topology::TreeKind;
/// use icnoc_units::{Gigahertz, Millimeters};
///
/// let system = SystemBuilder::new(TreeKind::Quad, 64)
///     .die(Millimeters::new(10.0), Millimeters::new(10.0))
///     .frequency(Gigahertz::new(1.2))
///     .build()?;
/// assert_eq!(system.tree().router_count(), 21);
/// # Ok::<(), icnoc::SystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    kind: TreeKind,
    ports: usize,
    die_width: Millimeters,
    die_height: Millimeters,
    width_bits: u32,
    frequency: Gigahertz,
    flip_flop: FlipFlopTiming,
    wire: WireModel,
    clock: ClockBackend,
}

impl SystemBuilder {
    /// Starts a builder for a `kind` tree with `ports` network ports, on a
    /// 10 mm × 10 mm die with a 32-bit data path at 1 GHz.
    #[must_use]
    pub fn new(kind: TreeKind, ports: usize) -> Self {
        Self {
            kind,
            ports,
            die_width: Millimeters::new(10.0),
            die_height: Millimeters::new(10.0),
            width_bits: 32,
            frequency: Gigahertz::new(1.0),
            flip_flop: FlipFlopTiming::nominal_90nm(),
            wire: WireModel::nominal_90nm(),
            clock: ClockBackend::Forwarded,
        }
    }

    /// The paper's Section 6 demonstrator: a 64-port binary tree (3×3
    /// routers) on a 10 mm × 10 mm chip, 32-bit data path, 1 GHz, with
    /// 1.25 mm link segments near the root.
    #[must_use]
    pub fn demonstrator() -> Self {
        Self::new(TreeKind::Binary, 64)
    }

    /// Starts a builder from a plain-data [`SystemConfig`] grid point:
    /// the corner's flip-flop library is applied, the die is square.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] for an unknown corner label.
    pub fn from_config(config: &SystemConfig) -> Result<Self, SystemError> {
        let corner = config.resolve_corner()?;
        let clock = config.resolve_clock()?;
        Ok(Self::new(config.kind, config.ports)
            .die(
                Millimeters::new(config.die_mm),
                Millimeters::new(config.die_mm),
            )
            .width_bits(config.width_bits)
            .frequency(Gigahertz::new(config.freq_ghz))
            .flip_flop(corner.flip_flop())
            .clock_backend(clock))
    }

    /// Sets the die dimensions.
    #[must_use]
    pub fn die(mut self, width: Millimeters, height: Millimeters) -> Self {
        self.die_width = width;
        self.die_height = height;
        self
    }

    /// Sets the data-path width in bits.
    #[must_use]
    pub fn width_bits(mut self, bits: u32) -> Self {
        self.width_bits = bits;
        self
    }

    /// Sets the target clock frequency.
    #[must_use]
    pub fn frequency(mut self, f: Gigahertz) -> Self {
        self.frequency = f;
        self
    }

    /// Overrides the register timing library.
    #[must_use]
    pub fn flip_flop(mut self, ff: FlipFlopTiming) -> Self {
        self.flip_flop = ff;
        self
    }

    /// Overrides the wire model.
    #[must_use]
    pub fn wire(mut self, wire: WireModel) -> Self {
        self.wire = wire;
        self
    }

    /// Selects the clock-distribution backend (default: the paper's
    /// forwarded clock).
    #[must_use]
    pub fn clock_backend(mut self, backend: ClockBackend) -> Self {
        self.clock = backend;
        self
    }

    /// Builds the system: constructs the topology, floorplans it, derives
    /// the segment cap from the timing model, and distributes the clock.
    ///
    /// # Errors
    ///
    /// * [`SystemError::Topology`] if `ports` does not fit the tree kind;
    /// * [`SystemError::FrequencyUnreachable`] if no pipeline segment can
    ///   reach the requested clock;
    /// * [`SystemError::RouterTooSlow`] if the routers cannot reach it;
    /// * [`SystemError::InvalidConfig`] for die dimensions that are not
    ///   positive or exceed 300 mm (a wafer), more than 65,536 ports, a
    ///   non-positive clock, or a zero-width data path.
    pub fn build(self) -> Result<System, SystemError> {
        let edges = [self.die_width.value(), self.die_height.value()];
        if edges.iter().any(|&e| e <= 0.0) {
            return Err(SystemError::InvalidConfig(
                "die dimensions must be positive".into(),
            ));
        }
        if edges.iter().any(|&e| e > MAX_DIE_MM) {
            return Err(SystemError::InvalidConfig(format!(
                "die dimensions must be at most {MAX_DIE_MM} mm, the width of a wafer"
            )));
        }
        if self.ports > MAX_PORTS {
            return Err(SystemError::InvalidConfig(format!(
                "port count must be at most {MAX_PORTS}, got {}",
                self.ports
            )));
        }
        if self.width_bits == 0 {
            return Err(SystemError::InvalidConfig(
                "data path width must be positive".into(),
            ));
        }
        if self.frequency.value() <= 0.0 {
            return Err(SystemError::InvalidConfig(
                "clock frequency must be positive".into(),
            ));
        }
        let tree = TreeTopology::new(self.kind, self.ports)?;
        let router_max = tree.router_class().max_frequency();
        if self.frequency > router_max {
            return Err(SystemError::RouterTooSlow {
                requested: self.frequency,
                router_max,
            });
        }
        let pipeline = PipelineTimingModel::new(
            self.flip_flop,
            self.wire,
            PipelineTimingModel::nominal_90nm().flow_control_logic(),
            PipelineTimingModel::nominal_90nm().stage_overhead()
                - PipelineTimingModel::nominal_90nm().flow_control_logic(),
        );
        let max_segment = pipeline
            .max_length(self.frequency)
            .filter(|l| l.value() > 0.0)
            .ok_or(SystemError::FrequencyUnreachable {
                requested: self.frequency,
                max: pipeline.max_frequency(Millimeters::ZERO),
            })?;
        let plan = Floorplan::h_tree(&tree, self.die_width, self.die_height);
        let clocks = ClockScheme::build(self.clock, &tree, &plan, self.wire, self.frequency);
        Ok(System {
            tree,
            plan,
            clocks,
            pipeline,
            frequency: self.frequency,
            width_bits: self.width_bits,
            max_segment,
        })
    }
}

/// A plain-data system description — one grid point of a design-space
/// sweep, or a saved configuration — that [`SystemBuilder::from_config`]
/// turns into a builder.
///
/// Unlike [`SystemBuilder`] it is pure data (no model objects), so it can
/// be hashed into a stable cache key and round-tripped through job specs.
/// The register library and wire corner are referenced by the *label* of a
/// [`icnoc_timing::VariationCorner`] rather than embedded, keeping the
/// canonical form short and exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Tree kind.
    pub kind: TreeKind,
    /// Network port count.
    pub ports: usize,
    /// Die edge in mm (square die).
    pub die_mm: f64,
    /// Data-path width in bits.
    pub width_bits: u32,
    /// Target clock frequency in GHz.
    pub freq_ghz: f64,
    /// Label of a standard corner
    /// ([`ProcessVariation::standard_corners`]) selecting the flip-flop
    /// library scale and the wire variation used for verification.
    pub corner: String,
    /// Label of the [`ClockBackend`] distributing the clock
    /// (`"forwarded"` or `"redundant"`).
    pub clock: String,
}

impl SystemConfig {
    /// The paper's Section 6 demonstrator operating point at the nominal
    /// corner.
    #[must_use]
    pub fn demonstrator() -> Self {
        Self {
            kind: TreeKind::Binary,
            ports: 64,
            die_mm: 10.0,
            width_bits: 32,
            freq_ghz: 1.0,
            corner: "nominal".to_owned(),
            clock: ClockBackend::Forwarded.label().to_owned(),
        }
    }

    /// The corner record named by [`corner`](Self::corner).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] for an unknown label.
    pub fn resolve_corner(&self) -> Result<icnoc_timing::VariationCorner, SystemError> {
        ProcessVariation::corner(&self.corner).ok_or_else(|| {
            SystemError::InvalidConfig(format!(
                "unknown corner {:?}; known: {}",
                self.corner,
                ProcessVariation::standard_corners()
                    .iter()
                    .map(|c| c.label)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// The clock backend named by [`clock`](Self::clock).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] for an unknown label.
    pub fn resolve_clock(&self) -> Result<ClockBackend, SystemError> {
        ClockBackend::parse(&self.clock).map_err(SystemError::InvalidConfig)
    }

    /// Builds the system this configuration describes (the corner's
    /// register library is applied; its wire variation is for the caller's
    /// verification step).
    ///
    /// # Errors
    ///
    /// Propagates [`SystemBuilder::build`] errors, plus
    /// [`SystemError::InvalidConfig`] for an unknown corner label.
    pub fn build(&self) -> Result<System, SystemError> {
        SystemBuilder::from_config(self)?.build()
    }
}

impl core::fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} tree, {} ports, {} mm die, {} bits, {} GHz, {} corner, {} clock",
            self.kind,
            self.ports,
            self.die_mm,
            self.width_bits,
            self.freq_ghz,
            self.corner,
            self.clock
        )
    }
}

/// A fully constructed IC-NoC: topology, floorplan, clock distribution and
/// timing models, ready for verification and simulation.
#[derive(Debug, Clone)]
pub struct System {
    tree: TreeTopology,
    plan: Floorplan,
    clocks: ClockScheme,
    pipeline: PipelineTimingModel,
    frequency: Gigahertz,
    width_bits: u32,
    max_segment: Millimeters,
}

impl System {
    /// The network topology.
    #[must_use]
    pub fn tree(&self) -> &TreeTopology {
        &self.tree
    }

    /// The H-tree floorplan.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.plan
    }

    /// The clock distribution (whatever backend the system was built
    /// with — query [`ClockDistribution::backend`] to find out which).
    #[must_use]
    pub fn clocks(&self) -> &ClockScheme {
        &self.clocks
    }

    /// The clock-distribution backend in force.
    #[must_use]
    pub fn clock_backend(&self) -> ClockBackend {
        self.clocks.backend()
    }

    /// The pipeline timing model in force.
    #[must_use]
    pub fn pipeline_model(&self) -> &PipelineTimingModel {
        &self.pipeline
    }

    /// The operating clock frequency.
    #[must_use]
    pub fn frequency(&self) -> Gigahertz {
        self.frequency
    }

    /// The data-path width in bits.
    #[must_use]
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// The maximum pipeline-segment length at the operating frequency
    /// (links longer than this get intermediate stages).
    #[must_use]
    pub fn max_segment(&self) -> Millimeters {
        self.max_segment
    }

    /// Per-link pipeline geometry at the operating segment cap.
    #[must_use]
    pub fn link_geometries(&self) -> Vec<LinkGeometry> {
        self.plan.pipelined_links(&self.tree, self.max_segment)
    }

    /// Section 6 area accounting for this system.
    #[must_use]
    pub fn area(&self) -> icnoc_topology::AreaBreakdown {
        AreaModel::nominal_90nm(self.width_bits).total(&self.tree, &self.plan, self.max_segment)
    }

    /// Every physical register-to-register hop as a
    /// `(direction, data_delay, clock_delay)` triple — the input to the
    /// timing solvers. Each link segment carries transfers in both
    /// directions (handshake signalling is bidirectional regardless of the
    /// data's direction, Section 4).
    #[must_use]
    pub fn segment_delays(&self) -> Vec<(Direction, Picoseconds, Picoseconds)> {
        let wire = self.pipeline.wire();
        let mut out = Vec::new();
        for geo in self.link_geometries() {
            let d = wire.delay(geo.segment_length());
            for _ in 0..geo.segment_count {
                out.push((Direction::Downstream, d, d));
                out.push((Direction::Upstream, d, d));
            }
        }
        out
    }

    /// Verifies every segment at nominal silicon.
    #[must_use]
    pub fn verify_nominal(&self) -> TimingVerification {
        self.verify_under(ProcessVariation::none(), 3.0)
    }

    /// Verifies every segment at the worst `k_sigma` corners of
    /// `variation`.
    #[must_use]
    pub fn verify_under(&self, variation: ProcessVariation, k_sigma: f64) -> TimingVerification {
        TimingVerification::run(self, variation, k_sigma)
    }

    /// The fastest clock at which every segment (link timing **and**
    /// forward path) meets timing under worst-case `k_sigma` variation —
    /// the graceful-degradation curve of experiment E10.
    #[must_use]
    pub fn max_safe_frequency(&self, variation: ProcessVariation, k_sigma: f64) -> Gigahertz {
        let hi = variation.worst_case_factor(k_sigma);
        let ff = self.pipeline.flip_flop();
        let mut required = Picoseconds::ZERO;
        // Link-timing corners.
        let lo = variation.best_case_factor(k_sigma);
        for (dir, d, c) in self.segment_delays() {
            let (delta_max, delta_min) = match dir {
                Direction::Downstream => (d * hi - c * lo, d * lo - c * hi),
                Direction::Upstream => ((d + c) * hi, (d + c) * lo),
            };
            for delta in [delta_max, delta_min] {
                required = required.max(LinkTiming::required_half_period(ff, delta));
            }
        }
        // Forward path: logic and wire both inflate at the slow corner.
        let wire = self.pipeline.wire();
        for geo in self.link_geometries() {
            let fwd = (self.pipeline.stage_overhead() + wire.delay(geo.segment_length())) * hi;
            required = required.max(fwd);
        }
        let half = Picoseconds::new(required.value() * (1.0 + 1e-12) + 1e-9);
        Gigahertz::from_half_period(half)
    }

    /// A [`FaultPlan`] matched to this system's physics: the timing guard
    /// perturbs the *worst* link segment's wire delay (data and forwarded
    /// clock alike, as in [`System::segment_delays`]) at the operating
    /// frequency and register library, so an injected excursion violates
    /// exactly when the analytic verification says that segment would.
    /// Rates start at zero; chain [`FaultPlan::with_rates`] to arm it.
    #[must_use]
    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        let wire = self.pipeline.wire();
        let worst = self
            .link_geometries()
            .iter()
            .map(|g| wire.delay(g.segment_length()))
            .fold(Picoseconds::ZERO, Picoseconds::max);
        FaultPlan::new(seed)
            .with_frequency(self.frequency)
            .with_flip_flop(self.pipeline.flip_flop())
            .with_link_delays(worst, worst)
    }

    /// Runs an open-loop simulation with `plan`'s faults injected, drains
    /// the network (with a recovery-sized budget), and returns the report
    /// — [`SimReport::recovery`] carries the fault ledger.
    ///
    /// # Panics
    ///
    /// Panics if the plan's nominal (un-perturbed) link timing fails at
    /// its own frequency.
    #[must_use]
    pub fn simulate_with_faults(
        &self,
        pattern: TrafficPattern,
        cycles: u64,
        seed: u64,
        plan: FaultPlan,
    ) -> SimReport {
        let patterns = vec![pattern; self.tree.num_ports()];
        let mut net = self.network(&patterns, seed);
        net.enable_faults(plan);
        // A timeout shows in the report as undelivered flits.
        let _ = net.run_and_drain(cycles);
        net.report()
    }

    /// Builds a runnable simulation network with per-port traffic patterns.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` does not cover every port.
    #[must_use]
    #[track_caller]
    pub fn network(&self, patterns: &[TrafficPattern], seed: u64) -> Network {
        self.network_with_kernel(patterns, seed, SimKernel::default())
    }

    /// Like [`network`](Self::network), but with an explicit stepping
    /// [`SimKernel`] — `SimKernel::Dense` selects the oracle scan used for
    /// differential testing and benchmarking.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` does not cover every port.
    #[must_use]
    #[track_caller]
    pub fn network_with_kernel(
        &self,
        patterns: &[TrafficPattern],
        seed: u64,
        kernel: SimKernel,
    ) -> Network {
        self.build_network(patterns, None, seed, kernel)
    }

    /// Simulates `cycles` cycles of `pattern` on every port, drains the
    /// network, and returns the report.
    #[must_use]
    pub fn simulate(&self, pattern: TrafficPattern, cycles: u64, seed: u64) -> SimReport {
        let patterns = vec![pattern; self.tree.num_ports()];
        let mut net = self.network(&patterns, seed);
        let _ = net.run_and_drain(cycles);
        net.report()
    }

    /// Builds a **closed-loop** simulation network: even ports become
    /// processor tiles issuing requests per their pattern, odd ports
    /// become memories answering after `tiles.service_cycles` — the
    /// demonstrator's processor/memory tile structure with round-trip
    /// measurement.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` does not cover every port.
    #[must_use]
    #[track_caller]
    pub fn tile_network(
        &self,
        patterns: &[TrafficPattern],
        tiles: TileTraffic,
        seed: u64,
    ) -> Network {
        self.tile_network_with_kernel(patterns, tiles, seed, SimKernel::default())
    }

    /// Like [`tile_network`](Self::tile_network), but with an explicit
    /// stepping [`SimKernel`].
    ///
    /// # Panics
    ///
    /// Panics if `patterns` does not cover every port.
    #[must_use]
    #[track_caller]
    pub fn tile_network_with_kernel(
        &self,
        patterns: &[TrafficPattern],
        tiles: TileTraffic,
        seed: u64,
        kernel: SimKernel,
    ) -> Network {
        self.build_network(patterns, Some(tiles), seed, kernel)
    }

    /// The one tree-network builder: open-loop sources, or closed-loop
    /// tiles when `tiles` is set.
    #[track_caller]
    fn build_network(
        &self,
        patterns: &[TrafficPattern],
        tiles: Option<TileTraffic>,
        seed: u64,
        kernel: SimKernel,
    ) -> Network {
        assert_eq!(
            patterns.len(),
            self.tree.num_ports(),
            "one traffic pattern per port required"
        );
        let mut cfg = TreeNetworkConfig::new(self.tree.clone())
            .with_link_stages_from(&self.plan, self.max_segment)
            .with_clock_backend(self.clock_backend())
            .with_seed(seed)
            .with_kernel(kernel);
        if let Some(tiles) = tiles {
            cfg = cfg.with_tiles(tiles);
        }
        for (i, p) in patterns.iter().enumerate() {
            cfg = cfg.with_port_pattern(icnoc_topology::PortId(i as u32), p.clone());
        }
        cfg.build()
    }

    /// Runs a closed-loop tile simulation with `pattern` as every
    /// processor's request pattern, and returns the report (including
    /// [`SimReport::round_trip`]).
    #[must_use]
    pub fn simulate_tiles(
        &self,
        pattern: TrafficPattern,
        tiles: TileTraffic,
        cycles: u64,
        seed: u64,
    ) -> SimReport {
        let patterns = vec![pattern; self.tree.num_ports()];
        let mut net = self.tile_network(&patterns, tiles, seed);
        let _ = net.run_and_drain(cycles);
        net.report()
    }

    /// The same physical chip with the clock turned down (or up) to
    /// `frequency`: the floorplan, segment geometry and pipeline stages are
    /// unchanged — only the clock (and hence every timing window) moves.
    ///
    /// This is the paper's graceful-degradation knob: a fabricated IC-NoC
    /// whose variation breaks timing at speed is recovered by lowering the
    /// clock, not by re-synthesis.
    ///
    /// # Panics
    ///
    /// Panics if `frequency` is not strictly positive.
    #[must_use]
    pub fn derated(&self, frequency: Gigahertz) -> System {
        let mut sys = self.clone();
        sys.frequency = frequency;
        sys.clocks = ClockScheme::build(
            self.clocks.backend(),
            &sys.tree,
            &sys.plan,
            sys.pipeline.wire(),
            frequency,
        );
        sys
    }

    /// A printable summary of the built system.
    #[must_use]
    pub fn summary(&self) -> SystemSummary {
        let area = self.area();
        let die =
            SquareMillimeters::new(self.plan.die_width().value() * self.plan.die_height().value());
        SystemSummary {
            kind: self.tree.kind(),
            ports: self.tree.num_ports(),
            routers: self.tree.router_count(),
            frequency: self.frequency,
            max_segment: self.max_segment,
            pipeline_stages: area.stage_count,
            noc_area: area.total,
            die_area: die,
            worst_case_hops: self.tree.worst_case_hops(),
            max_link_skew: self.clocks.max_link_skew(&self.tree),
        }
    }
}

/// Headline numbers of a built [`System`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemSummary {
    /// Tree kind.
    pub kind: TreeKind,
    /// Network ports.
    pub ports: usize,
    /// Router count.
    pub routers: usize,
    /// Operating frequency.
    pub frequency: Gigahertz,
    /// Pipeline segment cap at that frequency.
    pub max_segment: Millimeters,
    /// Intermediate pipeline stages inserted across all links.
    pub pipeline_stages: usize,
    /// Total NoC silicon area.
    pub noc_area: SquareMillimeters,
    /// Die area.
    pub die_area: SquareMillimeters,
    /// Worst-case router hops.
    pub worst_case_hops: usize,
    /// Largest local (per-link) clock skew.
    pub max_link_skew: Picoseconds,
}

impl core::fmt::Display for SystemSummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "IC-NoC {} tree: {} ports, {} routers @ {}",
            self.kind, self.ports, self.routers, self.frequency
        )?;
        writeln!(
            f,
            "  segments <= {:.2}, {} pipeline stages, worst-case {} hops",
            self.max_segment, self.pipeline_stages, self.worst_case_hops
        )?;
        write!(
            f,
            "  area {:.3} ({:.2}% of {:.0} die), max link skew {:.0}",
            self.noc_area,
            self.noc_area.fraction_of(self.die_area) * 100.0,
            self.die_area,
            self.max_link_skew
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demonstrator_builds_with_paper_shape() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let s = sys.summary();
        assert_eq!(s.ports, 64);
        assert_eq!(s.routers, 63);
        assert_eq!(s.worst_case_hops, 11);
        // Paper: "we target link segments of 1.25 mm near the root" at
        // 1 GHz — our segment cap must admit that (modulo float noise).
        assert!(
            s.max_segment.value() >= 1.25 - 1e-9,
            "cap {}",
            s.max_segment
        );
        // Area in the paper's ballpark, well under 1% of the die.
        assert!(s.noc_area.value() > 0.5 && s.noc_area.value() < 0.9);
    }

    #[test]
    fn frequency_beyond_pipeline_is_rejected() {
        // 1.8 GHz is the head-to-head limit, but the binary tree's routers
        // stop at 1.4 GHz first.
        let err = SystemBuilder::new(TreeKind::Binary, 64)
            .frequency(Gigahertz::new(1.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, SystemError::RouterTooSlow { .. }));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            SystemBuilder::new(TreeKind::Binary, 64)
                .die(Millimeters::ZERO, Millimeters::new(10.0))
                .build(),
            Err(SystemError::InvalidConfig(_))
        ));
        // Past a 300 mm wafer the floorplan's link stages would exhaust
        // memory.
        for edge in [300.5, 1e6, f64::INFINITY] {
            let result = SystemBuilder::new(TreeKind::Binary, 4)
                .die(Millimeters::new(edge), Millimeters::new(10.0))
                .build();
            assert!(
                matches!(result, Err(SystemError::InvalidConfig(_))),
                "{edge}"
            );
        }
        assert!(SystemBuilder::new(TreeKind::Binary, 4)
            .die(Millimeters::new(MAX_DIE_MM), Millimeters::new(MAX_DIE_MM))
            .build()
            .is_ok());
        // Past the port cap the element graph would exhaust memory; the
        // check runs before the topology is built, so any count is cheap.
        for ports in [2 * MAX_PORTS, 1 << 40, usize::MAX] {
            assert!(
                matches!(
                    SystemBuilder::new(TreeKind::Binary, ports).build(),
                    Err(SystemError::InvalidConfig(_))
                ),
                "{ports}"
            );
        }
        assert!(matches!(
            SystemBuilder::new(TreeKind::Binary, 64)
                .width_bits(0)
                .build(),
            Err(SystemError::InvalidConfig(_))
        ));
        assert!(matches!(
            SystemBuilder::new(TreeKind::Binary, 48).build(),
            Err(SystemError::Topology(_))
        ));
    }

    #[test]
    fn quad_tree_at_1_2_ghz_builds() {
        let sys = SystemBuilder::new(TreeKind::Quad, 64)
            .frequency(Gigahertz::new(1.2))
            .build()
            .expect("valid");
        assert_eq!(sys.tree().router_count(), 21);
        // Paper: optimal segment at 1.2 GHz ≈ 0.9 mm.
        assert!((sys.max_segment().value() - 0.9).abs() < 0.1);
    }

    #[test]
    fn segment_delays_cover_both_directions_of_every_segment() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let segments: usize = sys.link_geometries().iter().map(|g| g.segment_count).sum();
        assert_eq!(sys.segment_delays().len(), 2 * segments);
    }

    #[test]
    fn summary_display_mentions_key_numbers() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let text = sys.summary().to_string();
        assert!(text.contains("64 ports"));
        assert!(text.contains("63 routers"));
        assert!(text.contains("1 GHz"));
    }

    #[test]
    fn simulation_is_correct_and_busy() {
        let sys = SystemBuilder::new(TreeKind::Binary, 16)
            .build()
            .expect("valid");
        let report = sys.simulate(TrafficPattern::uniform(0.2), 1_500, 9);
        assert!(report.is_correct(), "{report}");
        assert!(report.delivered > 500);
    }

    #[test]
    fn closed_loop_tile_simulation_measures_round_trips() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let report = sys.simulate_tiles(
            TrafficPattern::Neighbor { rate: 0.2 },
            TileTraffic {
                max_outstanding: 4,
                service_cycles: 5,
            },
            1_500,
            13,
        );
        assert!(report.is_correct(), "{report}");
        assert!(report.responses > 1_000, "{report}");
        // Local round trip on the pipelined demonstrator: two leaf-router
        // crossings plus the 5-cycle memory service.
        let rtt = report.round_trip.mean_cycles();
        assert!((8.0..11.0).contains(&rtt), "round trip {rtt}");
    }

    #[test]
    fn wormhole_packets_on_the_demonstrator() {
        let sys = SystemBuilder::new(TreeKind::Binary, 32)
            .build()
            .expect("valid");
        let patterns = vec![TrafficPattern::uniform(0.05); 32];
        let mut cfg_net = sys.network(&patterns, 21);
        cfg_net.set_packet_length(4);
        cfg_net.run_cycles(1_500);
        cfg_net.drain(2_000);
        let report = cfg_net.report();
        assert!(report.is_correct(), "{report}");
        assert_eq!(report.interleaved, 0);
        assert_eq!(report.packets_sent, report.packets_delivered);
    }

    #[test]
    fn faulty_simulation_recovers_and_accounts_for_every_fault() {
        let sys = SystemBuilder::new(TreeKind::Binary, 16)
            .build()
            .expect("valid");
        let plan = sys.fault_plan(3).with_rates(icnoc_sim::FaultRates::soak());
        let report = sys.simulate_with_faults(TrafficPattern::uniform(0.2), 2_000, 3, plan);
        let recovery = report.recovery.expect("fault ledger present");
        assert!(recovery.detected() > 0, "{recovery}");
        assert!(recovery.conserves(), "{recovery}");
        assert_eq!(recovery.pending, 0, "{recovery}");
        // The CRC gate catches every corruption: nothing escapes silently.
        assert_eq!(report.integrity_failures, 0, "{report}");
    }

    #[test]
    fn system_config_builds_the_demonstrator() {
        let cfg = SystemConfig::demonstrator();
        let sys = cfg.build().expect("valid");
        let direct = SystemBuilder::demonstrator().build().expect("valid");
        assert_eq!(sys.summary(), direct.summary());
        // The corner record resolves and matches the nominal library.
        let corner = cfg.resolve_corner().expect("known corner");
        assert_eq!(corner.ff_scale, 1.0);
    }

    #[test]
    fn system_config_applies_the_corner_library() {
        let slow = SystemConfig {
            corner: "slow30".into(),
            freq_ghz: 0.8,
            ..SystemConfig::demonstrator()
        };
        let sys = slow.build().expect("valid");
        // A 1.3x register library shrinks the admissible segment cap
        // relative to the nominal build at the same frequency.
        let nominal = SystemConfig {
            freq_ghz: 0.8,
            ..SystemConfig::demonstrator()
        }
        .build()
        .expect("valid");
        assert!(sys.max_segment() < nominal.max_segment());
    }

    #[test]
    fn system_config_rejects_unknown_corners() {
        let bad = SystemConfig {
            corner: "mystery".into(),
            ..SystemConfig::demonstrator()
        };
        assert!(matches!(bad.build(), Err(SystemError::InvalidConfig(_))));
    }

    #[test]
    fn slower_clock_shrinks_stage_count() {
        // At 0.5 GHz segments can be much longer: fewer pipeline stages.
        let fast = SystemBuilder::demonstrator().build().expect("valid");
        let slow = SystemBuilder::demonstrator()
            .frequency(Gigahertz::new(0.5))
            .build()
            .expect("valid");
        assert!(slow.area().stage_count <= fast.area().stage_count);
        assert!(slow.max_segment() > fast.max_segment());
    }
}

//! Declarative parameter grids and their resolution into jobs.
//!
//! A grid spec is a `;`-separated list of axes, each `name=values`:
//!
//! ```text
//! kind=binary,quad;ports=16,64;freq=0.8..1.2/5;corner=nominal,slow30
//! ```
//!
//! Values are `,`-separated lists; numeric axes also accept `lo..hi/n`
//! linspace ranges. Axis separators are `;` (not `,`) so that traffic
//! pattern specs — which use `:` internally, e.g. `hotspot:0.3:0:0.5` —
//! can appear verbatim as list values. Missing axes default to the
//! paper's demonstrator operating point.
//!
//! Resolution walks the axes in a **fixed order** (kind, ports, die,
//! width, freq, corner, clock, pattern, cycles, soak), so the job list —
//! and with it every per-job seed — is identical however many workers
//! later execute it.

use icnoc::SystemConfig;
use icnoc_sim::TrafficPattern;
use icnoc_topology::TreeKind;
use icnoc_units::{Gigahertz, Picoseconds};

use crate::json::JsonValue;

/// Every axis name the grid grammar accepts, in documentation order.
/// Unknown-axis errors name this full set (the same style the fault-spec
/// parser uses for unknown fault keys), so the message is always the
/// complete grammar, not whatever subset the error string last mentioned.
pub const AXIS_NAMES: &[&str] = &[
    "kind", "ports", "die", "width", "freq", "thalf", "corner", "clock", "pattern", "cycles",
    "soak", "seed",
];

/// A grid-spec or value parse failure, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError(pub String);

impl core::fmt::Display for GridError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for GridError {}

/// A resolved parameter grid: one value list per axis.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Tree kinds to sweep.
    pub kinds: Vec<TreeKind>,
    /// Port counts to sweep.
    pub ports: Vec<usize>,
    /// Die edges (mm, square) to sweep.
    pub die_mm: Vec<f64>,
    /// Data-path widths (bits) to sweep.
    pub width_bits: Vec<u32>,
    /// Clock frequencies (GHz) to sweep.
    pub freq_ghz: Vec<f64>,
    /// Process-corner labels to sweep
    /// (see [`icnoc_timing::ProcessVariation::standard_corners`]).
    pub corners: Vec<String>,
    /// Clock-distribution backend labels to sweep
    /// (see [`icnoc_clock::ClockBackend`]).
    pub clocks: Vec<String>,
    /// Traffic-pattern specs (kept as text; parsed per job).
    pub patterns: Vec<String>,
    /// Simulated cycle counts to sweep.
    pub cycles: Vec<u64>,
    /// Fault-soak scale factors to sweep (`0` = no fault injection).
    pub soak: Vec<f64>,
    /// Master seed mixed into every job's simulation seed.
    pub seed: u64,
}

impl Default for GridSpec {
    /// The demonstrator operating point as a 1-job grid.
    fn default() -> Self {
        Self {
            kinds: vec![TreeKind::Binary],
            ports: vec![64],
            die_mm: vec![10.0],
            width_bits: vec![32],
            freq_ghz: vec![1.0],
            corners: vec!["nominal".to_owned()],
            clocks: vec![icnoc_clock::ClockBackend::Forwarded.label().to_owned()],
            patterns: vec!["uniform:0.1".to_owned()],
            cycles: vec![2_000],
            soak: vec![0.0],
            seed: 42,
        }
    }
}

impl GridSpec {
    /// Parses a grid spec string (see the module docs for the grammar).
    /// An empty spec yields the demonstrator point.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] for unknown axis names, malformed numbers
    /// or ranges, empty axes, or a `thalf`/`freq` clash.
    pub fn parse(spec: &str) -> Result<Self, GridError> {
        let mut grid = Self::default();
        let mut saw_freq = false;
        let mut saw_thalf = false;
        for axis in spec.split(';') {
            let axis = axis.trim();
            if axis.is_empty() {
                continue;
            }
            let (name, values) = axis
                .split_once('=')
                .ok_or_else(|| GridError(format!("axis {axis:?} must be name=values")))?;
            let (name, values) = (name.trim(), values.trim());
            if values.is_empty() {
                return Err(GridError(format!("axis {name:?} has no values")));
            }
            match name {
                "kind" => {
                    grid.kinds = split_list(values)
                        .map(|v| match v {
                            "binary" => Ok(TreeKind::Binary),
                            "quad" => Ok(TreeKind::Quad),
                            other => Err(GridError(format!(
                                "kind must be binary or quad, got {other:?}"
                            ))),
                        })
                        .collect::<Result<_, _>>()?;
                }
                "ports" => grid.ports = parse_ints(name, values)?,
                "die" => grid.die_mm = parse_floats(name, values)?,
                "width" => {
                    grid.width_bits = parse_ints::<u64>(name, values)?
                        .into_iter()
                        .map(|w| w as u32)
                        .collect();
                }
                "freq" => {
                    saw_freq = true;
                    grid.freq_ghz = parse_floats(name, values)?;
                }
                "thalf" => {
                    // A half-period axis (ps) is sugar for a frequency axis:
                    // T_half is the paper's native timing-budget variable.
                    saw_thalf = true;
                    grid.freq_ghz = parse_floats(name, values)?
                        .into_iter()
                        .map(|ps| Gigahertz::from_half_period(Picoseconds::new(ps)).value())
                        .collect();
                }
                "corner" => {
                    grid.corners = split_list(values).map(str::to_owned).collect();
                }
                "clock" => {
                    // Validate eagerly so a typo'd backend fails before any
                    // jobs run; the label form is what gets hashed.
                    grid.clocks = split_list(values)
                        .map(|v| {
                            icnoc_clock::ClockBackend::parse(v)
                                .map(|b| b.label().to_owned())
                                .map_err(GridError)
                        })
                        .collect::<Result<_, _>>()?;
                }
                "pattern" => {
                    // The text form is what gets hashed; it is validated
                    // below, against every `ports` value.
                    grid.patterns = split_list(values).map(str::to_owned).collect();
                }
                "cycles" => grid.cycles = parse_ints(name, values)?,
                "soak" => grid.soak = parse_floats(name, values)?,
                "seed" => {
                    grid.seed = values.parse().map_err(|_| {
                        GridError(format!("seed expects an integer, got {values:?}"))
                    })?;
                }
                other => {
                    return Err(GridError(format!(
                        "unknown axis {other:?}; known axes: {}",
                        AXIS_NAMES.join(", ")
                    )))
                }
            }
        }
        if saw_freq && saw_thalf {
            return Err(GridError(
                "freq and thalf both set the frequency axis; give one".to_owned(),
            ));
        }
        // Validate every pattern now, so errors surface before any jobs
        // run: a hotspot target must exist at every swept port count.
        for spec in &grid.patterns {
            let pattern = TrafficPattern::parse(spec).map_err(GridError)?;
            for &ports in &grid.ports {
                pattern.check_ports(ports).map_err(GridError)?;
            }
        }
        Ok(grid)
    }

    /// The number of jobs this grid resolves to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
            * self.ports.len()
            * self.die_mm.len()
            * self.width_bits.len()
            * self.freq_ghz.len()
            * self.corners.len()
            * self.clocks.len()
            * self.patterns.len()
            * self.cycles.len()
            * self.soak.len()
    }

    /// Whether the grid resolves to zero jobs (an axis was emptied).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves the grid into its job list, in the fixed axis order.
    #[must_use]
    pub fn resolve(&self) -> Vec<JobConfig> {
        let mut jobs = Vec::with_capacity(self.len());
        for &kind in &self.kinds {
            for &ports in &self.ports {
                for &die_mm in &self.die_mm {
                    for &width_bits in &self.width_bits {
                        for &freq_ghz in &self.freq_ghz {
                            for corner in &self.corners {
                                for clock in &self.clocks {
                                    for pattern in &self.patterns {
                                        for &cycles in &self.cycles {
                                            for &soak in &self.soak {
                                                jobs.push(JobConfig {
                                                    system: SystemConfig {
                                                        kind,
                                                        ports,
                                                        die_mm,
                                                        width_bits,
                                                        freq_ghz,
                                                        corner: corner.clone(),
                                                        clock: clock.clone(),
                                                    },
                                                    pattern: pattern.clone(),
                                                    cycles,
                                                    soak,
                                                    seed: self.seed,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }
}

fn split_list(values: &str) -> impl Iterator<Item = &str> {
    values.split(',').map(str::trim).filter(|v| !v.is_empty())
}

fn parse_floats(axis: &str, values: &str) -> Result<Vec<f64>, GridError> {
    let mut out = Vec::new();
    for v in split_list(values) {
        if let Some((range, n)) = v.split_once('/') {
            let (lo, hi) = range
                .split_once("..")
                .ok_or_else(|| GridError(format!("{axis} range {v:?} must be lo..hi/n")))?;
            let lo: f64 = parse_num(axis, lo)?;
            let hi: f64 = parse_num(axis, hi)?;
            let n: usize = parse_num(axis, n)?;
            if n == 0 {
                return Err(GridError(format!("{axis} range {v:?} needs n >= 1")));
            }
            let step = if n == 1 {
                0.0
            } else {
                (hi - lo) / (n - 1) as f64
            };
            for i in 0..n {
                out.push(if i + 1 == n { hi } else { lo + step * i as f64 });
            }
        } else {
            out.push(parse_num(axis, v)?);
        }
    }
    Ok(out)
}

fn parse_ints<T>(axis: &str, values: &str) -> Result<Vec<T>, GridError>
where
    T: std::str::FromStr + Copy,
{
    let floats = parse_floats(axis, values)?;
    split_or_round(axis, values, &floats)
}

fn split_or_round<T>(axis: &str, values: &str, floats: &[f64]) -> Result<Vec<T>, GridError>
where
    T: std::str::FromStr + Copy,
{
    // Integer axes share the float grammar (so `ports=16..64/2` works);
    // each resolved value must land on an integer.
    let _ = values;
    floats
        .iter()
        .map(|&f| {
            if f < 0.0 || f.fract() != 0.0 {
                return Err(GridError(format!(
                    "{axis} value {f} must be a non-negative integer"
                )));
            }
            format!("{}", f as u64)
                .parse::<T>()
                .map_err(|_| GridError(format!("{axis} value {f} out of range")))
        })
        .collect()
}

fn parse_num<T: std::str::FromStr>(axis: &str, s: &str) -> Result<T, GridError> {
    s.trim()
        .parse()
        .map_err(|_| GridError(format!("bad number {s:?} in {axis} axis")))
}

/// One fully-resolved job: a system grid point plus its workload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// The system to build.
    pub system: SystemConfig,
    /// Traffic-pattern spec (text form; [`TrafficPattern::parse`]
    /// grammar).
    pub pattern: String,
    /// Cycles to simulate before draining.
    pub cycles: u64,
    /// Fault-soak scale (`0` disables injection).
    pub soak: f64,
    /// Master seed (shared across the grid; mixed per job).
    pub seed: u64,
}

impl JobConfig {
    /// The canonical text form: every field, in fixed order, with
    /// round-trip-exact float formatting. Equal configs — and only equal
    /// configs — produce equal canonical strings; this is the sole input
    /// to [`stable_hash`] and hence to job seeds and cache keys.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        let push_f64 = |s: &mut String, name: &str, v: f64| {
            s.push_str(name);
            s.push('=');
            s.push_str(&JsonValue::Num(v).to_compact());
            s.push(';');
        };
        s.push_str(&format!("kind={};", self.system.kind));
        s.push_str(&format!("ports={};", self.system.ports));
        push_f64(&mut s, "die", self.system.die_mm);
        s.push_str(&format!("width={};", self.system.width_bits));
        push_f64(&mut s, "freq", self.system.freq_ghz);
        s.push_str(&format!("corner={};", self.system.corner));
        s.push_str(&format!("clock={};", self.system.clock));
        s.push_str(&format!("pattern={};", self.pattern));
        s.push_str(&format!("cycles={};", self.cycles));
        push_f64(&mut s, "soak", self.soak);
        s.push_str(&format!("seed={}", self.seed));
        s
    }

    /// The job's stable 64-bit identity: FNV-1a over
    /// [`Self::canonical`]. Used as the per-job simulation
    /// seed, so results depend only on the resolved config — never on
    /// shard order, worker count or crate version.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        stable_hash(self.canonical().as_bytes())
    }

    /// The parsed traffic pattern.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] if the stored spec is malformed (possible
    /// only for hand-built configs; [`GridSpec::parse`] validates).
    pub fn traffic(&self) -> Result<TrafficPattern, GridError> {
        TrafficPattern::parse(&self.pattern).map_err(GridError)
    }

    /// Serialises to a JSON object (field order fixed).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("kind".into(), JsonValue::Str(self.system.kind.to_string())),
            ("ports".into(), JsonValue::Num(self.system.ports as f64)),
            ("die_mm".into(), JsonValue::Num(self.system.die_mm)),
            (
                "width_bits".into(),
                JsonValue::Num(f64::from(self.system.width_bits)),
            ),
            ("freq_ghz".into(), JsonValue::Num(self.system.freq_ghz)),
            ("corner".into(), JsonValue::Str(self.system.corner.clone())),
            ("clock".into(), JsonValue::Str(self.system.clock.clone())),
            ("pattern".into(), JsonValue::Str(self.pattern.clone())),
            ("cycles".into(), JsonValue::Num(self.cycles as f64)),
            ("soak".into(), JsonValue::Num(self.soak)),
            ("seed".into(), JsonValue::Num(self.seed as f64)),
        ])
    }

    /// Deserialises from [`to_json`](Self::to_json)'s object form.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] naming the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Self, GridError> {
        let f = |k: &str| -> Result<f64, GridError> {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| GridError(format!("job config missing numeric field {k:?}")))
        };
        let s = |k: &str| -> Result<&str, GridError> {
            v.get(k)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| GridError(format!("job config missing string field {k:?}")))
        };
        let kind = match s("kind")? {
            "binary" => TreeKind::Binary,
            "quad" => TreeKind::Quad,
            other => return Err(GridError(format!("unknown tree kind {other:?}"))),
        };
        Ok(Self {
            system: SystemConfig {
                kind,
                ports: f("ports")? as usize,
                die_mm: f("die_mm")?,
                width_bits: f("width_bits")? as u32,
                freq_ghz: f("freq_ghz")?,
                corner: s("corner")?.to_owned(),
                clock: s("clock")?.to_owned(),
            },
            pattern: s("pattern")?.to_owned(),
            cycles: f("cycles")? as u64,
            soak: f("soak")?,
            seed: f("seed")? as u64,
        })
    }
}

/// FNV-1a 64-bit over `bytes` — a fixed, documented hash (unlike
/// `std::hash::DefaultHasher`, whose algorithm may change between Rust
/// releases), so cache keys and job seeds survive toolchain upgrades.
#[must_use]
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_the_demonstrator_point() {
        let grid = GridSpec::parse("").expect("parses");
        assert_eq!(grid.len(), 1);
        let jobs = grid.resolve();
        assert_eq!(jobs[0].system, SystemConfig::demonstrator());
    }

    #[test]
    fn axes_multiply_and_resolve_in_fixed_order() {
        let grid =
            GridSpec::parse("kind=binary,quad;ports=16,64;freq=0.8,1.0;corner=nominal,slow30")
                .expect("parses");
        assert_eq!(grid.len(), 2 * 2 * 2 * 2);
        let jobs = grid.resolve();
        assert_eq!(jobs.len(), 16);
        // Innermost axis varies fastest; kind varies slowest.
        assert_eq!(jobs[0].system.kind, TreeKind::Binary);
        assert_eq!(jobs[0].system.corner, "nominal");
        assert_eq!(jobs[1].system.corner, "slow30");
        assert_eq!(jobs[8].system.kind, TreeKind::Quad);
    }

    #[test]
    fn linspace_ranges_hit_both_endpoints() {
        let grid = GridSpec::parse("freq=0.5..1.5/5").expect("parses");
        assert_eq!(grid.freq_ghz.len(), 5);
        assert_eq!(grid.freq_ghz[0], 0.5);
        assert_eq!(grid.freq_ghz[4], 1.5);
        // Mixed list + range.
        let grid = GridSpec::parse("die=5,10..20/3").expect("parses");
        assert_eq!(grid.die_mm, vec![5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    fn thalf_is_sugar_for_frequency() {
        // T_half = 500 ps ⇒ 1 GHz.
        let grid = GridSpec::parse("thalf=500").expect("parses");
        assert!((grid.freq_ghz[0] - 1.0).abs() < 1e-12);
        assert!(GridSpec::parse("freq=1;thalf=500").is_err());
    }

    #[test]
    fn pattern_axis_keeps_colon_specs_intact() {
        let grid =
            GridSpec::parse("pattern=uniform:0.2,hotspot:0.3:0:0.5;ports=16").expect("parses");
        assert_eq!(grid.patterns, vec!["uniform:0.2", "hotspot:0.3:0:0.5"]);
        assert!(GridSpec::parse("pattern=wavy:1").is_err());
    }

    #[test]
    fn unknown_axes_name_the_full_valid_axis_set() {
        // Mirrors the fault-spec parser's unknown-key style: the error
        // must enumerate every axis the grammar accepts, so a typo is
        // always one read away from the fix.
        let err = GridSpec::parse("frequency=1.0").expect_err("unknown axis");
        for axis in AXIS_NAMES {
            assert!(err.0.contains(axis), "error must name {axis:?}: {err}");
        }
        assert!(err.0.contains("frequency"), "{err}");
    }

    #[test]
    fn bad_specs_are_rejected_with_messages() {
        for bad in [
            "ports",               // no '='
            "ports=",              // empty values
            "ports=1.5",           // non-integer on integer axis
            "bogus=1",             // unknown axis
            "freq=a..b/3",         // bad range bounds
            "freq=1..2/0",         // zero samples
            "kind=ring",           // unknown kind
            "seed=not-a-seed",     // bad seed
            "pattern=wavy:1",      // unknown pattern
            "pattern=uniform:nan", // rate outside [0, 1]
        ] {
            assert!(GridSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hotspot_targets_must_exist_at_every_swept_port_count() {
        let spec = "pattern=hotspot:0.3:20:0.5";
        assert!(GridSpec::parse(&format!("{spec};ports=32,64")).is_ok());
        let err = GridSpec::parse(&format!("{spec};ports=64,16")).expect_err("16 ports");
        assert_eq!(err.0, "hotspot target 20 is outside the 16-port fabric");
        // The default 64-port axis holds the target too.
        assert!(GridSpec::parse(spec).is_ok());
    }

    #[test]
    fn canonical_is_injective_over_distinct_configs_and_hash_is_stable() {
        let a = GridSpec::parse("freq=1.0").expect("parses").resolve();
        let b = GridSpec::parse("freq=1.1").expect("parses").resolve();
        assert_ne!(a[0].canonical(), b[0].canonical());
        assert_ne!(a[0].stable_hash(), b[0].stable_hash());
        // FNV-1a test vectors: the algorithm is pinned, not incidental.
        assert_eq!(stable_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Identical configs hash identically across resolutions.
        let a2 = GridSpec::parse("freq=1.0").expect("parses").resolve();
        assert_eq!(a[0].stable_hash(), a2[0].stable_hash());
    }

    #[test]
    fn clock_axis_sweeps_backends_and_salts_the_canonical_form() {
        let grid = GridSpec::parse("clock=forwarded,redundant;ports=16").expect("parses");
        assert_eq!(grid.len(), 2);
        let jobs = grid.resolve();
        assert_eq!(jobs[0].system.clock, "forwarded");
        assert_eq!(jobs[1].system.clock, "redundant");
        // The backend is part of the canonical form, so the two jobs get
        // distinct seeds and distinct cache keys.
        assert_ne!(jobs[0].canonical(), jobs[1].canonical());
        assert_ne!(jobs[0].stable_hash(), jobs[1].stable_hash());
        assert!(jobs[0].canonical().contains("clock=forwarded;"));
        // Typos fail at parse time with the valid set named.
        let err = GridSpec::parse("clock=gradient").expect_err("unknown backend");
        assert!(err.0.contains("redundant"), "{err}");
    }

    #[test]
    fn job_config_round_trips_through_json() {
        let jobs = GridSpec::parse("kind=quad;ports=16;pattern=hotspot:0.3:0:0.5;soak=1.5")
            .expect("parses")
            .resolve();
        let back = JobConfig::from_json(&jobs[0].to_json()).expect("round-trips");
        assert_eq!(back, jobs[0]);
        assert!(JobConfig::from_json(&JsonValue::Obj(vec![])).is_err());
    }
}

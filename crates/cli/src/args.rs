//! Hand-rolled argument parsing (no external dependencies needed for a
//! handful of subcommands of `--key value` flags).

use icnoc_clock::ClockBackend;
use icnoc_explore::GridSpec;
use icnoc_sim::{FaultRates, SimKernel, TrafficPattern, MAX_CYCLES};
use icnoc_topology::TreeKind;

/// A parse or validation failure, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Build options shared by most subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOpts {
    /// Network port count.
    pub ports: usize,
    /// Tree kind.
    pub kind: TreeKind,
    /// Clock frequency in GHz.
    pub freq: f64,
    /// Die edge in mm (square die).
    pub die: f64,
    /// Data-path width in bits.
    pub width: u32,
    /// Clock-distribution backend.
    pub clock: ClockBackend,
}

impl Default for BuildOpts {
    fn default() -> Self {
        Self {
            ports: 64,
            kind: TreeKind::Binary,
            freq: 1.0,
            die: 10.0,
            width: 32,
            clock: ClockBackend::Forwarded,
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Which subcommand to run.
    pub command: Command,
}

/// Output format for the `stats` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// One JSON document with totals, elements and flows.
    Json,
    /// Two CSV tables: per-element counters, then per-flow latencies.
    Csv,
}

/// One subcommand with its options.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the system summary.
    Info(BuildOpts),
    /// Run timing verification and print the STA report.
    Verify {
        /// Build options.
        build: BuildOpts,
        /// Systematic variation fraction.
        variation: f64,
        /// Random mismatch sigma.
        sigma: f64,
        /// Critical paths to list.
        top: usize,
    },
    /// Simulate traffic and print the run + power report.
    Sim {
        /// Build options.
        build: BuildOpts,
        /// Per-port traffic pattern.
        pattern: TrafficPattern,
        /// Cycles to simulate before draining.
        cycles: u64,
        /// Master seed.
        seed: u64,
        /// Flits per packet.
        packet_len: u32,
        /// Closed-loop tiles as `(max_outstanding, service_cycles)`.
        tiles: Option<(usize, u64)>,
        /// Write a VCD waveform of the first `cycles.min(200)` cycles here.
        vcd: Option<String>,
        /// Print the stall diagnosis (flit-holding elements) after the run.
        diagnose: bool,
        /// Fault-injection spec (see `parse_fault_spec`), if any.
        faults: Option<FaultSpec>,
        /// Stepping kernel (`event` default; `dense` is the oracle).
        kernel: SimKernel,
        /// Ignored and always `None`: the parser has no `--speculate`
        /// flag. Kept only so the `benchmark/` package builds unchanged;
        /// the next change to that package deletes it.
        speculate: Option<u32>,
        /// Attach the kernel profiler and print the per-shard summary
        /// table after the report.
        profile: bool,
        /// Write a Chrome trace-event JSON timeline here (implies
        /// profiling).
        chrome_trace: Option<String>,
    },
    /// Run a counter-traced simulation and export per-element utilisation
    /// and per-flow latency percentiles.
    Stats {
        /// Build options.
        build: BuildOpts,
        /// Per-port traffic pattern.
        pattern: TrafficPattern,
        /// Cycles to simulate before draining.
        cycles: u64,
        /// Master seed.
        seed: u64,
        /// Flits per packet.
        packet_len: u32,
        /// Closed-loop tiles as `(max_outstanding, service_cycles)`.
        tiles: Option<(usize, u64)>,
        /// Export format.
        format: StatsFormat,
        /// Write the export here instead of printing it.
        out: Option<String>,
        /// Stepping kernel (`event` default; `dense` is the oracle).
        kernel: SimKernel,
    },
    /// Run an event-traced simulation and dump the trailing flit-lifecycle
    /// events.
    Trace {
        /// Build options.
        build: BuildOpts,
        /// Per-port traffic pattern.
        pattern: TrafficPattern,
        /// Cycles to simulate.
        cycles: u64,
        /// Master seed.
        seed: u64,
        /// Flits per packet.
        packet_len: u32,
        /// Ring-buffer capacity (events retained).
        capacity: usize,
        /// Maximum events to print (most recent first retained).
        limit: usize,
        /// Also write a VCD waveform of the first `cycles.min(200)` cycles.
        vcd: Option<String>,
        /// Stepping kernel (`event` default; `dense` is the oracle).
        kernel: SimKernel,
    },
    /// Monte-Carlo yield analysis.
    Yield {
        /// Build options.
        build: BuildOpts,
        /// Systematic variation fraction.
        variation: f64,
        /// Random mismatch sigma.
        sigma: f64,
        /// Sample dies.
        samples: usize,
        /// Seed.
        seed: u64,
    },
    /// Print the Figure 7 frequency-vs-length curve.
    Fig7 {
        /// Longest length to sample (mm).
        max_mm: f64,
        /// Sampling step (mm).
        step_mm: f64,
    },
    /// Run a design-space exploration sweep: shard a parameter grid over
    /// worker threads, cache results, and report Pareto fronts.
    Explore {
        /// Grid spec (`;`-separated axes; see
        /// [`icnoc_explore::GridSpec::parse`]). Empty = the demonstrator
        /// point.
        grid: String,
        /// Worker threads (jobs run concurrently).
        jobs: usize,
        /// Simulate each job with the parallel kernel at this worker
        /// count (`0` = one per core); `None` keeps the default kernel.
        workers: Option<u32>,
        /// Result-cache directory, if caching was requested.
        cache_dir: Option<String>,
        /// Whether `--resume` selected the default cache directory.
        resume: bool,
        /// Where to write the JSON analysis.
        out: String,
        /// Suppress the live progress line.
        quiet: bool,
        /// Attach the kernel profiler to every executed job, adding
        /// `perf` telemetry to the sweep output.
        profile: bool,
        /// Ignored and always `None`: the parser has no `--speculate`
        /// flag. Kept only so the `benchmark/` package builds unchanged;
        /// the next change to that package deletes it.
        speculate: Option<u32>,
        /// Submit the grid to a running `icnoc serve` daemon at this
        /// address instead of executing locally. Execution flags
        /// (`--jobs`, `--workers`, `--cache-dir`, `--resume`,
        /// `--profile`) are the daemon's decisions and conflict.
        server: Option<String>,
        /// Submission priority in server mode (higher runs sooner).
        priority: u32,
    },
    /// Run the resident sweep service: accept grid submissions over
    /// TCP, dedup them through the shared cache, stream results, and
    /// journal accepted sweeps for crash recovery.
    Serve {
        /// Listen address (`host:port`; port 0 picks a free port —
        /// the bound address lands in `<state-dir>/endpoint`).
        addr: String,
        /// State directory: result cache, job ledger and endpoint file.
        state_dir: String,
        /// Worker threads executing jobs.
        workers: usize,
        /// Admission-queue depth limit (full → structured 429).
        queue_limit: usize,
    },
    /// Run a fault-injection soak and print the
    /// injected-vs-detected-vs-recovered accounting.
    Faults {
        /// Build options.
        build: BuildOpts,
        /// Per-port traffic pattern.
        pattern: TrafficPattern,
        /// Cycles to simulate before draining.
        cycles: u64,
        /// Master seed (traffic and injector alike).
        seed: u64,
        /// Flits per packet.
        packet_len: u32,
        /// What to inject.
        spec: FaultSpec,
        /// Stepping kernel (`event` default; `dense` is the oracle).
        kernel: SimKernel,
        /// Ignored and always `None`: the parser has no `--speculate`
        /// flag. Kept only so the `benchmark/` package builds unchanged;
        /// the next change to that package deletes it.
        speculate: Option<u32>,
    },
    /// `faults --profile`: the [`Faults`](Self::Faults) run it boxes,
    /// with the kernel profiler attached and its perf section printed
    /// after the ledger. A variant of its own, not a `profile` field of
    /// `Faults`, only because the `benchmark/` package matches `Faults`
    /// field by field; the next change to that package folds it in.
    ProfiledFaults(Box<Command>),
    /// Print usage.
    Help,
}

/// A parsed `--faults` / `--spec` value: rates plus an optional injection
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-edge injection probabilities.
    pub rates: FaultRates,
    /// Injection restricted to half-cycle ticks `[start, end)`, if set.
    pub window: Option<(u64, u64)>,
}

impl Cli {
    /// Parses a full argument list (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] for unknown subcommands, unknown flags,
    /// missing values or malformed numbers.
    pub fn parse<I, S>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        let Some((sub, rest)) = args.split_first() else {
            return Ok(Cli {
                command: Command::Help,
            });
        };
        let mut flags = Flags::parse(rest)?;
        let command = match sub.as_str() {
            "info" => Command::Info(flags.build_opts()?),
            "verify" => Command::Verify {
                build: flags.build_opts()?,
                variation: flags.take_variation(0.0)?,
                sigma: flags.take_sigma(0.0)?,
                top: flags.take_usize("top", 10)?,
            },
            // `profile` is an alias of `sim --profile`.
            "sim" | "profile" => {
                let kernel = flags.take_kernel()?;
                let build = flags.build_opts()?;
                Command::Sim {
                    pattern: flags.take_pattern(&build)?,
                    build,
                    cycles: flags.take_cycles(2_000)?,
                    seed: flags.take_u64("seed", 42)?,
                    packet_len: flags.take_packet_len()?,
                    tiles: flags.take_tiles()?,
                    vcd: flags.take_opt_string("vcd"),
                    diagnose: flags.take_bool("diagnose")?,
                    faults: match flags.take_opt_string("faults") {
                        Some(spec) => Some(parse_fault_spec(&spec)?),
                        None => None,
                    },
                    kernel,
                    speculate: None,
                    profile: flags.take_bool("profile")? || sub == "profile",
                    chrome_trace: flags.take_opt_string("chrome-trace"),
                }
            }
            "stats" => {
                let build = flags.build_opts()?;
                Command::Stats {
                    pattern: flags.take_pattern(&build)?,
                    build,
                    cycles: flags.take_cycles(2_000)?,
                    seed: flags.take_u64("seed", 42)?,
                    packet_len: flags.take_packet_len()?,
                    tiles: flags.take_tiles()?,
                    format: match flags.take_string("format", "json").as_str() {
                        "json" => StatsFormat::Json,
                        "csv" => StatsFormat::Csv,
                        other => {
                            return Err(CliError(format!(
                                "--format must be json or csv, got {other:?}"
                            )))
                        }
                    },
                    out: flags.take_opt_string("out"),
                    kernel: flags.take_kernel()?,
                }
            }
            "trace" => {
                let capacity = flags.take_usize("capacity", 4_096)?;
                if capacity == 0 {
                    return Err(CliError("--capacity must be at least 1".to_owned()));
                }
                let build = flags.build_opts()?;
                Command::Trace {
                    pattern: flags.take_pattern(&build)?,
                    build,
                    cycles: flags.take_cycles(200)?,
                    seed: flags.take_u64("seed", 42)?,
                    packet_len: flags.take_packet_len()?,
                    capacity,
                    limit: flags.take_usize("limit", 40)?,
                    vcd: flags.take_opt_string("vcd"),
                    kernel: flags.take_kernel()?,
                }
            }
            "yield" => {
                let samples = flags.take_usize("samples", 200)?;
                if samples == 0 {
                    return Err(CliError("--samples must be at least 1".to_owned()));
                }
                if samples > YIELD_MAX_SAMPLES {
                    return Err(CliError(format!(
                        "--samples must be at most {YIELD_MAX_SAMPLES}"
                    )));
                }
                Command::Yield {
                    build: flags.build_opts()?,
                    variation: flags.take_variation(0.2)?,
                    sigma: flags.take_sigma(0.05)?,
                    samples,
                    seed: flags.take_u64("seed", 42)?,
                }
            }
            "fig7" => {
                let max_mm =
                    flags.take_f64("max-mm", 3.0, |v| v >= 0.0, "a finite number at least 0")?;
                let step_mm =
                    flags.take_f64("step-mm", 0.1, |v| v > 0.0, "a finite number above 0")?;
                if (max_mm / step_mm).round() >= FIG7_MAX_POINTS as f64 {
                    return Err(CliError(format!(
                        "fig7 samples at most {FIG7_MAX_POINTS} points: raise --step-mm \
                         or lower --max-mm"
                    )));
                }
                Command::Fig7 { max_mm, step_mm }
            }
            "explore" => {
                let server = flags.take_opt_string("server");
                let priority = flags.take_u32("priority", 0)?;
                let jobs_flag = flags.take_opt_string("jobs");
                let jobs: usize = match &jobs_flag {
                    None => 1,
                    Some(v) => v
                        .parse()
                        .map_err(|_| CliError(format!("--jobs expects an integer, got {v:?}")))?,
                };
                if jobs == 0 {
                    return Err(CliError("--jobs must be at least 1".to_owned()));
                }
                let workers = match flags.take_opt_string("workers") {
                    None => None,
                    Some(v) => Some(v.parse::<u32>().map_err(|_| {
                        CliError(format!("--workers expects an integer, got {v:?}"))
                    })?),
                };
                // Each of the `jobs` concurrent jobs runs its own
                // `workers` threads; 0 means one per core.
                let per_job = match workers {
                    None => 1,
                    Some(0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    Some(w) => w as usize,
                };
                check_threads("--jobs times --workers", jobs.saturating_mul(per_job))?;
                let cache_dir = flags.take_opt_string("cache-dir");
                let resume = flags.take_bool("resume")?;
                let profile = flags.take_bool("profile")?;
                if server.is_some()
                    && (jobs_flag.is_some()
                        || workers.is_some()
                        || cache_dir.is_some()
                        || resume
                        || profile)
                {
                    return Err(CliError(
                        "--server delegates execution to the daemon; --jobs, --workers, \
                         --cache-dir, --resume and --profile do not apply"
                            .to_owned(),
                    ));
                }
                if server.is_none() && priority != 0 {
                    return Err(CliError("--priority requires --server".to_owned()));
                }
                // A malformed grid is a usage error, whether it runs here
                // or on a daemon.
                let grid = flags.take_string("grid", "");
                GridSpec::parse(&grid).map_err(|e| CliError(e.to_string()))?;
                Command::Explore {
                    grid,
                    jobs,
                    workers,
                    cache_dir,
                    resume,
                    out: flags.take_string("out", "BENCH_explore.json"),
                    quiet: flags.take_bool("quiet")?,
                    profile,
                    speculate: None,
                    server,
                    priority,
                }
            }
            "serve" => {
                let workers = flags.take_usize("workers", 2)?;
                if workers == 0 {
                    return Err(CliError("--workers must be at least 1".to_owned()));
                }
                check_threads("--workers", workers)?;
                let queue_limit = flags.take_usize("queue-limit", 256)?;
                if queue_limit == 0 {
                    return Err(CliError("--queue-limit must be at least 1".to_owned()));
                }
                Command::Serve {
                    addr: flags.take_string("addr", "127.0.0.1:7070"),
                    state_dir: flags.take_string("state-dir", icnoc_explore::DEFAULT_CACHE_DIR),
                    workers,
                    queue_limit,
                }
            }
            "faults" => {
                let kernel = flags.take_kernel()?;
                let build = flags.build_opts()?;
                let faults = Command::Faults {
                    kernel,
                    pattern: flags.take_pattern(&build)?,
                    build,
                    cycles: flags.take_cycles(10_000)?,
                    seed: flags.take_u64("seed", 42)?,
                    packet_len: flags.take_packet_len()?,
                    spec: parse_fault_spec(&flags.take_string("spec", "soak"))?,
                    speculate: None,
                };
                if flags.take_bool("profile")? {
                    Command::ProfiledFaults(Box::new(faults))
                } else {
                    faults
                }
            }
            "help" | "--help" | "-h" => Command::Help,
            other => return Err(CliError(format!("unknown subcommand {other:?}; try help"))),
        };
        flags.finish()?;
        Ok(Cli { command })
    }
}

/// Parses a fault spec:
/// * `soak` — the default all-kinds profile (link/data kinds);
/// * `clock-soak` — the soak profile plus every clock-domain kind;
/// * `soak*F` / `clock-soak*F` — either profile with every rate scaled
///   by `F`;
/// * a comma list of `key=rate` pairs over `jitter`, `spike`, `corrupt`,
///   `drop`, `stuck`, `lost`, `outage`, `clock-outage`, `pulse-drop`,
///   `skew-drift` (unset keys stay zero), optionally with
///   `window=START:END` restricting injection to those ticks.
///
/// # Errors
///
/// Returns a [`CliError`] naming the valid keys for unknown keys, and one
/// for malformed numbers, rates outside `[0, 1]` or an empty window.
pub fn parse_fault_spec(spec: &str) -> Result<FaultSpec, CliError> {
    let num = |s: &str| -> Result<f64, CliError> {
        s.parse()
            .map_err(|_| CliError(format!("bad number {s:?} in fault spec {spec:?}")))
    };
    for (profile, rates) in [
        ("soak", FaultRates::soak as fn() -> FaultRates),
        ("clock-soak", FaultRates::clock_soak),
    ] {
        if spec == profile {
            return Ok(FaultSpec {
                rates: rates(),
                window: None,
            });
        }
        if let Some(factor) = spec.strip_prefix(profile).and_then(|r| r.strip_prefix('*')) {
            let f = num(factor)?;
            if f < 0.0 {
                return Err(CliError(format!("{profile} scale {f} must be >= 0")));
            }
            if !f.is_finite() {
                return Err(CliError(format!(
                    "{profile} scale {factor:?} must be finite"
                )));
            }
            return Ok(FaultSpec {
                rates: rates().scaled(f),
                window: None,
            });
        }
    }
    let mut rates = FaultRates::ZERO;
    let mut window = None;
    for pair in spec.split(',') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(CliError(format!(
                "fault spec entry {pair:?} must be key=value (or use \"soak\")"
            )));
        };
        if key == "window" {
            let (start, end) = value
                .split_once(':')
                .ok_or_else(|| CliError(format!("window {value:?} must be START:END ticks")))?;
            let parse_tick = |s: &str| -> Result<u64, CliError> {
                s.parse()
                    .map_err(|_| CliError(format!("bad tick {s:?} in fault window")))
            };
            let (start, end) = (parse_tick(start)?, parse_tick(end)?);
            if start >= end {
                return Err(CliError(format!("fault window {start}:{end} is empty")));
            }
            window = Some((start, end));
            continue;
        }
        let rate = num(value)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(CliError(format!(
                "fault rate {key}={rate} must be a probability in [0, 1]"
            )));
        }
        match key {
            "jitter" => rates.link_jitter = rate,
            "spike" => rates.skew_spike = rate,
            "corrupt" => rates.bit_corruption = rate,
            "drop" => rates.flit_drop = rate,
            "stuck" => rates.stuck_valid = rate,
            "lost" => rates.lost_valid = rate,
            "outage" => rates.outage = rate,
            "clock-outage" | "clock_outage" => rates.clock_outage = rate,
            "pulse-drop" | "pulse_drop" => rates.pulse_drop = rate,
            "skew-drift" | "skew_drift" => rates.skew_drift = rate,
            other => {
                return Err(CliError(format!(
                    "unknown fault key {other:?}; try jitter, spike, corrupt, drop, \
                     stuck, lost, outage, clock-outage, pulse-drop, skew-drift or \
                     window"
                )))
            }
        }
    }
    Ok(FaultSpec { rates, window })
}

/// The most threads one process may ask for: `--workers` on the
/// simulating subcommands and `serve`, and `explore`'s `--jobs` times its
/// `--workers`. A thread the OS refuses to spawn would panic mid-run.
const MAX_THREADS: usize = 1024;

/// Rejects a thread count above [`MAX_THREADS`]; `what` names its flags.
fn check_threads(what: &str, threads: usize) -> Result<(), CliError> {
    if threads > MAX_THREADS {
        return Err(CliError(format!(
            "{what} asks for {threads} threads; at most {MAX_THREADS} are allowed"
        )));
    }
    Ok(())
}

/// The most points `fig7` samples.
const FIG7_MAX_POINTS: usize = 100_000;

/// The most dies `yield` samples, about four minutes at 64 ports; a huge
/// count would abort allocating the per-die results.
const YIELD_MAX_SAMPLES: usize = 10_000_000;

/// `--key value` flag multiset with consumption tracking.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(CliError(format!("expected --flag, got {key:?}")));
            };
            // A flag followed by another flag (or by nothing) is a boolean
            // switch: it reads as "true". Value-taking flags still reject
            // it downstream when "true" fails to parse.
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_owned(),
            };
            flags.push((name.to_owned(), value));
        }
        Ok(Self(flags))
    }

    fn take_opt_string(&mut self, name: &str) -> Option<String> {
        let idx = self.0.iter().position(|(k, _)| k == name)?;
        Some(self.0.remove(idx).1)
    }

    fn take_string(&mut self, name: &str, default: &str) -> String {
        self.take_opt_string(name)
            .unwrap_or_else(|| default.to_owned())
    }

    /// `--name`: a finite number for which `valid` holds, the range its
    /// consumer asserts; `range` names it in the error.
    fn take_f64(
        &mut self,
        name: &str,
        default: f64,
        valid: fn(f64) -> bool,
        range: &str,
    ) -> Result<f64, CliError> {
        let Some(v) = self.take_opt_string(name) else {
            return Ok(default);
        };
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && valid(x) => Ok(x),
            Ok(_) => Err(CliError(format!("--{name} must be {range}, got {v:?}"))),
            Err(_) => Err(CliError(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    /// `--variation`: a systematic delay shift that keeps delays positive.
    fn take_variation(&mut self, default: f64) -> Result<f64, CliError> {
        self.take_f64(
            "variation",
            default,
            |v| v > -1.0,
            "a finite number above -1",
        )
    }

    /// `--sigma`: a random-mismatch standard deviation.
    fn take_sigma(&mut self, default: f64) -> Result<f64, CliError> {
        self.take_f64("sigma", default, |v| v >= 0.0, "a finite number at least 0")
    }

    fn take_u64(&mut self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.take_opt_string(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{name} expects an integer, got {v:?}"))),
        }
    }

    /// `--name`: an integer that fits a `u32`, rejected rather than
    /// wrapped when it does not.
    fn take_u32(&mut self, name: &str, default: u32) -> Result<u32, CliError> {
        let v = self.take_u64(name, u64::from(default))?;
        u32::try_from(v)
            .map_err(|_| CliError(format!("--{name} must be at most {}, got {v}", u32::MAX)))
    }

    fn take_usize(&mut self, name: &str, default: usize) -> Result<usize, CliError> {
        self.take_u64(name, default as u64).map(|v| v as usize)
    }

    /// `--cycles`: a run length whose half-cycle count fits in a `u64`.
    fn take_cycles(&mut self, default: u64) -> Result<u64, CliError> {
        let cycles = self.take_u64("cycles", default)?;
        if cycles > MAX_CYCLES {
            return Err(CliError(format!(
                "--cycles must be at most {MAX_CYCLES}, got {cycles}"
            )));
        }
        Ok(cycles)
    }

    /// `--tiles OUTSTANDING:SERVICE`: closed-loop tiles, each processor
    /// allowed at least one outstanding request.
    fn take_tiles(&mut self) -> Result<Option<(usize, u64)>, CliError> {
        let Some(spec) = self.take_opt_string("tiles") else {
            return Ok(None);
        };
        let (a, b) = spec
            .split_once(':')
            .ok_or_else(|| CliError(format!("tiles spec {spec:?} must be OUTSTANDING:SERVICE")))?;
        let outstanding = match a.parse() {
            Ok(0) => {
                return Err(CliError(
                    "--tiles needs an outstanding count of at least 1".into(),
                ))
            }
            Ok(n) => n,
            Err(_) => return Err(CliError(format!("bad outstanding count {a:?}"))),
        };
        let service = b
            .parse()
            .map_err(|_| CliError(format!("bad service cycles {b:?}")))?;
        Ok(Some((outstanding, service)))
    }

    /// `--packet-len`: flits per packet, at least one (default 1).
    fn take_packet_len(&mut self) -> Result<u32, CliError> {
        let len = self.take_u64("packet-len", 1)?;
        match u32::try_from(len) {
            Ok(len) if len > 0 => Ok(len),
            _ => Err(CliError(format!(
                "--packet-len must be between 1 and {}, got {len}",
                u32::MAX
            ))),
        }
    }

    /// `--pattern` (default `uniform:0.2`), in the
    /// [`TrafficPattern::parse`] grammar, with every port it names inside
    /// the `build` fabric.
    fn take_pattern(&mut self, build: &BuildOpts) -> Result<TrafficPattern, CliError> {
        let pattern =
            TrafficPattern::parse(&self.take_string("pattern", "uniform:0.2")).map_err(CliError)?;
        pattern.check_ports(build.ports).map_err(CliError)?;
        Ok(pattern)
    }

    fn take_kernel(&mut self) -> Result<SimKernel, CliError> {
        let kernel = match self.take_opt_string("kernel") {
            None => SimKernel::default(),
            Some(v) => SimKernel::parse(&v).map_err(CliError)?,
        };
        match self.take_opt_string("workers") {
            None => Ok(kernel),
            Some(v) => {
                let workers: u32 = v
                    .parse()
                    .map_err(|_| CliError(format!("--workers expects an integer, got {v:?}")))?;
                check_threads("--workers", workers as usize)?;
                match kernel {
                    SimKernel::Parallel { .. } => Ok(SimKernel::Parallel { workers }),
                    _ => Err(CliError("--workers requires --kernel parallel".to_owned())),
                }
            }
        }
    }

    fn take_bool(&mut self, name: &str) -> Result<bool, CliError> {
        match self.take_opt_string(name) {
            None => Ok(false),
            Some(v) => match v.as_str() {
                "true" | "on" | "yes" => Ok(true),
                "false" | "off" | "no" => Ok(false),
                _ => Err(CliError(format!(
                    "--{name} is a switch (true/false), got {v:?}"
                ))),
            },
        }
    }

    fn build_opts(&mut self) -> Result<BuildOpts, CliError> {
        let defaults = BuildOpts::default();
        let kind = match self.take_string("kind", "binary").as_str() {
            "binary" => TreeKind::Binary,
            "quad" => TreeKind::Quad,
            other => {
                return Err(CliError(format!(
                    "--kind must be binary or quad, got {other:?}"
                )))
            }
        };
        let clock = match self.take_opt_string("clock-backend") {
            None => defaults.clock,
            Some(v) => ClockBackend::parse(&v).map_err(CliError)?,
        };
        Ok(BuildOpts {
            ports: self.take_usize("ports", defaults.ports)?,
            kind,
            // Non-positive values are the builder's `InvalidConfig`.
            freq: self.take_f64("freq", defaults.freq, |_| true, "a finite number")?,
            die: self.take_f64("die", defaults.die, |_| true, "a finite number")?,
            width: self.take_u32("width", defaults.width)?,
            clock,
        })
    }

    fn finish(self) -> Result<(), CliError> {
        if let Some((k, _)) = self.0.first() {
            return Err(CliError(format!("unknown flag --{k}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_args_mean_help() {
        let cli = Cli::parse(Vec::<String>::new()).expect("parses");
        assert_eq!(cli.command, Command::Help);
    }

    #[test]
    fn info_with_defaults() {
        let cli = Cli::parse(["info"]).expect("parses");
        let Command::Info(build) = cli.command else {
            panic!("expected info");
        };
        assert_eq!(build, BuildOpts::default());
    }

    #[test]
    fn sim_with_everything() {
        let cli = Cli::parse([
            "sim",
            "--ports",
            "16",
            "--kind",
            "quad",
            "--freq",
            "1.2",
            "--pattern",
            "hotspot:0.3:0:0.5",
            "--cycles",
            "500",
            "--packet-len",
            "4",
            "--tiles",
            "4:5",
        ])
        .expect("parses");
        let Command::Sim {
            build,
            pattern,
            cycles,
            packet_len,
            tiles,
            ..
        } = cli.command
        else {
            panic!("expected sim");
        };
        assert_eq!(build.ports, 16);
        assert_eq!(build.kind, TreeKind::Quad);
        assert_eq!(cycles, 500);
        assert_eq!(packet_len, 4);
        assert_eq!(tiles, Some((4, 5)));
        assert!(matches!(pattern, TrafficPattern::Hotspot { .. }));
    }

    #[test]
    fn unknown_flags_and_commands_are_rejected() {
        assert!(Cli::parse(["info", "--bogus", "1"]).is_err());
        assert!(Cli::parse(["frobnicate"]).is_err());
        assert!(Cli::parse(["info", "--ports"]).is_err()); // missing value
        assert!(Cli::parse(["info", "--kind", "ring"]).is_err());
    }

    #[test]
    fn every_subcommand_names_an_unknown_flag() {
        const SUBCOMMANDS: [&str; 12] = [
            "info", "verify", "sim", "profile", "stats", "trace", "yield", "fig7", "explore",
            "serve", "faults", "help",
        ];
        // `--speculate` is a removed flag: bare and with a value, it is as
        // unknown on the subcommands that once took it as anywhere else.
        let tails: [&[&str]; 4] = [
            &["--speculate"],
            &["--speculate", "4"],
            &["--speculate", "off"],
            &["--bogus", "1"],
        ];
        for sub in SUBCOMMANDS {
            for tail in tails {
                let flag = tail[0].trim_start_matches("--");
                assert_eq!(
                    Cli::parse(std::iter::once(sub).chain(tail.iter().copied())),
                    Err(CliError(format!("unknown flag --{flag}"))),
                    "{sub} {tail:?}"
                );
            }
        }
    }

    #[test]
    fn boolean_switches_parse_without_a_value() {
        let cli = Cli::parse(["sim", "--diagnose", "--cycles", "100"]).expect("parses");
        let Command::Sim {
            diagnose, cycles, ..
        } = cli.command
        else {
            panic!("expected sim");
        };
        assert!(diagnose);
        assert_eq!(cycles, 100);
        // Trailing switch, explicit value, and absence all work.
        let cli = Cli::parse(["sim", "--diagnose"]).expect("parses");
        assert!(matches!(cli.command, Command::Sim { diagnose: true, .. }));
        let cli = Cli::parse(["sim", "--diagnose", "false"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Sim {
                diagnose: false,
                ..
            }
        ));
        let cli = Cli::parse(["sim"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Sim {
                diagnose: false,
                ..
            }
        ));
        assert!(Cli::parse(["sim", "--diagnose", "maybe"]).is_err());
    }

    #[test]
    fn sim_profile_flags_parse() {
        let cli = Cli::parse(["sim", "--profile", "--chrome-trace", "trace.json"]).expect("parses");
        let Command::Sim {
            profile,
            chrome_trace,
            ..
        } = cli.command
        else {
            panic!("expected sim");
        };
        assert!(profile);
        assert_eq!(chrome_trace.as_deref(), Some("trace.json"));
        // Both default off.
        let cli = Cli::parse(["sim"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Sim {
                profile: false,
                chrome_trace: None,
                ..
            }
        ));
    }

    #[test]
    fn profile_is_sim_with_the_profiler_attached() {
        for args in [
            &[][..],
            &["--ports", "64", "--kernel", "parallel", "--workers", "4"],
            &["--chrome-trace", "t.json", "--diagnose"],
            &["--faults", "soak", "--vcd", "x.vcd"],
        ] {
            let profile = Cli::parse(["profile"].iter().chain(args).copied());
            let sim = Cli::parse(["sim", "--profile"].iter().chain(args).copied());
            assert_eq!(profile, sim, "{args:?}");
            assert!(matches!(
                profile,
                Ok(Cli {
                    command: Command::Sim { profile: true, .. }
                })
            ));
        }
        assert_eq!(
            Cli::parse(["profile", "--teapots"]),
            Cli::parse(["sim", "--profile", "--teapots"])
        );
    }

    #[test]
    fn stats_parses_format_and_output() {
        let cli = Cli::parse([
            "stats", "--ports", "16", "--format", "csv", "--out", "x.csv",
        ])
        .expect("parses");
        let Command::Stats {
            build, format, out, ..
        } = cli.command
        else {
            panic!("expected stats");
        };
        assert_eq!(build.ports, 16);
        assert_eq!(format, StatsFormat::Csv);
        assert_eq!(out.as_deref(), Some("x.csv"));
        // Default format is JSON; unknown formats are rejected.
        let cli = Cli::parse(["stats"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Stats {
                format: StatsFormat::Json,
                out: None,
                ..
            }
        ));
        assert!(Cli::parse(["stats", "--format", "xml"]).is_err());
    }

    #[test]
    fn trace_parses_capacity_and_limit() {
        let cli = Cli::parse(["trace", "--capacity", "128", "--limit", "10"]).expect("parses");
        let Command::Trace {
            capacity,
            limit,
            vcd,
            ..
        } = cli.command
        else {
            panic!("expected trace");
        };
        assert_eq!(capacity, 128);
        assert_eq!(limit, 10);
        assert_eq!(vcd, None);
        // A zero-capacity ring would panic downstream; reject it here.
        assert!(Cli::parse(["trace", "--capacity", "0"]).is_err());
    }

    #[test]
    fn zero_length_packets_are_rejected_on_every_simulating_subcommand() {
        // A packet needs at least one flit: zero (or a length that
        // truncates to zero in 32 bits) would panic in the simulator.
        for sub in ["sim", "stats", "trace", "faults", "profile"] {
            for len in ["0", "4294967296"] {
                assert_eq!(
                    Cli::parse([sub, "--packet-len", len]),
                    Err(CliError(format!(
                        "--packet-len must be between 1 and 4294967295, got {len}"
                    ))),
                    "{sub} --packet-len {len}"
                );
            }
            let cli = Cli::parse([sub, "--packet-len", "3"]).expect("parses");
            let packet_len = match cli.command {
                Command::Sim { packet_len, .. }
                | Command::Stats { packet_len, .. }
                | Command::Trace { packet_len, .. }
                | Command::Faults { packet_len, .. } => packet_len,
                other => panic!("{sub} parsed as {other:?}"),
            };
            assert_eq!(packet_len, 3, "{sub}");
        }
    }

    #[test]
    fn float_flags_outside_their_consumers_ranges_are_rejected() {
        // Each of these reached a constructor assert (or an unbounded
        // allocation) before the parser checked its range.
        let (above_minus_one, at_least_zero, above_zero, finite) = (
            "must be a finite number above -1, got",
            "must be a finite number at least 0, got",
            "must be a finite number above 0, got",
            "must be a finite number, got",
        );
        for (line, rule) in [
            ("verify --variation -5", above_minus_one),
            ("verify --variation nan", above_minus_one),
            ("verify --sigma -1", at_least_zero),
            ("yield --sigma -1", at_least_zero),
            ("yield --variation nan", above_minus_one),
            ("fig7 --step-mm 0", above_zero),
            ("fig7 --step-mm -1", above_zero),
            ("fig7 --step-mm nan", above_zero),
            ("fig7 --max-mm -1", at_least_zero),
            ("fig7 --max-mm nan", at_least_zero),
            ("fig7 --max-mm inf", at_least_zero),
            ("fig7 --max-mm 1e9 --step-mm 1e-9", "at most 100000 points"),
            ("sim --freq nan", finite),
            ("sim --die nan", finite),
            ("sim --die inf", finite),
            ("info --freq -inf", finite),
        ] {
            let err = Cli::parse(line.split(' ')).expect_err(line);
            let flag = line.split(' ').nth(1).expect("a flag");
            assert!(
                err.0.contains(flag) && err.0.contains(rule),
                "{line}: {err}"
            );
        }
        // Non-positive builds stay the builder's error, and the edges of
        // each range parse.
        for line in [
            "sim --freq -1 --die 0",
            "verify --variation -0.5 --sigma 0",
            "fig7 --max-mm 0 --step-mm 1e-9",
            "fig7 --max-mm 9999.9 --step-mm 0.1",
        ] {
            assert!(Cli::parse(line.split(' ')).is_ok(), "{line}");
        }
    }

    #[test]
    fn cycle_counts_past_the_tick_range_and_idle_tiles_are_rejected() {
        for sub in ["sim", "stats", "trace", "faults", "profile"] {
            assert_eq!(
                Cli::parse([sub, "--cycles", "9223372036854775808"]),
                Err(CliError(
                    "--cycles must be at most 9223372036854775807, got 9223372036854775808"
                        .to_owned()
                )),
                "{sub}"
            );
            assert!(Cli::parse([sub, "--cycles", "9223372036854775807"]).is_ok());
        }
        for sub in ["sim", "stats", "profile"] {
            assert_eq!(
                Cli::parse([sub, "--tiles", "0:3"]),
                Err(CliError(
                    "--tiles needs an outstanding count of at least 1".to_owned()
                )),
                "{sub}"
            );
            assert!(Cli::parse([sub, "--tiles", "4:18446744073709551615"]).is_ok());
        }
    }

    #[test]
    fn yield_needs_at_least_one_sample() {
        assert_eq!(
            Cli::parse(["yield", "--samples", "0"]),
            Err(CliError("--samples must be at least 1".to_owned()))
        );
        let cli = Cli::parse(["yield", "--samples", "1"]).expect("parses");
        assert!(matches!(cli.command, Command::Yield { samples: 1, .. }));
        assert_eq!(
            Cli::parse(["yield", "--samples", "10000001"]),
            Err(CliError("--samples must be at most 10000000".to_owned()))
        );
    }

    #[test]
    fn fault_specs_parse_soak_scaled_and_explicit() {
        let soak = parse_fault_spec("soak").expect("parses");
        assert_eq!(soak.rates, FaultRates::soak());
        assert_eq!(soak.window, None);
        let scaled = parse_fault_spec("soak*0.5").expect("parses");
        assert_eq!(scaled.rates, FaultRates::soak().scaled(0.5));
        let explicit = parse_fault_spec("jitter=0.1,drop=0.01,window=100:900").expect("parses");
        assert!((explicit.rates.link_jitter - 0.1).abs() < 1e-12);
        assert!((explicit.rates.flit_drop - 0.01).abs() < 1e-12);
        assert_eq!(explicit.rates.skew_spike, 0.0);
        assert_eq!(explicit.window, Some((100, 900)));
        // Malformed specs are rejected with a hint.
        assert!(parse_fault_spec("jitter").is_err());
        assert!(parse_fault_spec("glitch=0.1").is_err());
        assert!(parse_fault_spec("jitter=1.5").is_err());
        assert!(parse_fault_spec("window=9:9").is_err());
        assert!(parse_fault_spec("soak*-1").is_err());
    }

    #[test]
    fn non_finite_fault_scales_are_rejected() {
        for profile in ["soak", "clock-soak"] {
            for scale in ["nan", "NaN", "inf", "infinity", "1e309"] {
                let spec = format!("{profile}*{scale}");
                let err = parse_fault_spec(&spec).expect_err(&spec);
                assert!(err.0.contains("finite"), "{spec}: {err}");
            }
            assert!(parse_fault_spec(&format!("{profile}*-inf")).is_err());
        }
        assert!(Cli::parse(["faults", "--spec", "soak*nan"]).is_err());
        assert!(Cli::parse(["sim", "--faults", "clock-soak*NaN"]).is_err());
        // The largest finite scale saturates every nonzero rate at 1.
        let huge = parse_fault_spec("soak*1e308").expect("parses");
        assert_eq!(huge.rates.link_jitter, 1.0);
        assert_eq!(huge.rates.clock_outage, 0.0);
    }

    #[test]
    fn clock_fault_specs_parse_and_unknown_keys_name_the_valid_set() {
        let clock = parse_fault_spec("clock-soak").expect("parses");
        assert_eq!(clock.rates, FaultRates::clock_soak());
        let scaled = parse_fault_spec("clock-soak*0.5").expect("parses");
        assert_eq!(scaled.rates, FaultRates::clock_soak().scaled(0.5));
        let explicit = parse_fault_spec("clock-outage=0.001,pulse-drop=0.002,skew-drift=0.003")
            .expect("parses");
        assert!((explicit.rates.clock_outage - 0.001).abs() < 1e-12);
        assert!((explicit.rates.pulse_drop - 0.002).abs() < 1e-12);
        assert!((explicit.rates.skew_drift - 0.003).abs() < 1e-12);
        // Underscore spellings are accepted too.
        let underscored = parse_fault_spec("clock_outage=0.01").expect("parses");
        assert!((underscored.rates.clock_outage - 0.01).abs() < 1e-12);
        // An unknown key fails with an error naming every valid kind.
        let err = parse_fault_spec("clock=0.1").expect_err("unknown key");
        for key in [
            "jitter",
            "spike",
            "corrupt",
            "drop",
            "stuck",
            "lost",
            "outage",
            "clock-outage",
            "pulse-drop",
            "skew-drift",
            "window",
        ] {
            assert!(err.0.contains(key), "error must name {key:?}: {err}");
        }
    }

    #[test]
    fn clock_backend_flag_parses_and_rejects_unknowns() {
        let cli = Cli::parse(["info", "--clock-backend", "redundant"]).expect("parses");
        let Command::Info(build) = cli.command else {
            panic!("expected info");
        };
        assert_eq!(build.clock, ClockBackend::Redundant);
        let err = Cli::parse(["info", "--clock-backend", "mesh"]).expect_err("unknown");
        assert!(err.0.contains("forwarded"), "{err}");
        assert!(err.0.contains("redundant"), "{err}");
    }

    #[test]
    fn faults_subcommand_parses_with_defaults() {
        let cli = Cli::parse(["faults", "--ports", "16", "--spec", "soak*2"]).expect("parses");
        let Command::Faults {
            build,
            cycles,
            seed,
            spec,
            ..
        } = cli.command
        else {
            panic!("expected faults");
        };
        assert_eq!(build.ports, 16);
        assert_eq!(cycles, 10_000);
        assert_eq!(seed, 42);
        assert_eq!(spec.rates, FaultRates::soak().scaled(2.0));
        // `--profile` attaches the kernel profiler to the same run.
        let profiled = Cli::parse(["faults", "--ports", "16", "--spec", "soak*2", "--profile"])
            .expect("parses");
        assert_eq!(
            profiled.command,
            Command::ProfiledFaults(Box::new(
                Cli::parse(["faults", "--ports", "16", "--spec", "soak*2"])
                    .expect("parses")
                    .command
            ))
        );
        assert!(Cli::parse(["faults", "--profile", "--chrome-trace", "t.json"]).is_err());
        // `sim --faults` carries the same spec grammar.
        let cli = Cli::parse(["sim", "--faults", "drop=0.01"]).expect("parses");
        let Command::Sim { faults, .. } = cli.command else {
            panic!("expected sim");
        };
        let faults = faults.expect("spec present");
        assert!((faults.rates.flit_drop - 0.01).abs() < 1e-12);
    }

    #[test]
    fn explore_parses_grid_jobs_and_cache_flags() {
        let cli = Cli::parse([
            "explore",
            "--grid",
            "freq=0.8,1.0;corner=nominal",
            "--jobs",
            "4",
            "--cache-dir",
            ".cache",
            "--quiet",
        ])
        .expect("parses");
        let Command::Explore {
            grid,
            jobs,
            workers,
            cache_dir,
            resume,
            out,
            quiet,
            profile,
            speculate,
            server,
            priority,
        } = cli.command
        else {
            panic!("expected explore");
        };
        assert_eq!(server, None);
        assert_eq!(priority, 0);
        assert_eq!(speculate, None);
        assert_eq!(grid, "freq=0.8,1.0;corner=nominal");
        assert_eq!(jobs, 4);
        assert_eq!(workers, None);
        assert_eq!(cache_dir.as_deref(), Some(".cache"));
        assert!(!resume);
        assert_eq!(out, "BENCH_explore.json");
        assert!(quiet);
        assert!(!profile);
        // `--profile` attaches per-job perf telemetry to the sweep.
        let cli = Cli::parse(["explore", "--profile"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Explore { profile: true, .. }
        ));
        // `--workers` selects the parallel simulation kernel per job.
        let cli = Cli::parse(["explore", "--workers", "2"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Explore {
                workers: Some(2),
                ..
            }
        ));
        // Defaults: serial, no cache, standard output file.
        let cli = Cli::parse(["explore"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Explore {
                jobs: 1,
                cache_dir: None,
                resume: false,
                quiet: false,
                ..
            }
        ));
        // `--resume` is a switch; zero workers make no sense.
        let cli = Cli::parse(["explore", "--resume"]).expect("parses");
        assert!(matches!(cli.command, Command::Explore { resume: true, .. }));
        assert!(Cli::parse(["explore", "--jobs", "0"]).is_err());
    }

    #[test]
    fn explore_server_mode_parses_and_rejects_execution_flags() {
        let cli = Cli::parse([
            "explore",
            "--server",
            "127.0.0.1:7070",
            "--grid",
            "freq=0.8,1.0",
            "--priority",
            "3",
        ])
        .expect("parses");
        let Command::Explore {
            server, priority, ..
        } = cli.command
        else {
            panic!("expected explore");
        };
        assert_eq!(server.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(priority, 3);
        // Execution flags are the daemon's decisions, not the client's.
        for conflict in [
            ["--jobs", "4"],
            ["--workers", "2"],
            ["--cache-dir", ".c"],
            ["--resume", "true"],
            ["--profile", "true"],
        ] {
            let args = [
                "explore",
                "--server",
                "127.0.0.1:7070",
                conflict[0],
                conflict[1],
            ];
            let err = Cli::parse(args).expect_err("conflicting flag");
            assert!(err.0.contains("daemon"), "{err}");
        }
        // Priority only means something to a daemon.
        assert!(Cli::parse(["explore", "--priority", "3"]).is_err());
    }

    #[test]
    fn explore_rejects_a_malformed_grid_at_parse_time() {
        for grid in ["freq=nan", "width=4294967328;cycles=10"] {
            for server in [&[][..], &["--server", "127.0.0.1:7070"][..]] {
                let mut args = vec!["explore", "--grid", grid];
                args.extend_from_slice(server);
                let err = Cli::parse(args).expect_err("malformed grid");
                assert!(err.0.contains(grid.split('=').next().unwrap()), "{err}");
            }
        }
    }

    #[test]
    fn serve_parses_with_defaults_and_rejects_degenerates() {
        let cli = Cli::parse(["serve"]).expect("parses");
        let Command::Serve {
            addr,
            state_dir,
            workers,
            queue_limit,
        } = cli.command
        else {
            panic!("expected serve");
        };
        assert_eq!(addr, "127.0.0.1:7070");
        assert_eq!(state_dir, icnoc_explore::DEFAULT_CACHE_DIR);
        assert_eq!(workers, 2);
        assert_eq!(queue_limit, 256);
        let cli = Cli::parse([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state-dir",
            "/tmp/x",
            "--workers",
            "4",
            "--queue-limit",
            "8",
        ])
        .expect("parses");
        assert!(matches!(
            cli.command,
            Command::Serve {
                workers: 4,
                queue_limit: 8,
                ..
            }
        ));
        assert!(Cli::parse(["serve", "--workers", "0"]).is_err());
        assert!(Cli::parse(["serve", "--queue-limit", "0"]).is_err());
    }

    #[test]
    fn integer_flags_past_u32_are_rejected_not_wrapped() {
        // 4294967328 is 2^32 + 32: a wrapping cast read it as width 32.
        let err = Cli::parse(["info", "--width", "4294967328"]).expect_err("wraps");
        assert_eq!(err.0, "--width must be at most 4294967295, got 4294967328");
        assert!(Cli::parse(["sim", "--width", "4294967296"]).is_err());
        assert!(Cli::parse(["info", "--width", "4294967295"]).is_ok());
        // 2^32 wrapped to priority 0, which passed the no-server check.
        let err = Cli::parse(["explore", "--priority", "4294967296"]).expect_err("wraps");
        assert!(err.0.contains("at most 4294967295"), "{err}");
        let cli = Cli::parse([
            "explore",
            "--server",
            "127.0.0.1:7070",
            "--priority",
            "4294967295",
        ])
        .expect("parses");
        assert!(matches!(
            cli.command,
            Command::Explore {
                priority: u32::MAX,
                ..
            }
        ));
    }

    #[test]
    fn thread_counts_past_the_cap_are_rejected() {
        // Parsed only: no test starts these threads.
        let over = (MAX_THREADS + 1).to_string();
        let cap = MAX_THREADS.to_string();
        for sub in ["sim", "profile", "faults", "stats", "trace"] {
            let args = [sub, "--kernel", "parallel", "--workers", over.as_str()];
            let err = Cli::parse(args).expect_err(sub);
            assert!(err.0.contains("at most 1024"), "{sub}: {err}");
            let args = [sub, "--kernel", "parallel", "--workers", cap.as_str()];
            assert!(Cli::parse(args).is_ok(), "{sub}");
        }
        assert!(Cli::parse(["serve", "--workers", over.as_str()]).is_err());
        assert!(Cli::parse(["serve", "--workers", cap.as_str()]).is_ok());
        // `explore` runs `--jobs` jobs of `--workers` threads each.
        for (jobs, workers, ok) in [
            ("1024", None, true),
            ("1025", None, false),
            ("32", Some("32"), true),
            ("64", Some("32"), false),
            ("1", Some("0"), true),
            ("2", Some("4294967295"), false),
            ("18446744073709551615", Some("2"), false),
        ] {
            let mut args = vec!["explore", "--jobs", jobs];
            args.extend(workers.map(|w| ["--workers", w]).into_iter().flatten());
            assert_eq!(Cli::parse(args.clone()).is_ok(), ok, "{args:?}");
        }
    }

    #[test]
    fn kernel_flag_selects_the_stepper() {
        let cli = Cli::parse(["sim", "--kernel", "dense"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Sim {
                kernel: SimKernel::Dense,
                ..
            }
        ));
        // The event kernel is the default, under either spelling.
        let cli = Cli::parse(["sim"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Sim {
                kernel: SimKernel::EventDriven,
                ..
            }
        ));
        let cli = Cli::parse(["stats", "--kernel", "event-driven"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Stats {
                kernel: SimKernel::EventDriven,
                ..
            }
        ));
        assert!(Cli::parse(["sim", "--kernel", "sparse"]).is_err());
        // The parallel kernel takes a worker count; 0 (and the default)
        // mean one worker per core.
        let cli = Cli::parse(["sim", "--kernel", "parallel", "--workers", "4"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Sim {
                kernel: SimKernel::Parallel { workers: 4 },
                ..
            }
        ));
        let cli = Cli::parse(["faults", "--kernel", "parallel"]).expect("parses");
        assert!(matches!(
            cli.command,
            Command::Faults {
                kernel: SimKernel::Parallel { workers: 0 },
                ..
            }
        ));
        // --workers without the parallel kernel is a contradiction.
        assert!(Cli::parse(["sim", "--workers", "4"]).is_err());
        assert!(Cli::parse(["sim", "--kernel", "event", "--workers", "4"]).is_err());
        assert!(Cli::parse(["sim", "--kernel", "parallel", "--workers", "x"]).is_err());
    }

    #[test]
    fn pattern_specs_round_trip() {
        let pattern = |spec: &str| match Cli::parse(["sim", "--pattern", spec]) {
            Ok(Cli {
                command: Command::Sim { pattern, .. },
            }) => Ok(pattern),
            Ok(other) => panic!("not a sim command: {other:?}"),
            Err(e) => Err(e),
        };
        assert_eq!(
            pattern("uniform:0.25").expect("parses"),
            TrafficPattern::Uniform { rate: 0.25 }
        );
        assert_eq!(
            pattern("saturate").expect("parses"),
            TrafficPattern::Saturate
        );
        assert_eq!(
            pattern("bursty:10:90").expect("parses"),
            TrafficPattern::Bursty {
                burst: 10,
                idle: 90
            }
        );
        assert_eq!(
            pattern("memory:0.1").expect("parses"),
            TrafficPattern::RandomMemory { rate: 0.1 }
        );
        assert!(pattern("wavy:1").is_err());
        assert!(pattern("uniform:abc").is_err());
        assert!(pattern("uniform:nan").is_err());
        assert!(pattern("bursty:-1:10").is_err());
    }

    #[test]
    fn hotspot_targets_outside_the_fabric_are_rejected() {
        for sub in ["sim", "profile", "stats", "trace", "faults"] {
            let spec = "hotspot:0.3:99:0.5";
            let err = Cli::parse([sub, "--ports", "8", "--pattern", spec]).expect_err(sub);
            assert_eq!(
                err.0, "hotspot target 99 is outside the 8-port fabric",
                "{sub}"
            );
            assert!(Cli::parse([sub, "--ports", "128", "--pattern", spec]).is_ok());
        }
    }

    /// Grammar-aware fuzzing of [`parse_fault_spec`]: valid specs from
    /// the key list, both profiles, scales and windows, then truncated,
    /// spliced, byte-flipped or given `nan`/`inf`/huge numbers.
    mod fault_spec_grammar {
        use super::*;
        use icnoc_sim::FaultPlan;
        use proptest::prelude::*;
        use proptest::TestRng;

        const KEYS: [&str; 13] = [
            "jitter",
            "spike",
            "corrupt",
            "drop",
            "stuck",
            "lost",
            "outage",
            "clock-outage",
            "clock_outage",
            "pulse-drop",
            "pulse_drop",
            "skew-drift",
            "skew_drift",
        ];

        const ODD_NUMBERS: [&str; 12] = [
            "nan",
            "NaN",
            "inf",
            "-inf",
            "infinity",
            "1e309",
            "1e308",
            "-0",
            "5e-324",
            "-1",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ];

        fn below(rng: &mut TestRng, n: usize) -> usize {
            (rng.next_u64() % n as u64) as usize
        }

        fn valid_spec(rng: &mut TestRng) -> String {
            let profile = ["soak", "clock-soak"][below(rng, 2)];
            match below(rng, 3) {
                0 => profile.to_owned(),
                1 => format!("{profile}*{}", rng.next_f64() * 4.0),
                _ => {
                    let mut entries: Vec<String> = (0..1 + below(rng, 4))
                        .map(|_| format!("{}={}", KEYS[below(rng, KEYS.len())], rng.next_f64()))
                        .collect();
                    if below(rng, 2) == 0 {
                        let start = rng.next_u64() % 10_000;
                        let end = start + 1 + rng.next_u64() % 10_000;
                        entries.insert(
                            below(rng, entries.len() + 1),
                            format!("window={start}:{end}"),
                        );
                    }
                    entries.join(",")
                }
            }
        }

        /// Replaces the number after a random `=`, `*` or `:` with an odd one.
        fn substitute_number(rng: &mut TestRng, spec: &str) -> String {
            let marks: Vec<usize> = spec
                .match_indices(['=', '*', ':'])
                .map(|(i, _)| i + 1)
                .collect();
            if marks.is_empty() {
                return spec.to_owned();
            }
            let start = marks[below(rng, marks.len())];
            let end = spec[start..]
                .find([',', ':'])
                .map_or(spec.len(), |n| start + n);
            let odd = ODD_NUMBERS[below(rng, ODD_NUMBERS.len())];
            format!("{}{odd}{}", &spec[..start], &spec[end..])
        }

        fn mutate(rng: &mut TestRng, mut spec: String) -> String {
            for _ in 0..below(rng, 4) {
                let mut bytes = spec.into_bytes();
                match below(rng, 4) {
                    0 => bytes.truncate(below(rng, bytes.len() + 1)),
                    1 => {
                        let other = valid_spec(rng).into_bytes();
                        let from = below(rng, other.len() + 1);
                        let at = below(rng, bytes.len() + 1);
                        bytes.splice(at..at, other[from..].iter().copied());
                    }
                    2 if !bytes.is_empty() => {
                        let i = below(rng, bytes.len());
                        bytes[i] ^= 1 << below(rng, 8);
                    }
                    _ => {
                        let text = String::from_utf8_lossy(&bytes).into_owned();
                        bytes = substitute_number(rng, &text).into_bytes();
                    }
                }
                spec = String::from_utf8_lossy(&bytes).into_owned();
            }
            spec
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2_000))]

            #[test]
            fn parsed_specs_build_fault_plans_and_the_rest_are_errors(seed in any::<u64>()) {
                let mut rng = TestRng::from_name(&seed.to_string());
                let spec = valid_spec(&mut rng);
                let spec = mutate(&mut rng, spec);
                // `Ok` or `Err(CliError)`: a panic fails the case.
                if let Ok(parsed) = parse_fault_spec(&spec) {
                    let plan = FaultPlan::new(seed).with_rates(parsed.rates);
                    if let Some((start, end)) = parsed.window {
                        let _ = plan.with_window(start, end);
                    }
                }
            }
        }
    }
}

//! Command execution: turns a parsed [`Cli`] into output text.

use crate::args::{BuildOpts, Cli, CliError, Command, FaultSpec, StatsFormat};
use icnoc::{System, SystemBuilder};
use icnoc_explore::{run_sweep, GridSpec, JsonValue, ResultCache, SweepOptions, DEFAULT_CACHE_DIR};
use icnoc_serve::{client, RegistryConfig, Server};
use icnoc_sim::{
    FaultPlan, Network, SimKernel, TileTraffic, TraceEventKind, TrafficPattern, VcdTrace,
};
use icnoc_timing::{PipelineTimingModel, ProcessVariation};
use icnoc_units::{Gigahertz, Millimeters};
use std::fmt::Write as _;
use std::io::Write as _;

const USAGE: &str = "\
icnoc — build, verify and simulate IC-NoC systems (DATE 2007 reproduction)

USAGE:
  icnoc info   [--ports 64] [--kind binary|quad] [--freq 1.0] [--die 10] [--width 32]
               [--clock-backend forwarded|redundant]
  icnoc verify [build opts] [--variation 0.3] [--sigma 0.05] [--top 10]
  icnoc sim    [build opts] [--pattern uniform:0.2] [--cycles 2000] [--seed 42]
               [--packet-len 1] [--tiles OUTSTANDING:SERVICE] [--vcd out.vcd]
               [--diagnose] [--faults SPEC] [--kernel event|dense|parallel] [--workers N]
               [--profile] [--chrome-trace trace.json]
  icnoc profile [build opts] [sim opts]   (an alias of sim --profile)
  icnoc stats  [build opts] [sim opts] [--format json|csv] [--out stats.json]
  icnoc trace  [build opts] [sim opts] [--capacity 4096] [--limit 40] [--vcd out.vcd]
  icnoc faults [build opts] [--pattern uniform:0.2] [--cycles 10000] [--seed 42]
               [--packet-len 1] [--spec soak] [--kernel event|dense|parallel] [--workers N]
               [--profile]
  icnoc yield  [build opts] [--variation 0.2] [--sigma 0.05] [--samples 200] [--seed 42]
  icnoc fig7   [--max-mm 3.0] [--step-mm 0.1]
  icnoc explore [--grid SPEC] [--jobs 1] [--workers N] [--cache-dir DIR] [--resume]
               [--out BENCH_explore.json] [--quiet] [--profile]
               [--server ADDR] [--priority N]
  icnoc serve  [--addr 127.0.0.1:7070] [--state-dir DIR] [--workers 2]
               [--queue-limit 256]

PATTERNS: uniform:R  neighbor:R  memory:R  hotspot:R:TARGET:F  bursty:B:I  saturate  silent
FAULTS:   soak  clock-soak  soak*F  clock-soak*F  key=rate[,key=rate...] over
          jitter, spike, corrupt, drop, stuck, lost, outage, clock-outage,
          pulse-drop, skew-drift, plus window=START:END (ticks)
GRID:     `;`-separated axes of `name=v1,v2,...` (ranges `lo..hi/n`) over kind,
          ports, die, width, freq (GHz), thalf (ps), corner, pattern, cycles,
          soak, seed, clock (forwarded|redundant) —
          e.g. \"freq=0.8..1.2/5;corner=nominal,slow30;soak=1\"
KERNEL:   event (default, activity-list stepping on one shard), dense
          (full scan, the differential-testing oracle) or parallel (the
          same activity-list step on subtree shards, one worker thread
          each; --workers N, 0 = one per core) — all bit-identical per
          seed. explore --workers N simulates each job with the parallel
          kernel at N workers without changing results or cache keys.
          Fault plans (faults, sim --faults) and trace sinks (stats,
          trace) run on every kernel; a traced run visits each blocked
          edge once to report it, never the whole dense scan
PROFILE:  sim --profile (or its alias, profile) attaches the kernel
          profiler: per-shard step/wake counters, a load-imbalance ratio
          and the barrier-overhead fraction. --chrome-trace FILE writes a
          trace-event timeline loadable at ui.perfetto.dev. faults
          --profile prints the same summary after the fault ledger.
          explore --profile adds per-job perf telemetry to the sweep JSON
SERVE:    `icnoc serve` runs a resident sweep daemon on a local TCP
          socket (writes the bound address to <state-dir>/endpoint);
          `icnoc explore --server ADDR` submits the grid there instead
          of executing locally. Identical jobs from concurrent clients
          execute once, accepted sweeps are journalled for resume after
          a crash, and a full queue answers a structured retry-after";

/// Executes `cli`, returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] when the system cannot be built or an output file
/// cannot be written.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    match &cli.command {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Info(build) => {
            let sys = build_system(build)?;
            Ok(sys.summary().to_string())
        }
        Command::Verify {
            build,
            variation,
            sigma,
            top,
        } => {
            let sys = build_system(build)?;
            let var = ProcessVariation::new(*variation, *sigma);
            let verification = sys.verify_under(var, 3.0);
            let mut out = verification.sta_report(*top);
            if !verification.is_timing_safe() {
                let safe = sys.max_safe_frequency(var, 3.0);
                let _ = write!(
                    out,
                    "\n  hint: this variation is safe at {safe:.3} or below \
                     (graceful degradation)"
                );
            }
            Ok(out)
        }
        Command::Sim {
            build,
            pattern,
            cycles,
            seed,
            packet_len,
            tiles,
            vcd,
            diagnose,
            faults,
            kernel,
            speculate: _,
            profile,
            chrome_trace,
        } => {
            let sys = build_system(build)?;
            let mut net = build_network(&sys, pattern, *tiles, *seed, *packet_len, *kernel);
            if let Some(spec) = faults {
                net.enable_faults(fault_plan(&sys, spec, *seed));
            }
            if *profile || chrome_trace.is_some() {
                net.enable_profiling();
            }

            let trace = vcd
                .is_some()
                .then(|| VcdTrace::record(&mut net, (*cycles).min(200)));
            let drained = net.run_and_drain(*cycles);
            if let Err(timeout) = &drained {
                // Stderr only: the report counts these flits as undelivered,
                // and stdout stays byte-stable.
                eprintln!(
                    "warning: drain timed out after its {}-cycle budget with {} flit(s) \
                     still in flight — --diagnose names the holders",
                    timeout.cycles, timeout.in_flight
                );
            }
            let drained = drained.is_ok();
            let report = net.report();

            let mut out = String::new();
            let _ = writeln!(out, "{report}");
            if report.responses > 0 {
                let _ = writeln!(
                    out,
                    "round trips: {} responses, mean {:.1} cycles (max {:.1})",
                    report.responses,
                    report.round_trip.mean_cycles(),
                    report.round_trip.max_cycles()
                );
            }
            let _ = writeln!(out, "{}", sys.power_report(&report));
            if let Some(recovery) = &report.recovery {
                let _ = writeln!(out, "{recovery}");
            }
            let _ = write!(
                out,
                "correct: {} (lost {}, dup {}, reordered {}, interleaved {})",
                report.is_correct(),
                report.lost(),
                report.duplicated,
                report.reordered,
                report.interleaved
            );
            if *diagnose {
                let holders = net.diagnose_stall();
                if holders.is_empty() {
                    let _ = write!(out, "\ndiagnose: drained clean, no flits in flight");
                } else {
                    let _ = write!(
                        out,
                        "\ndiagnose: {} element(s) still hold flits{}",
                        holders.len(),
                        if drained { "" } else { " (drain timed out)" }
                    );
                    for h in holders {
                        let _ = write!(out, "\n  {h}");
                    }
                }
            }
            if let (Some(path), Some(trace)) = (vcd, trace) {
                std::fs::write(path, trace.render(half_period_ps(build)))
                    .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
                let _ = write!(out, "\nwaveform written to {path}");
            }
            if let Some(perf) = &report.perf {
                let _ = write!(out, "\n{}", perf.summary());
                if let Some(path) = chrome_trace {
                    std::fs::write(path, perf.chrome_trace_json())
                        .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
                    let _ = write!(out, "\nchrome trace written to {path}");
                }
            }
            Ok(out)
        }
        Command::Stats {
            build,
            pattern,
            cycles,
            seed,
            packet_len,
            tiles,
            format,
            out,
            kernel,
        } => {
            let sys = build_system(build)?;
            let mut net = build_network(&sys, pattern, *tiles, *seed, *packet_len, *kernel);
            net.enable_counters();
            let _ = net.run_and_drain(*cycles);
            let report = net.report();
            let obs = report
                .observability
                .as_ref()
                .expect("counters were enabled");
            let text = match format {
                StatsFormat::Json => obs.to_json(),
                StatsFormat::Csv => format!(
                    "# elements\n{}\n# flows\n{}",
                    obs.elements_csv().trim_end(),
                    obs.flows_csv().trim_end()
                ),
            };
            match out {
                Some(path) => {
                    std::fs::write(path, &text)
                        .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
                    Ok(format!("stats written to {path}"))
                }
                None => Ok(text.trim_end().to_owned()),
            }
        }
        Command::Trace {
            build,
            pattern,
            cycles,
            seed,
            packet_len,
            capacity,
            limit,
            vcd,
            kernel,
        } => {
            let sys = build_system(build)?;
            let mut net = build_network(&sys, pattern, None, *seed, *packet_len, *kernel);
            net.enable_event_buffer(*capacity);

            let trace = vcd
                .is_some()
                .then(|| VcdTrace::record(&mut net, (*cycles).min(200)));
            net.run_cycles(cycles.saturating_sub(net.tick() / 2));

            let buffer = net.event_buffer().expect("event buffer was enabled");
            let events = buffer.events();
            let shown = (*limit).min(events.len());
            let mut out = String::new();
            let _ = write!(
                out,
                "{} event(s) retained ({} overwritten), showing last {shown}:",
                events.len(),
                buffer.overwritten()
            );
            for ev in &events[events.len() - shown..] {
                let label = net.element_label(ev.element).unwrap_or("?");
                let _ = write!(
                    out,
                    "\n  [{:>8}] {:<16} {:<12} flit {}->{} seq {}",
                    ev.tick,
                    describe_kind(ev.kind),
                    label,
                    ev.flit.src.0,
                    ev.flit.dest.0,
                    ev.flit.seq
                );
            }
            if let (Some(path), Some(trace)) = (vcd, trace) {
                std::fs::write(path, trace.render(half_period_ps(build)))
                    .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
                let _ = write!(out, "\nwaveform written to {path}");
            }
            Ok(out)
        }
        Command::Yield {
            build,
            variation,
            sigma,
            samples,
            seed,
        } => {
            let sys = build_system(build)?;
            let var = ProcessVariation::new(*variation, *sigma);
            let y = sys.yield_analysis(var, *samples, *seed);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "yield over {} dies (systematic +{:.0}%, sigma {:.0}%):",
                y.samples(),
                variation * 100.0,
                sigma * 100.0
            );
            let _ = writeln!(
                out,
                "  fmax: min {:.3}, median {:.3}, max {:.3}",
                y.min_fmax(),
                y.median_fmax(),
                y.max_fmax()
            );
            for f in [0.6, 0.8, 1.0, 1.2] {
                let _ = writeln!(
                    out,
                    "  yield at {f:.1} GHz: {:>5.1}%",
                    y.yield_at(Gigahertz::new(f)) * 100.0
                );
            }
            let _ = write!(
                out,
                "  99% yield frequency: {:.3}",
                y.frequency_at_yield(0.99)
            );
            Ok(out)
        }
        Command::Faults { .. } => run_faults(&cli.command, false),
        Command::ProfiledFaults(faults) => run_faults(faults, true),
        Command::Explore {
            grid,
            jobs,
            workers,
            cache_dir,
            resume,
            out,
            quiet,
            profile,
            speculate: _,
            server,
            priority,
        } => {
            if let Some(addr) = server {
                return explore_remote(addr, grid, *priority, out, *quiet);
            }
            let spec = GridSpec::parse(grid).map_err(|e| CliError(e.to_string()))?;
            // `--resume` without an explicit directory caches in the
            // default location, so a rerun picks up where it left off.
            let cache_path = cache_dir
                .clone()
                .or_else(|| resume.then(|| DEFAULT_CACHE_DIR.to_owned()));
            let cache = match &cache_path {
                Some(dir) => Some(
                    ResultCache::open(std::path::Path::new(dir))
                        .map_err(|e| CliError(format!("cannot open cache {dir:?}: {e}")))?,
                ),
                None => None,
            };
            let kernel = match workers {
                None => SimKernel::default(),
                Some(w) => SimKernel::Parallel { workers: *w },
            };
            let opts = SweepOptions {
                jobs: *jobs,
                cache,
                kernel,
                profile: *profile,
            };
            let quiet = *quiet;
            let (analysis, stats) = run_sweep(&spec, &opts, |done, total| {
                if !quiet {
                    eprint!("\rexplore: {done}/{total} job(s)");
                    let _ = std::io::stderr().flush();
                }
            });
            if !quiet {
                eprintln!();
            }
            // Cache telemetry goes to stderr: stdout stays byte-stable
            // for the documented summary lines, and ignored entries
            // (corrupt or config-mismatched) deserve an explicit trace.
            if let Some(cache) = &opts.cache {
                for mismatch in cache.take_mismatches() {
                    eprintln!("warning: {mismatch}");
                }
                if !quiet {
                    eprintln!("cache: {}", stats.cache);
                }
            }
            std::fs::write(out, analysis.to_json().to_pretty() + "\n")
                .map_err(|e| CliError(format!("cannot write {out:?}: {e}")))?;
            let mut text = analysis.render();
            let _ = write!(
                text,
                "\nsweep: {} job(s) — {} executed, {} cached, {} failed; JSON written to {out}",
                stats.total, stats.executed, stats.cached, stats.failed
            );
            if let Some(dir) = &cache_path {
                let _ = write!(text, "\ncache: {dir}");
            }
            Ok(text)
        }
        Command::Serve {
            addr,
            state_dir,
            workers,
            queue_limit,
        } => {
            let config = RegistryConfig {
                state_dir: std::path::PathBuf::from(state_dir),
                workers: *workers,
                queue_limit: *queue_limit,
            };
            let server = Server::bind(addr, &config)
                .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
            let bound = server.addr().to_owned();
            eprintln!(
                "serve: listening on {bound} — state {state_dir}, {workers} worker(s), \
                 queue limit {queue_limit}"
            );
            let resumed = server.registry().resident_sweeps();
            if !resumed.is_empty() {
                eprintln!(
                    "serve: resumed {} incomplete sweep(s) from the ledger: {}",
                    resumed.len(),
                    resumed.join(", ")
                );
            }
            server
                .run()
                .map_err(|e| CliError(format!("serve failed: {e}")))?;
            Ok(format!("serve: stopped ({bound})"))
        }
        Command::Fig7 { max_mm, step_mm } => {
            let model = PipelineTimingModel::nominal_90nm();
            let mut out = String::from("length (mm)  f_max (GHz)  binding\n");
            for p in model.fig7_curve(Millimeters::new(*max_mm), Millimeters::new(*step_mm)) {
                let _ = writeln!(
                    out,
                    "{:>11.2}  {:>11.3}  {}",
                    p.length.value(),
                    p.frequency.value(),
                    p.binding
                );
            }
            Ok(out.trim_end().to_owned())
        }
    }
}

/// Runs `faults`, the [`Command::Faults`] in `command`: the fault soak's
/// ledger and verdict and, with `profile`, the kernel profiler's perf
/// section after them, every ledger byte unchanged.
fn run_faults(command: &Command, profile: bool) -> Result<String, CliError> {
    let Command::Faults {
        build,
        pattern,
        cycles,
        seed,
        packet_len,
        spec,
        kernel,
        speculate: _,
    } = command
    else {
        unreachable!("run_faults runs the faults command")
    };
    let sys = build_system(build)?;
    let mut net = build_network(&sys, pattern, None, *seed, *packet_len, *kernel);
    net.enable_faults(fault_plan(&sys, spec, *seed));
    if profile {
        net.enable_profiling();
    }
    let drained = net.run_and_drain(*cycles);
    let report = net.report();
    let recovery = report.recovery.as_ref().expect("faults were enabled");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault soak: {} cycles at seed {}, {} flits delivered, {} explicitly lost",
        cycles, seed, report.delivered, recovery.flits_abandoned
    );
    let _ = writeln!(out, "{recovery}");
    let _ = writeln!(
        out,
        "integrity: {} silently corrupted payload(s) reached a consumer",
        report.integrity_failures
    );
    if let Err(timeout) = &drained {
        let _ = writeln!(out, "drain: {timeout}");
    }
    let accounted = drained.is_ok()
        && recovery.conserves()
        && recovery.pending == 0
        && report.integrity_failures == 0;
    let _ = write!(
        out,
        "verdict: {}",
        if accounted {
            "PASS — every fault detected and recovered or explicitly lost"
        } else {
            "FAIL — unaccounted faults remain"
        }
    );
    if let Some(perf) = &report.perf {
        let _ = write!(out, "\n{}", perf.summary());
    }
    Ok(out)
}

/// `explore --server ADDR`: submits the grid to a resident daemon
/// instead of executing locally, streams progress to stderr, and writes
/// the daemon's result document — byte-identical (up to `wall_ms`
/// lines) to what offline explore would produce — to `out`.
fn explore_remote(
    addr: &str,
    grid: &str,
    priority: u32,
    out: &str,
    quiet: bool,
) -> Result<String, CliError> {
    let ticket = client::submit(addr, grid, priority).map_err(|e| CliError(remote_err(e)))?;
    if !quiet {
        eprintln!(
            "explore: sweep {} accepted by {addr} — {} job(s): {} queued, {} cached, {} deduped",
            ticket.sweep, ticket.total, ticket.queued, ticket.cached, ticket.deduped
        );
    }
    client::stream(addr, &ticket.sweep, |line| {
        if quiet {
            return;
        }
        if let Ok(event) = JsonValue::parse(line) {
            if event.get("event").and_then(JsonValue::as_str) == Some("row") {
                let count = |k| event.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
                eprint!("\rexplore: {}/{} job(s)", count("done"), count("total"));
                let _ = std::io::stderr().flush();
            }
        }
    })
    .map_err(|e| CliError(remote_err(e)))?;
    if !quiet {
        eprintln!();
    }
    let result = client::result(addr, &ticket.sweep).map_err(|e| CliError(remote_err(e)))?;
    std::fs::write(out, &result).map_err(|e| CliError(format!("cannot write {out:?}: {e}")))?;
    Ok(format!(
        "sweep {}: {} job(s) — {} queued, {} cached, {} deduped on {addr}; JSON written to {out}",
        ticket.sweep, ticket.total, ticket.queued, ticket.cached, ticket.deduped
    ))
}

/// Renders a client-side failure; queue-full rejects surface their
/// structured `retry_after_ms` so callers know when to come back.
fn remote_err(e: client::ClientError) -> String {
    if let client::ClientError::Rejected { status: 429, body } = &e {
        let retry = JsonValue::parse(body)
            .ok()
            .and_then(|v| v.get("retry_after_ms").and_then(JsonValue::as_f64));
        if let Some(ms) = retry {
            return format!("{e}; retry in {}ms", ms as u64);
        }
    }
    e.to_string()
}

/// Builds the simulated network shared by `sim`, `stats` and `trace`:
/// one copy of `pattern` per port, optionally closed-loop tiles.
fn build_network(
    sys: &System,
    pattern: &TrafficPattern,
    tiles: Option<(usize, u64)>,
    seed: u64,
    packet_len: u32,
    kernel: SimKernel,
) -> Network {
    let patterns = vec![*pattern; sys.tree().num_ports()];
    let mut net = match tiles {
        Some((max_outstanding, service_cycles)) => sys.tile_network_with_kernel(
            &patterns,
            TileTraffic {
                max_outstanding,
                service_cycles,
            },
            seed,
            kernel,
        ),
        None => sys.network_with_kernel(&patterns, seed, kernel),
    };
    net.set_packet_length(packet_len);
    net
}

fn describe_kind(kind: TraceEventKind) -> String {
    match kind {
        TraceEventKind::Injected => "injected".to_owned(),
        TraceEventKind::HopForwarded => "forwarded".to_owned(),
        TraceEventKind::Blocked => "blocked".to_owned(),
        TraceEventKind::Arbitrated { contenders } => format!("arbitrated({contenders})"),
        TraceEventKind::Delivered => "delivered".to_owned(),
        TraceEventKind::Dropped { cause } => format!("dropped({})", cause.label()),
        TraceEventKind::Corrupted => "corrupted".to_owned(),
        TraceEventKind::TimingViolation => "timing-violation".to_owned(),
        TraceEventKind::Retransmitted => "retransmitted".to_owned(),
        TraceEventKind::FrequencyBackoff => "freq-backoff".to_owned(),
    }
}

/// A system-matched [`FaultPlan`] armed with the parsed spec.
fn fault_plan(sys: &System, spec: &FaultSpec, seed: u64) -> FaultPlan {
    let mut plan = sys.fault_plan(seed).with_rates(spec.rates);
    if let Some((start, end)) = spec.window {
        plan = plan.with_window(start, end);
    }
    plan
}

fn build_system(build: &BuildOpts) -> Result<System, CliError> {
    SystemBuilder::new(build.kind, build.ports)
        .frequency(Gigahertz::new(build.freq))
        .die(Millimeters::new(build.die), Millimeters::new(build.die))
        .width_bits(build.width)
        .clock_backend(build.clock)
        .build()
        .map_err(|e| CliError(e.to_string()))
}

fn half_period_ps(build: &BuildOpts) -> u64 {
    (500.0 / build.freq).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        run(&Cli::parse(line.iter().copied()).expect("parses"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line(&["help"]).expect("runs");
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn info_prints_summary() {
        let out = run_line(&["info", "--ports", "16"]).expect("runs");
        assert!(out.contains("16 ports"));
        assert!(out.contains("15 routers"));
    }

    #[test]
    fn verify_prints_sta_report() {
        let out = run_line(&["verify", "--ports", "16"]).expect("runs");
        assert!(out.contains("TIMING SAFE"), "{out}");
        // Unsafe corner gets the derating hint.
        let out = run_line(&["verify", "--ports", "16", "--variation", "1.5"]).expect("runs");
        assert!(out.contains("TIMING UNSAFE"), "{out}");
        assert!(out.contains("hint"), "{out}");
    }

    #[test]
    fn sim_reports_correctness_and_power() {
        let out = run_line(&[
            "sim",
            "--ports",
            "16",
            "--pattern",
            "uniform:0.2",
            "--cycles",
            "300",
        ])
        .expect("runs");
        assert!(out.contains("correct: true"), "{out}");
        assert!(out.contains("power:"), "{out}");
    }

    #[test]
    fn closed_loop_sim_reports_round_trips() {
        let out = run_line(&[
            "sim",
            "--ports",
            "16",
            "--pattern",
            "neighbor:0.2",
            "--cycles",
            "500",
            "--tiles",
            "4:5",
        ])
        .expect("runs");
        assert!(out.contains("round trips"), "{out}");
        assert!(out.contains("correct: true"), "{out}");
    }

    #[test]
    fn sim_diagnose_reports_clean_drain() {
        let out = run_line(&[
            "sim",
            "--ports",
            "16",
            "--pattern",
            "uniform:0.2",
            "--cycles",
            "200",
            "--diagnose",
        ])
        .expect("runs");
        assert!(out.contains("diagnose: drained clean"), "{out}");
    }

    #[test]
    fn sim_profile_prints_the_shard_table() {
        let out = run_line(&[
            "sim",
            "--ports",
            "16",
            "--pattern",
            "uniform:0.3",
            "--cycles",
            "300",
            "--kernel",
            "parallel",
            "--workers",
            "2",
            "--profile",
        ])
        .expect("runs");
        assert!(out.contains("correct: true"), "{out}");
        assert!(out.contains("load imbalance:"), "{out}");
        assert!(out.contains("barrier overhead:"), "{out}");
    }

    #[test]
    fn profile_subcommand_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join("icnoc_cli_test_profile");
        let path = dir.join("trace.json");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = run_line(&[
            "profile",
            "--ports",
            "16",
            "--pattern",
            "uniform:0.3",
            "--cycles",
            "300",
            "--kernel",
            "parallel",
            "--workers",
            "2",
            "--chrome-trace",
            path.to_str().expect("utf-8 path"),
        ])
        .expect("runs");
        assert!(out.contains("load imbalance:"), "{out}");
        assert!(out.contains("chrome trace written"), "{out}");
        let json = std::fs::read_to_string(&path).expect("file exists");
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_covers_the_sequential_kernels_too() {
        let out = run_line(&["profile", "--ports", "16", "--cycles", "200"]).expect("runs");
        assert!(out.contains("event kernel"), "{out}");
        assert!(out.contains("load imbalance:"), "{out}");
    }

    #[test]
    fn faults_profile_appends_the_perf_section_to_an_unchanged_ledger() {
        let args = [
            "faults",
            "--ports",
            "16",
            "--kernel",
            "parallel",
            "--workers",
            "2",
        ];
        let plain = run_line(&args).expect("runs");
        let profiled = run_line(&[&args[..], &["--profile"]].concat()).expect("runs");
        let perf = profiled
            .strip_prefix(&plain)
            .expect("the ledger comes first");
        assert!(perf.starts_with("\nperf: parallel kernel"), "{perf}");
        assert!(perf.contains("load imbalance:"), "{perf}");
        assert!(perf.contains("timed wakes:"), "{perf}");
    }

    #[test]
    fn stats_exports_json_with_percentiles() {
        let out = run_line(&[
            "stats",
            "--ports",
            "64",
            "--pattern",
            "uniform:0.2",
            "--cycles",
            "500",
        ])
        .expect("runs");
        assert!(out.contains("\"elements\""), "{out}");
        assert!(out.contains("\"utilisation\""), "{out}");
        assert!(out.contains("\"p50\""), "{out}");
        assert!(out.contains("\"p99\""), "{out}");
    }

    #[test]
    fn stats_exports_csv_to_a_file() {
        let dir = std::env::temp_dir().join("icnoc_cli_test_stats");
        let path = dir.join("stats.csv");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = run_line(&[
            "stats",
            "--ports",
            "16",
            "--cycles",
            "300",
            "--format",
            "csv",
            "--out",
            path.to_str().expect("utf-8 path"),
        ])
        .expect("runs");
        assert!(out.contains("stats written"), "{out}");
        let csv = std::fs::read_to_string(&path).expect("file exists");
        assert!(csv.contains("label,injected"), "{csv}");
        assert!(csv.contains("src,dest,delivered"), "{csv}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_dumps_labelled_events() {
        let out = run_line(&[
            "trace",
            "--ports",
            "8",
            "--pattern",
            "uniform:0.3",
            "--cycles",
            "100",
            "--limit",
            "20",
        ])
        .expect("runs");
        assert!(out.contains("event(s) retained"), "{out}");
        assert!(out.contains("showing last 20"), "{out}");
        assert!(
            out.contains("delivered") || out.contains("forwarded"),
            "{out}"
        );
        assert!(out.contains("flit "), "{out}");
    }

    #[test]
    fn faults_subcommand_accounts_for_every_injection() {
        let out = run_line(&["faults", "--ports", "16", "--cycles", "2000", "--seed", "7"])
            .expect("runs");
        assert!(out.contains("faults injected:"), "{out}");
        assert!(out.contains("conserves: true"), "{out}");
        assert!(out.contains("0 silently corrupted"), "{out}");
        assert!(out.contains("verdict: PASS"), "{out}");
    }

    #[test]
    fn sim_with_faults_prints_the_recovery_ledger() {
        let out = run_line(&[
            "sim",
            "--ports",
            "16",
            "--cycles",
            "500",
            "--faults",
            "drop=0.005,corrupt=0.005",
        ])
        .expect("runs");
        assert!(out.contains("faults injected:"), "{out}");
        assert!(out.contains("recovery:"), "{out}");
    }

    #[test]
    fn yield_prints_curve() {
        let out = run_line(&[
            "yield",
            "--ports",
            "16",
            "--variation",
            "0.2",
            "--samples",
            "50",
        ])
        .expect("runs");
        assert!(out.contains("yield at 1.0 GHz"), "{out}");
        assert!(out.contains("99% yield frequency"), "{out}");
    }

    #[test]
    fn fig7_prints_declining_curve() {
        let out = run_line(&["fig7", "--max-mm", "1.0", "--step-mm", "0.5"]).expect("runs");
        assert!(out.contains("1.800"), "{out}");
        assert!(out.contains("forward path"), "{out}");
    }

    #[test]
    fn explore_renders_pareto_front_and_writes_json() {
        let dir = std::env::temp_dir().join("icnoc_cli_test_explore");
        let path = dir.join("explore.json");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = run_line(&[
            "explore",
            "--grid",
            "ports=16;cycles=200;freq=0.9,1.0",
            "--jobs",
            "2",
            "--quiet",
            "--out",
            path.to_str().expect("utf-8 path"),
        ])
        .expect("runs");
        assert!(out.contains("Pareto front"), "{out}");
        assert!(
            out.contains("2 job(s) — 2 executed, 0 cached, 0 failed"),
            "{out}"
        );
        let json = std::fs::read_to_string(&path).expect("file exists");
        assert!(json.contains("\"pareto_front\""), "{json}");
        assert!(json.contains("\"safe_frequency_surface\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explore_server_mode_round_trips_through_a_daemon() {
        let dir =
            std::env::temp_dir().join(format!("icnoc_cli_test_server_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let server = Server::bind(
            "127.0.0.1:0",
            &RegistryConfig {
                state_dir: dir.join("state"),
                workers: 2,
                queue_limit: 16,
            },
        )
        .expect("binds");
        let addr = server.addr().to_owned();
        let daemon = std::thread::spawn(move || server.run().expect("runs"));

        const GRID: &str = "ports=16;cycles=200;freq=0.9,1.0";
        let remote_path = dir.join("remote.json");
        let out = run_line(&[
            "explore",
            "--server",
            &addr,
            "--grid",
            GRID,
            "--priority",
            "2",
            "--quiet",
            "--out",
            remote_path.to_str().expect("utf-8 path"),
        ])
        .expect("runs");
        assert!(out.contains("2 job(s) — 2 queued"), "{out}");
        assert!(out.contains("JSON written to"), "{out}");

        // Byte-identical (up to wall_ms lines) to the offline run.
        let offline_path = dir.join("offline.json");
        run_line(&[
            "explore",
            "--grid",
            GRID,
            "--quiet",
            "--out",
            offline_path.to_str().expect("utf-8 path"),
        ])
        .expect("runs");
        let strip = |p: &std::path::Path| {
            std::fs::read_to_string(p)
                .expect("file exists")
                .lines()
                .filter(|l| !l.contains("wall_ms"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&remote_path), strip(&offline_path));

        client::shutdown(&addr).expect("stops");
        daemon.join().expect("daemon joins");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explore_rejects_bad_grids() {
        // The parser rejects a bad grid with the other flags (exit 2)...
        let err = Cli::parse(["explore", "--grid", "teapots=4"]).unwrap_err();
        assert!(err.0.contains("teapots"), "{err}");
        // ...and `run` still rejects one in a command built by hand.
        let mut cli = Cli::parse(["explore"]).expect("parses");
        let Command::Explore { grid, .. } = &mut cli.command else {
            panic!("expected explore");
        };
        *grid = "teapots=4".to_owned();
        let err = run(&cli).unwrap_err();
        assert!(err.0.contains("teapots"), "{err}");
    }

    #[test]
    fn bad_builds_are_reported_as_errors() {
        let err = run_line(&["info", "--ports", "48"]).unwrap_err();
        assert!(err.0.contains("power of 2"), "{err}");
        let err = run_line(&["info", "--freq", "5.0"]).unwrap_err();
        assert!(err.0.contains("exceeds"), "{err}");
        // A die past a wafer would exhaust memory building link stages.
        let err = run_line(&["sim", "--ports", "4", "--cycles", "10", "--die", "1e308"]);
        assert!(err.unwrap_err().0.contains("at most 300 mm"));
        // So would a port count past the cap.
        let err = run_line(&["info", "--ports", "1099511627776"]).unwrap_err();
        assert!(err.0.contains("at most 65536"), "{err}");
    }

    #[test]
    fn vcd_file_is_written() {
        let dir = std::env::temp_dir().join("icnoc_cli_test_vcd");
        let path = dir.join("wave.vcd");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = run_line(&[
            "sim",
            "--ports",
            "16",
            "--pattern",
            "neighbor:0.3",
            "--cycles",
            "100",
            "--vcd",
            path.to_str().expect("utf-8 path"),
        ])
        .expect("runs");
        assert!(out.contains("waveform written"), "{out}");
        let vcd = std::fs::read_to_string(&path).expect("file exists");
        assert!(vcd.contains("$enddefinitions"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

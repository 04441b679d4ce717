//! Traced reps: the same work as an end-to-end rep, run in-process
//! through the same public layer functions, with a span around each call.
//!
//! A traced rep parses the same `icnoc` command line with
//! `icnoc_cli::Cli::parse`, so it runs exactly the configuration the
//! child runs, and re-renders the output text so the benchmark can check
//! it equals the child's stdout byte for byte. It turns the kernel
//! profiler on for the parallel-kernel counters; the profiler's overhead
//! is part of `bench.trace_overhead_frac`.

use std::fmt::Write as _;
use std::path::Path;

use icnoc::units::{Gigahertz, Millimeters};
use icnoc::{SystemBuilder, SystemPowerReport};
use icnoc_cli::{Cli, Command};
use icnoc_explore::{
    run_indexed, run_job_with_options, Analysis, GridSpec, JobOutcome, JsonValue, ResultCache,
};
use icnoc_serve::{client, http, RegistryConfig, Server};
use icnoc_sim::{DrainTimeout, FaultPlan, SimKernel, SimReport};

use crate::child::TempDir;
use crate::fnv1a;
use crate::session::run_session;
use crate::stats::percentile;
use crate::trace::{self_time_ns, total_s, Span, Tracer};
use crate::workload::{sweep_digest, Bench, Workload};

/// What a traced rep measured.
#[derive(Debug)]
pub struct Traced {
    /// The traced counterpart of the end-to-end `wall_s`: the root span
    /// (the session span on `serve`).
    pub wall_s: f64,
    /// Digest of the re-rendered output; must equal the children's.
    pub digest: u64,
    /// Layer metrics this workload exercises, by catalog name.
    pub layers: Vec<(&'static str, f64)>,
    /// Every span, for the Chrome trace.
    pub spans: Vec<Span>,
}

/// Runs one traced rep of `w`.
///
/// # Errors
///
/// A rep that could not run or whose output is wrong.
pub fn traced_rep(bench: &Bench, w: Workload) -> Result<Traced, String> {
    let tracer = Tracer::new();
    let (digest, mut layers) = {
        let root = tracer.span("rep", None);
        match w {
            Workload::Sweep48 => traced_sweep(bench, &tracer, root.id())?,
            Workload::Serve => traced_serve(bench, &tracer, root.id())?,
            _ => traced_sim(&bench.sim_args(w, None), &tracer, root.id())?,
        }
    };
    let spans = tracer.spans();
    let root = spans
        .iter()
        .find(|s| s.parent.is_none())
        .expect("the root span closed");
    layers.push((
        "bench.unattributed_frac",
        self_time_ns(&spans, root.id) as f64 / root.duration_ns().max(1) as f64,
    ));
    Ok(Traced {
        wall_s: match w {
            Workload::Serve => total_s(&spans, "serve.session"),
            _ => root.duration_ns() as f64 / 1e9,
        },
        digest,
        layers,
        spans,
    })
}

/// A traced rep's output digest and the layer metrics it measured.
type Measured = (u64, Vec<(&'static str, f64)>);

fn cli_command(args: &[String]) -> Result<Command, String> {
    Cli::parse(args.iter().cloned())
        .map(|cli| cli.command)
        .map_err(|e| e.to_string())
}

/// `sim` and `faults`: build, network build, run, drain, report, power
/// (`sim` only) and render, each in its own span.
fn traced_sim(args: &[String], tracer: &Tracer, root: u64) -> Result<Measured, String> {
    let command = cli_command(args)?;
    // The fields a traced rep mirrors; options the benchmark never
    // passes (tiles, VCD, diagnosis, profiling flags) are rejected.
    let (build, pattern, cycles, seed, packet_len, kernel, speculate, spec, is_sim) = match &command
    {
        Command::Sim {
            build,
            pattern,
            cycles,
            seed,
            packet_len,
            tiles: None,
            vcd: None,
            diagnose: false,
            faults,
            kernel,
            speculate,
            profile: false,
            chrome_trace: None,
        } => (
            build,
            pattern,
            *cycles,
            *seed,
            *packet_len,
            *kernel,
            *speculate,
            faults.as_ref(),
            true,
        ),
        Command::Faults {
            build,
            pattern,
            cycles,
            seed,
            packet_len,
            spec,
            kernel,
            speculate,
        } => (
            build,
            pattern,
            *cycles,
            *seed,
            *packet_len,
            *kernel,
            *speculate,
            Some(spec),
            false,
        ),
        other => return Err(format!("no traced path for {other:?}")),
    };

    let sys = tracer
        .time("core.build", root, || {
            SystemBuilder::new(build.kind, build.ports)
                .frequency(Gigahertz::new(build.freq))
                .die(Millimeters::new(build.die), Millimeters::new(build.die))
                .width_bits(build.width)
                .clock_backend(build.clock)
                .build()
        })
        .map_err(|e| e.to_string())?;
    let mut net = tracer.time("sim.build", root, || {
        let patterns = vec![pattern.clone(); sys.tree().num_ports()];
        let mut net = sys.network_with_kernel(&patterns, seed, kernel);
        net.set_packet_length(packet_len);
        net.set_speculation(speculate);
        if let Some(spec) = spec {
            let mut plan: FaultPlan = sys.fault_plan(seed).with_rates(spec.rates);
            if let Some((start, end)) = spec.window {
                plan = plan.with_window(start, end);
            }
            net.enable_faults(plan);
        }
        net.enable_profiling();
        net
    });
    tracer.time("sim.run", root, || net.run_cycles(cycles));
    // The CLI's drain budgets: recovery chains need well beyond the
    // traffic itself.
    let budget = match spec {
        Some(_) => cycles.max(1_000).saturating_mul(4),
        None => cycles.max(1_000),
    };
    let before = net.tick();
    let drained = tracer.time("sim.drain", root, || net.drain_or_diagnose(budget));
    let drain_ticks = net.tick() - before;
    let report = tracer.time("sim.report", root, || net.report());
    let text = if is_sim {
        let power = tracer.time("core.power", root, || sys.power_report(&report));
        tracer.time("cli.render", root, || render_sim(&report, &power))
    } else {
        tracer.time("cli.render", root, || {
            render_faults(cycles, seed, &report, &drained)
        })
    };

    let spans = tracer.spans();
    let secs = |name: &str| total_s(&spans, name);
    let steps = net.element_steps();
    let perf = report.perf.as_ref().expect("profiling was enabled");
    let count = |n: u64| n as f64;
    let mut layers = vec![
        ("core.build_s", secs("core.build")),
        ("sim.build_s", secs("sim.build")),
        ("sim.run_s", secs("sim.run")),
        ("sim.drain_s", secs("sim.drain")),
        ("sim.report_s", secs("sim.report")),
        ("cli.render_s", secs("cli.render")),
        ("sim.elements", net.element_count() as f64),
        ("sim.element_steps", count(steps)),
        ("sim.ticks", count(net.tick())),
        ("sim.drain_ticks", count(drain_ticks)),
        ("sim.delivered", count(report.delivered)),
        (
            "sim.ns_per_step",
            (secs("sim.run") + secs("sim.drain")) * 1e9 / count(steps.max(1)),
        ),
        ("sim.parallel.workers", f64::from(perf.workers)),
        (
            "sim.parallel.fallback",
            f64::from(u8::from(perf.fallback.is_some())),
        ),
        (
            "sim.parallel.barrier_frac",
            perf.barrier_fraction().unwrap_or(0.0),
        ),
        ("sim.parallel.epochs", count(perf.epochs)),
        ("sim.parallel.load_imbalance", perf.load_imbalance()),
        (
            "sim.parallel.lookahead",
            count(net.parallel_lookahead().unwrap_or(0)),
        ),
    ];
    if is_sim {
        layers.push(("core.power_s", secs("core.power")));
    }
    if let Some(r) = &report.recovery {
        layers.extend([
            ("fault.injected", count(r.injected.total())),
            ("fault.timing_violations", count(r.timing_violations)),
            ("fault.retransmissions", count(r.retransmissions)),
            ("fault.recovered", count(r.recovered)),
            ("fault.lost", count(r.lost)),
            ("fault.clock_loss_events", count(r.clock_loss_events)),
            ("fault.resyncs", count(r.resyncs)),
        ]);
    }
    Ok((fnv1a(format!("{text}\n").as_bytes()), layers))
}

/// `icnoc sim`'s output text, as the CLI renders it.
fn render_sim(report: &SimReport, power: &SystemPowerReport) -> String {
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
    let _ = writeln!(out, "{power}");
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
    out
}

/// `icnoc faults`' output text, as the CLI renders it.
fn render_faults(
    cycles: u64,
    seed: u64,
    report: &SimReport,
    drained: &Result<(), DrainTimeout>,
) -> String {
    let recovery = report.recovery.expect("faults were enabled");
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
    if let Err(timeout) = drained {
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
    out
}

/// Spans of `name` as milliseconds.
fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// `sweep48`: the cold sweep (parse, cache prescan, jobs and cache stores
/// on the executor, fold, render), then the warm re-run (parse, cache
/// load, fold, render), mirroring `run_sweep` and the CLI's summary.
fn traced_sweep(bench: &Bench, tracer: &Tracer, root: u64) -> Result<Measured, String> {
    let dir = TempDir::new().map_err(|e| format!("scratch dir: {e}"))?;
    let cycles = bench.sizes.sweep_cycles;
    let cold = sweep_once(
        &bench.sweep_args(cycles, "cold.json"),
        dir.path(),
        tracer,
        root,
        &COLD,
    )?;
    let warm = sweep_once(
        &bench.sweep_args(cycles, "warm.json"),
        dir.path(),
        tracer,
        root,
        &WARM,
    )?;
    let n = bench.sweep_jobs();
    if (cold.executed, cold.cached, warm.executed, warm.cached) != (n, 0, 0, n)
        || cold.failed + warm.failed > 0
    {
        return Err(format!(
            "traced sweep: cold {}/{} executed/cached, warm {}/{}, {} failed",
            cold.executed,
            cold.cached,
            warm.executed,
            warm.cached,
            cold.failed + warm.failed
        ));
    }
    if cold.json != warm.json {
        return Err("traced warm-cache JSON differs from the cold JSON".to_owned());
    }

    let spans = tracer.spans();
    let jobs_ms = durations_ms(&spans, "explore.job");
    let job_s = total_s(&spans, "explore.job");
    let execute_s = total_s(&spans, "explore.execute");
    let layers = vec![
        ("explore.parse_s", total_s(&spans, "explore.parse")),
        (
            "explore.cache_prescan_s",
            total_s(&spans, "explore.cache_prescan"),
        ),
        ("explore.job_s", job_s),
        (
            "explore.cache_store_s",
            total_s(&spans, "explore.cache_store"),
        ),
        ("explore.fold_s", total_s(&spans, "explore.fold")),
        (
            "explore.cache_load_s",
            total_s(&spans, "explore.cache_load"),
        ),
        (
            "explore.job_p50_ms",
            percentile(&jobs_ms, 0.5).unwrap_or(0.0),
        ),
        (
            "explore.job_max_ms",
            percentile(&jobs_ms, 1.0).unwrap_or(0.0),
        ),
        (
            "explore.executor_util",
            job_s / (cold.threads.max(1) as f64 * execute_s.max(f64::MIN_POSITIVE)),
        ),
        ("explore.jobs_executed", cold.executed as f64),
        ("explore.jobs_feasible", cold.feasible as f64),
        ("explore.cache_hits", warm.cache_hits as f64),
        ("cli.render_s", total_s(&spans, "cli.render")),
    ];
    Ok((sweep_digest(&cold.stdout, &cold.json), layers))
}

/// One in-process `explore` run.
struct SweepRun {
    stdout: String,
    json: String,
    executed: usize,
    cached: usize,
    failed: usize,
    feasible: usize,
    cache_hits: u64,
    threads: usize,
}

/// The span names of one `explore` run's sequential phases.
struct SweepSpans {
    parse: &'static str,
    prescan: &'static str,
    fold: &'static str,
    render: &'static str,
}

const COLD: SweepSpans = SweepSpans {
    parse: "explore.parse",
    prescan: "explore.cache_prescan",
    fold: "explore.fold",
    render: "cli.render",
};

/// On the warm re-run the prescan is the whole answer: a cache load.
const WARM: SweepSpans = SweepSpans {
    parse: "explore.warm.parse",
    prescan: "explore.cache_load",
    fold: "explore.warm.fold",
    render: "explore.warm.render",
};

/// Runs the `explore` command line `args` as if from `dir`.
fn sweep_once(
    args: &[String],
    dir: &Path,
    tracer: &Tracer,
    root: u64,
    names: &SweepSpans,
) -> Result<SweepRun, String> {
    let Command::Explore {
        grid,
        jobs,
        workers: None,
        cache_dir: Some(cache_dir),
        resume: false,
        out,
        quiet: true,
        profile,
        speculate,
        server: None,
        ..
    } = cli_command(args)?
    else {
        return Err(format!("no traced path for {args:?}"));
    };
    let kernel = SimKernel::default();
    let configs = tracer
        .time(names.parse, root, || {
            GridSpec::parse(&grid).map(|spec| spec.resolve())
        })
        .map_err(|e| e.to_string())?;
    let (cache, mut slots) = tracer.time(names.prescan, root, || {
        let cache = ResultCache::open(&dir.join(&cache_dir))
            .map_err(|e| format!("cannot open cache: {e}"))?;
        let slots: Vec<Option<JobOutcome>> = configs.iter().map(|j| cache.load(j)).collect();
        Ok::<_, String>((cache, slots))
    })?;
    let cached = slots.iter().filter(|s| s.is_some()).count();
    let pending: Vec<usize> = (0..configs.len()).filter(|&i| slots[i].is_none()).collect();
    let threads = jobs.clamp(1, pending.len().max(1));
    let results = {
        let execute = tracer.span("explore.execute", Some(root));
        let parent = execute.id();
        run_indexed(
            pending.len(),
            jobs,
            |k| {
                let config = &configs[pending[k]];
                let outcome = {
                    let mut span = tracer.span("explore.job", Some(parent));
                    span.set_request(&format!("{:016x}", config.stable_hash()));
                    run_job_with_options(config, kernel, profile, speculate)
                }
                .map_err(|e| e.to_string())?;
                tracer.time("explore.cache_store", parent, || {
                    let _ = cache.store(&JobOutcome {
                        perf: None,
                        ..outcome.clone()
                    });
                });
                Ok::<_, String>(outcome)
            },
            |_, _| {},
        )
    };
    let mut failed = 0;
    for (k, result) in results.into_iter().enumerate() {
        let i = pending[k];
        slots[i] = Some(match result {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(msg)) | Err(msg) => {
                failed += 1;
                JobOutcome::failed(&configs[i], &msg)
            }
        });
    }
    let (analysis, json) = tracer.time(names.fold, root, || {
        let analysis = Analysis::of(slots.into_iter().flatten().collect());
        let json = analysis.to_json().to_pretty() + "\n";
        (analysis, json)
    });
    std::fs::write(dir.join(&out), &json).map_err(|e| format!("cannot write {out:?}: {e}"))?;
    let stdout = tracer.time(names.render, root, || {
        let mut text = analysis.render();
        let _ = write!(
            text,
            "\nsweep: {} job(s) — {} executed, {} cached, {} failed; JSON written to {out}",
            configs.len(),
            pending.len(),
            cached,
            failed
        );
        let _ = write!(text, "\ncache: {cache_dir}");
        text + "\n"
    });
    Ok(SweepRun {
        stdout,
        json,
        executed: pending.len(),
        cached,
        failed,
        feasible: analysis.feasible_count(),
        cache_hits: cache.stats().hits,
        threads,
    })
}

/// `serve`: an in-process daemon on the same configuration, then the
/// same closed-loop session, with client-side spans per sweep (tagged
/// with the sweep id).
fn traced_serve(bench: &Bench, tracer: &Tracer, root: u64) -> Result<Measured, String> {
    let Command::Serve {
        addr,
        state_dir,
        workers,
        queue_limit,
    } = cli_command(&bench.serve_args())?
    else {
        return Err("no traced path for serve".to_owned());
    };
    let dir = TempDir::new().map_err(|e| format!("scratch dir: {e}"))?;
    let (addr, daemon) = {
        let _start = tracer.span("serve.start", Some(root));
        let config = RegistryConfig {
            state_dir: dir.path().join(state_dir),
            workers,
            queue_limit,
        };
        let server =
            Server::bind(&addr, &config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let bound = server.addr().to_owned();
        let daemon = std::thread::spawn(move || server.run());
        match http::client_request(&bound, "GET", "/healthz", "", None) {
            Ok(resp) if resp.status == 200 => {}
            other => {
                let _ = client::shutdown(&bound);
                let _ = daemon.join();
                return Err(format!("in-process daemon is not healthy: {other:?}"));
            }
        }
        (bound, daemon)
    };
    let session = {
        let span = tracer.span("serve.session", Some(root));
        run_session(&addr, &bench.session_plan(), tracer, Some(span.id()))
    };
    let stats = tracer.time("serve.stats", root, || client::stats(&addr));
    {
        let _stop = tracer.span("serve.stop", Some(root));
        let shutdown = client::shutdown(&addr);
        let joined = daemon.join();
        shutdown.map_err(|e| format!("shutdown failed: {e}"))?;
        joined
            .map_err(|_| "daemon thread panicked".to_owned())?
            .map_err(|e| format!("daemon failed: {e}"))?;
    }
    let stats = stats.map_err(|e| format!("stats: {e}"))?;
    if let Some(e) = session.errors.first() {
        return Err(format!(
            "{} failed sweep(s), first: {e}",
            session.errors.len()
        ));
    }
    let stat = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |v, k| v.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    if stat(&["jobs", "failed"]) != 0.0 {
        return Err("daemon reports failed jobs".to_owned());
    }

    let spans = tracer.spans();
    let pct = |name: &str, p: f64| percentile(&durations_ms(&spans, name), p).unwrap_or(0.0);
    let layers = vec![
        ("serve.submit_p50_ms", pct("serve.submit", 0.5)),
        ("serve.submit_p90_ms", pct("serve.submit", 0.9)),
        ("serve.stream_p50_ms", pct("serve.stream", 0.5)),
        ("serve.stream_p90_ms", pct("serve.stream", 0.9)),
        ("serve.result_p50_ms", pct("serve.result", 0.5)),
        ("serve.jobs_executed", stat(&["jobs", "executed"])),
        ("serve.jobs_deduped", stat(&["jobs", "deduped"])),
        ("serve.cache_hits", stat(&["cache", "hits"])),
    ];
    Ok((session.digest, layers))
}

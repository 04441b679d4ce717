//! The simulation-kernel perf suite behind CI's `bench-gate` job.
//!
//! Runs a fixed workload matrix — idle-heavy, saturated-uniform and
//! hotspot traffic at 16 and 64 ports, the `soak256`, `soak1024` and
//! `soak4096` large-fabric soaks, plus the `mirror256` cut-crossing
//! workload (every flit crosses the root cut, so the parallel kernel's
//! lookahead collapses to 0) — under all three stepping kernels,
//! asserts the reports are **bit-identical** (the dense scan is the
//! oracle), and measures the event-driven kernel's speedup over dense
//! and the parallel kernel's speedup over event.
//!
//! ```text
//! cargo run --release -p icnoc-bench --bin sim_bench                 # print table
//! cargo run --release -p icnoc-bench --bin sim_bench -- --out BENCH_sim.json
//! cargo run --release -p icnoc-bench --bin sim_bench -- --out new.json \
//!     --baseline BENCH_sim.json --workers 2                           # CI gate
//! ```
//!
//! Gating policy (exit 1 on violation):
//! * reports must match between all kernels on every workload;
//! * the event kernel must never visit more elements than the dense scan,
//!   and the parallel kernel must visit **exactly** as many as the event
//!   kernel (exact, deterministic — the real no-regression guarantees);
//! * the idle-heavy 64-port speedup must stay ≥ 3×, the saturated
//!   uniform speedups at parity (≥ 1× modulo a 10% wall-clock jitter
//!   allowance) — the event-kernel tentpole targets;
//! * on `soak256`, the parallel kernel must reach ≥ 2× over the event
//!   kernel — enforced only when both the requested worker count and the
//!   host's core count are ≥ 8, since the speedup is bounded by physical
//!   parallelism (on smaller hosts the measurement is still recorded);
//!   an explicit `floor: armed` / `floor: skipped(<reason>)` line (also
//!   recorded in the JSON as `soak256_parallel_floor`) states whether
//!   this gate was live;
//! * measurable-anywhere parallel floors: `soak256`'s barrier-wait
//!   fraction must stay ≤ 50% of worker wall time whenever the workers
//!   are not oversubscribed (`--workers` ≤ host cores), and the `soak256`
//!   parallel speedup must hold parity with the event kernel (≥ 1×
//!   modulo the same jitter allowance as the uniform gates) when
//!   `--workers` exactly matches a host core count of at least
//!   [`PARITY_GATE_MIN_CORES`] — on two cores the parallel kernel runs
//!   below parity (about 0.7×), so the `floor:` line (and the JSON's
//!   `soak256_parity_floor`) records why the parity gate was skipped;
//! * zero-overhead floor: each workload runs once more under the parallel
//!   kernel with the profiler attached; the resulting report, perf
//!   section stripped, must be bit-identical to the unprofiled run. The
//!   profiled run also yields the telemetry fields
//!   (`parallel_barrier_fraction`, `parallel_load_imbalance`,
//!   `profiler_overhead`) — wall-derived, machine-specific, and never
//!   baseline-compared — plus the deterministic `parallel_lookahead`
//!   (schema 4): the deepest epoch-batching window the shard cut admits,
//!   `null` when unbounded (single worker);
//! * profiler-overhead floor: `abs(profiler_overhead)` — the profiled
//!   run against the median plain parallel rep — must stay under
//!   [`MAX_PROFILER_OVERHEAD`] on every workload. The sign matters: a
//!   large *negative* overhead means the unprofiled reps were
//!   polluted by machine load, i.e. noise that could mask a real
//!   regression — the symmetric gate rejects the measurement instead
//!   of silently recording it. The JSON clamps the field at 0 so a
//!   committed baseline never stores a nonsensical negative cost;
//! * with `--baseline`, each workload's `dense_element_steps` and
//!   `event_element_steps` must equal the committed baseline's exactly:
//!   both are deterministic, so any change that moves them must
//!   re-record `BENCH_sim.json`;
//! * with `--baseline`, each workload's event-vs-dense speedup must stay
//!   within −20% of the committed baseline (regression fails; an
//!   improvement beyond +20% warns to refresh the baseline). That ratio
//!   is same-machine and hardware-independent. Parallel speedups are
//!   compared the same way, but only when the baseline was recorded with
//!   the same worker count on a host with the same core count — across
//!   different hardware the ratio legitimately differs.

use icnoc_explore::JsonValue;
use icnoc_sim::{FaultPlan, FaultRates, SimKernel, TrafficPattern, TreeNetworkConfig};
use icnoc_topology::{PortId, TreeTopology};
use std::time::Instant;

/// Relative tolerance for the baseline speedup comparison.
const TOLERANCE: f64 = 0.20;
/// Required event-vs-dense speedup on the idle-heavy 64-port workload.
const IDLE64_MIN_SPEEDUP: f64 = 3.0;
/// Required parallel-vs-event speedup on `soak256`, enforced only when
/// `--workers` and the host core count both reach
/// [`PARALLEL_GATE_MIN_CORES`].
const SOAK256_MIN_PAR_SPEEDUP: f64 = 2.0;
/// Physical-parallelism threshold for the `soak256` floor.
const PARALLEL_GATE_MIN_CORES: usize = 8;
/// Host core count from which the `soak256` parity floor is armed (with
/// `--workers` equal to the core count). Below it one worker shares a
/// core with the coordinator's fold and the OS, and the parallel kernel
/// measures below parity on `soak256`.
const PARITY_GATE_MIN_CORES: usize = 4;
/// Ceiling on `soak256`'s barrier-wait fraction, enforced whenever the
/// workers are not oversubscribed (`--workers` ≤ host cores). Epoch
/// batching keeps the measured fraction near zero on a quiet host; 0.5
/// still fails the pre-lookahead kernel (~0.9) with a wide noise margin.
const SOAK256_MAX_BARRIER_FRACTION: f64 = 0.5;
/// Required speedup (no regression) on saturated uniform traffic. Even
/// fully saturated, backpressure keeps much of the fabric blocked-waiting
/// and the capture-notification wakeups let those elements sleep, so the
/// event kernel stays ahead (~1.1–1.5×) — but 16 ports at full load is
/// close enough to parity that the gate allows wall-clock jitter; the
/// *deterministic* no-regression guarantee (`work_ratio >= 1`: the event
/// kernel never visits more elements than the dense scan) is enforced
/// exactly, on every workload.
const UNIFORM_MIN_SPEEDUP: f64 = 1.0;
/// Wall-clock jitter allowance for the saturated-parity gate, sized to
/// the observed rep-to-rep spread on shared runners. A real algorithmic
/// regression trips the exact `work_ratio` gate regardless.
const JITTER: f64 = 0.10;
/// Symmetric ceiling on the profiler's measured wall-time cost,
/// `abs(profiler_overhead)`. The profiler's real cost is a fraction of
/// a percent (one atomic-free sample per epoch), so anything near this
/// ceiling — in either direction — is a polluted measurement or a real
/// instrumentation regression; both should fail rather than be
/// recorded. Sized generously because the comparison pits a single
/// profiled run against the median of [`REPS`] unprofiled ones.
const MAX_PROFILER_OVERHEAD: f64 = 0.5;
/// Timing repetitions per (workload, kernel); the fastest run counts.
/// Kernels are interleaved within a rep so machine-load phases hit both,
/// and one untimed warm-up rep precedes the timed ones.
const REPS: usize = 5;

struct Workload {
    name: &'static str,
    ports: usize,
    pattern: TrafficPattern,
    cycles: u64,
    seed: u64,
    /// Fault plan attached to every run of this workload (the
    /// bit-identity and zero-overhead gates must hold with it too).
    faults: Option<FaultPlan>,
    /// When set, `pattern` is replaced by per-port mirror traffic at
    /// this rate: port `p` sends only to port `ports - 1 - p`, the
    /// address-complement pairing, so **every** flit crosses the root
    /// cut and the parallel kernel's conservative lookahead collapses
    /// to 0: one synchronized mailbox tick per tick.
    mirror_rate: Option<f64>,
}

fn workloads() -> Vec<Workload> {
    let idle = |ports| Workload {
        name: if ports == 16 { "idle16" } else { "idle64" },
        ports,
        // ~1% duty cycle: the fabric lies idle almost always, the
        // regime the paper's clock gating (and this kernel) target.
        pattern: TrafficPattern::Bursty {
            burst: 10,
            idle: 990,
        },
        // Long enough that even the fast event-kernel side of the ratio
        // is several milliseconds — sub-millisecond timings make the
        // idle speedups far too noisy to gate on.
        cycles: 20_000,
        seed: 7,
        faults: None,
        mirror_rate: None,
    };
    let uniform = |ports| Workload {
        name: if ports == 16 {
            "uniform16"
        } else {
            "uniform64"
        },
        ports,
        // Saturated uniform random traffic: every source pushes as hard
        // as back pressure allows — the event kernel's worst case.
        pattern: TrafficPattern::Uniform { rate: 1.0 },
        cycles: 4_000,
        seed: 11,
        faults: None,
        mirror_rate: None,
    };
    let hotspot = |ports: usize| Workload {
        name: if ports == 16 {
            "hotspot16"
        } else {
            "hotspot64"
        },
        ports,
        pattern: TrafficPattern::Hotspot {
            rate: 0.2,
            target: PortId(0),
            fraction: 0.8,
        },
        cycles: 4_000,
        seed: 13,
        faults: None,
        mirror_rate: None,
    };
    let soak = Workload {
        name: "soak256",
        ports: 256,
        // A large fabric under steady mid-rate load: enough elements per
        // tick that the parallel kernel's shard fan-out has real work to
        // amortise its barrier against.
        pattern: TrafficPattern::Uniform { rate: 0.3 },
        cycles: 1_500,
        seed: 17,
        faults: None,
        mirror_rate: None,
    };
    // Deeper soak tiers: the tree gains two levels per tier, so each
    // shard's interior grows and the lookahead window (hop distance to
    // the shard cut) deepens with it — the regime the epoch-batching
    // tentpole targets. Cycle counts shrink to keep the dense oracle
    // runs (every workload still runs under all three kernels) cheap.
    let soak1024 = Workload {
        name: "soak1024",
        ports: 1024,
        pattern: TrafficPattern::Uniform { rate: 0.3 },
        cycles: 600,
        seed: 23,
        faults: None,
        mirror_rate: None,
    };
    let soak4096 = Workload {
        name: "soak4096",
        ports: 4096,
        pattern: TrafficPattern::Uniform { rate: 0.25 },
        cycles: 200,
        seed: 29,
        faults: None,
        mirror_rate: None,
    };
    // Cut-crossing regime: every port mirrors to its address complement,
    // so all traffic crosses the root cut, conservative lookahead pins
    // at 0 and the parallel kernel pays one synchronized mailbox tick
    // per tick. The rate is sparse, so the boundary stays armed with
    // little work between rendezvous: the run isolates the kernel's
    // synchronisation cost under the exact bit-identity and step gates.
    let mirror256 = Workload {
        name: "mirror256",
        ports: 256,
        pattern: TrafficPattern::Uniform { rate: 0.0 },
        cycles: 600,
        seed: 7,
        faults: None,
        mirror_rate: Some(0.002),
    };
    let clockfault = Workload {
        name: "clockfault64",
        ports: 64,
        // Mid-rate load with every fault kind armed, clock-domain kinds
        // included: the recovery layer and the per-tick clock state
        // machine run hot. The event and parallel kernels run their
        // activity lists in one-tick windows, folding the shards'
        // recovery logs at every tick boundary.
        pattern: TrafficPattern::Uniform { rate: 0.3 },
        cycles: 2_000,
        seed: 19,
        faults: Some(FaultPlan::new(19).with_rates(FaultRates::clock_soak())),
        mirror_rate: None,
    };
    vec![
        idle(16),
        idle(64),
        uniform(16),
        uniform(64),
        hotspot(16),
        hotspot(64),
        soak,
        soak1024,
        soak4096,
        mirror256,
        clockfault,
    ]
}

struct Measurement {
    name: &'static str,
    ports: usize,
    cycles: u64,
    dense_cps: f64,
    event_cps: f64,
    par_cps: f64,
    dense_steps: u64,
    event_steps: u64,
    par_steps: u64,
    /// Median of the per-rep `dense_secs / event_secs` ratios. The
    /// kernels run back-to-back inside each rep, so a load spike hits
    /// all of them and cancels out of the ratio — far more stable than
    /// the ratio of the best-of-rep throughputs.
    speedup: f64,
    /// Median of the per-rep `event_secs / parallel_secs` ratios.
    par_speedup: f64,
    /// Barrier-wait fraction of worker wall time on the profiled parallel
    /// run (nondeterministic telemetry; never baseline-compared).
    barrier_frac: f64,
    /// Max-over-mean per-shard step count on the profiled parallel run
    /// (deterministic, but recorded as telemetry only).
    imbalance: f64,
    /// Wall-time cost of the attached profiler relative to the median
    /// plain parallel rep (nondeterministic; informational only).
    profiler_overhead: f64,
    /// Deepest epoch-batching window the parallel kernel's shard cut
    /// admits (deterministic; a pure function of topology and worker
    /// count). `None` when unbounded — single worker, no cut edges — or
    /// when the run fell back to the sequential kernel.
    lookahead: Option<u64>,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.speedup
    }

    /// Deterministic work reduction: dense element visits per event visit.
    fn work_ratio(&self) -> f64 {
        self.dense_steps as f64 / (self.event_steps as f64).max(1.0)
    }
}

/// Everything one run yields: seconds for the traffic phase, element
/// visits, the final report (after drain) for the differential check,
/// and the parallel kernel's lookahead window (`None` on sequential
/// kernels).
struct RunOut {
    secs: f64,
    steps: u64,
    report: icnoc_sim::SimReport,
    lookahead: Option<u64>,
}

fn run_once(w: &Workload, kernel: SimKernel, profile: bool) -> RunOut {
    let tree = TreeTopology::binary(w.ports).expect("power-of-two port count");
    let mut cfg = TreeNetworkConfig::new(tree)
        .with_seed(w.seed)
        .with_kernel(kernel)
        .with_profiling(profile);
    if let Some(rate) = w.mirror_rate {
        for p in 0..w.ports {
            cfg = cfg.with_port_pattern(
                PortId(p as u32),
                TrafficPattern::Hotspot {
                    rate,
                    target: PortId((w.ports - 1 - p) as u32),
                    fraction: 1.0,
                },
            );
        }
    } else {
        cfg = cfg.with_pattern(w.pattern);
    }
    if let Some(plan) = &w.faults {
        cfg = cfg.with_faults(plan.clone());
    }
    let mut net = cfg.build();
    let start = Instant::now();
    net.run_cycles(w.cycles);
    let secs = start.elapsed().as_secs_f64();
    // Recovery chains (timeout plus bounded backoff per retry) outlive
    // the traffic phase by a wide margin on the faulted workloads.
    let drain = if w.faults.is_some() {
        w.cycles.saturating_mul(4)
    } else {
        w.cycles
    };
    net.drain(drain);
    RunOut {
        secs,
        steps: net.element_steps(),
        lookahead: net.parallel_lookahead(),
        report: net.report(),
    }
}

fn measure(w: &Workload, workers: u32) -> Measurement {
    let mut best = [f64::INFINITY; 3];
    let mut steps = [0; 3];
    let mut reports = [None, None, None];
    let mut ratios = Vec::with_capacity(REPS);
    let mut par_ratios = Vec::with_capacity(REPS);
    let mut par_secs = Vec::with_capacity(REPS);
    // One untimed warm-up rep (page-in, branch training), then REPS timed
    // reps with the kernels interleaved so load spikes bias none of them.
    for rep in 0..=REPS {
        let mut secs = [0.0; 3];
        for (slot, kernel) in [
            SimKernel::Dense,
            SimKernel::EventDriven,
            SimKernel::Parallel { workers },
        ]
        .into_iter()
        .enumerate()
        {
            let out = run_once(w, kernel, false);
            secs[slot] = out.secs.max(1e-9);
            if rep > 0 {
                best[slot] = best[slot].min(secs[slot]);
            }
            steps[slot] = out.steps;
            reports[slot] = Some(out.report);
        }
        if rep > 0 {
            ratios.push(secs[0] / secs[1]);
            par_ratios.push(secs[1] / secs[2]);
            par_secs.push(secs[2]);
        }
    }
    assert_eq!(
        reports[0], reports[1],
        "{}: the event-driven kernel diverged from the dense oracle",
        w.name
    );
    assert_eq!(
        reports[1], reports[2],
        "{}: the parallel kernel diverged from the event kernel",
        w.name
    );
    // One profiled parallel rep: the zero-overhead floor (attaching the
    // profiler must not change one bit of the report — exact and
    // deterministic, unlike any wall-clock comparison) plus the
    // barrier/imbalance telemetry for the JSON output.
    let mut prof = run_once(w, SimKernel::Parallel { workers }, true);
    let perf = prof.report.perf.take().expect("profiling was enabled");
    assert_eq!(
        Some(&prof.report),
        reports[2].as_ref(),
        "{}: attaching the profiler changed the simulation outcome",
        w.name
    );
    ratios.sort_by(f64::total_cmp);
    par_ratios.sort_by(f64::total_cmp);
    par_secs.sort_by(f64::total_cmp);
    Measurement {
        name: w.name,
        ports: w.ports,
        cycles: w.cycles,
        dense_cps: w.cycles as f64 / best[0],
        event_cps: w.cycles as f64 / best[1],
        par_cps: w.cycles as f64 / best[2],
        dense_steps: steps[0],
        event_steps: steps[1],
        par_steps: steps[2],
        speedup: ratios[ratios.len() / 2],
        par_speedup: par_ratios[par_ratios.len() / 2],
        barrier_frac: perf.barrier_fraction().unwrap_or(0.0),
        imbalance: perf.load_imbalance(),
        profiler_overhead: prof.secs / par_secs[par_secs.len() / 2] - 1.0,
        lookahead: prof.lookahead,
    }
}

fn to_json(
    results: &[Measurement],
    workers: u32,
    host_cores: usize,
    floor: &str,
    parity: &str,
) -> JsonValue {
    JsonValue::Obj(vec![
        ("schema_version".to_owned(), JsonValue::Num(6.0)),
        ("suite".to_owned(), JsonValue::Str("sim_kernel".to_owned())),
        ("workers".to_owned(), JsonValue::Num(f64::from(workers))),
        ("host_cores".to_owned(), JsonValue::Num(host_cores as f64)),
        (
            "soak256_parallel_floor".to_owned(),
            JsonValue::Str(floor.to_owned()),
        ),
        (
            "soak256_parity_floor".to_owned(),
            JsonValue::Str(parity.to_owned()),
        ),
        (
            "workloads".to_owned(),
            JsonValue::Arr(
                results
                    .iter()
                    .map(|m| {
                        JsonValue::Obj(vec![
                            ("name".to_owned(), JsonValue::Str(m.name.to_owned())),
                            ("ports".to_owned(), JsonValue::Num(m.ports as f64)),
                            ("cycles".to_owned(), JsonValue::Num(m.cycles as f64)),
                            (
                                "dense_cycles_per_sec".to_owned(),
                                JsonValue::Num(m.dense_cps),
                            ),
                            (
                                "event_cycles_per_sec".to_owned(),
                                JsonValue::Num(m.event_cps),
                            ),
                            (
                                "parallel_cycles_per_sec".to_owned(),
                                JsonValue::Num(m.par_cps),
                            ),
                            (
                                "dense_element_steps".to_owned(),
                                JsonValue::Num(m.dense_steps as f64),
                            ),
                            (
                                "event_element_steps".to_owned(),
                                JsonValue::Num(m.event_steps as f64),
                            ),
                            (
                                "parallel_element_steps".to_owned(),
                                JsonValue::Num(m.par_steps as f64),
                            ),
                            ("speedup".to_owned(), JsonValue::Num(m.speedup())),
                            ("parallel_speedup".to_owned(), JsonValue::Num(m.par_speedup)),
                            ("work_ratio".to_owned(), JsonValue::Num(m.work_ratio())),
                            // Profiler telemetry (schema 3). Wall-derived
                            // and machine-specific — recorded for trend
                            // inspection, never baseline-gated.
                            (
                                "parallel_barrier_fraction".to_owned(),
                                JsonValue::Num(m.barrier_frac),
                            ),
                            (
                                "parallel_load_imbalance".to_owned(),
                                JsonValue::Num(m.imbalance),
                            ),
                            // Clamped at 0: a negative raw value means
                            // noise polluted the unprofiled reps
                            // (the symmetric gate bounds it), and a
                            // committed baseline should never record a
                            // negative cost.
                            (
                                "profiler_overhead".to_owned(),
                                JsonValue::Num(m.profiler_overhead.max(0.0)),
                            ),
                            // Schema 4: the epoch-batching lookahead
                            // window — deterministic, `null` when
                            // unbounded (single worker).
                            (
                                "parallel_lookahead".to_owned(),
                                m.lookahead
                                    .map_or(JsonValue::Null, |l| JsonValue::Num(l as f64)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One workload row of a baseline document.
struct BaselineRow {
    name: String,
    speedup: f64,
    /// `None` for schema-1 baselines.
    par_speedup: Option<f64>,
    /// Deterministic `(dense, event)` element visits, gated exactly.
    steps: [(&'static str, Option<u64>); 2],
}

/// Extracts every workload row from a baseline document.
fn baseline_rows(doc: &JsonValue) -> Vec<BaselineRow> {
    doc.get("workloads")
        .and_then(JsonValue::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|w| {
                    let count = |key| w.get(key).and_then(JsonValue::as_f64).map(|v| v as u64);
                    Some(BaselineRow {
                        name: w.get("name")?.as_str()?.to_owned(),
                        speedup: w.get("speedup")?.as_f64()?,
                        par_speedup: w.get("parallel_speedup").and_then(JsonValue::as_f64),
                        steps: ["dense_element_steps", "event_element_steps"]
                            .map(|key| (key, count(key))),
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Whether a baseline's parallel speedups are comparable to this run:
/// same requested worker count, same host core count. Across differing
/// hardware the ratio legitimately changes, so the gate skips it.
fn parallel_baseline_comparable(doc: &JsonValue, workers: u32, host_cores: usize) -> bool {
    let base_workers = doc.get("workers").and_then(JsonValue::as_f64);
    let base_cores = doc.get("host_cores").and_then(JsonValue::as_f64);
    base_workers == Some(f64::from(workers)) && base_cores == Some(host_cores as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut baseline_path = None;
    let mut workers: u32 = 2;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_path = it.next().cloned(),
            "--baseline" => baseline_path = it.next().cloned(),
            "--workers" => {
                workers = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--workers expects an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "usage: sim_bench [--out FILE] [--baseline FILE] [--workers N] (got {other:?})"
                );
                std::process::exit(2);
            }
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The soak256 ≥2× parallel floor needs real physical parallelism;
    // state its status explicitly so CI logs (and the JSON) show whether
    // the gate was live, and why not when it wasn't.
    let floor_armed =
        workers as usize >= PARALLEL_GATE_MIN_CORES && host_cores >= PARALLEL_GATE_MIN_CORES;
    let floor_status = if floor_armed {
        "armed".to_owned()
    } else {
        format!(
            "skipped({workers} worker(s), {host_cores} host core(s); \
             both must reach {PARALLEL_GATE_MIN_CORES})"
        )
    };
    // The soak256 parity floor: on fewer cores one worker shares its core
    // with the coordinator's fold and the OS, and the kernel runs below
    // parity by construction rather than by regression.
    let parity_armed = workers as usize == host_cores && host_cores >= PARITY_GATE_MIN_CORES;
    let parity_status = if parity_armed {
        "armed".to_owned()
    } else {
        format!(
            "skipped({workers} worker(s), {host_cores} host core(s); workers must equal \
             host cores and both reach {PARITY_GATE_MIN_CORES})"
        )
    };

    let results: Vec<Measurement> = workloads().iter().map(|w| measure(w, workers)).collect();

    println!(
        "workers: {workers} requested, {host_cores} host core(s)\n\
         floor: {PARALLEL_GATE_MIN_CORES}-core speedup {floor_status}; parity {parity_status}\n\
         workload   ports   dense c/s     event c/s      par c/s   speedup  par-speedup  work-ratio"
    );
    for m in &results {
        println!(
            "{:<9} {:>5} {:>11.0} {:>13.0} {:>12.0} {:>8.2}x {:>11.2}x {:>10.1}x",
            m.name,
            m.ports,
            m.dense_cps,
            m.event_cps,
            m.par_cps,
            m.speedup(),
            m.par_speedup,
            m.work_ratio()
        );
    }
    println!("profiler telemetry (barrier gated on soak256 only):");
    for m in &results {
        let lookahead = m
            .lookahead
            .map_or("unbounded".to_owned(), |l| l.to_string());
        println!(
            "  {:<9} barrier {:>5.1}%  imbalance {:>5.2}x  profiler overhead {:>+6.1}%  \
             lookahead {lookahead}",
            m.name,
            m.barrier_frac * 100.0,
            m.imbalance,
            m.profiler_overhead * 100.0
        );
    }
    let mut failed = false;

    // Tentpole gates: the event kernel must exploit idleness and must not
    // regress under saturation; the parallel kernel must do exactly the
    // event kernel's work.
    for m in &results {
        // Exact, noise-free: the event kernel may never visit more
        // elements than the dense scan on any workload.
        if m.event_steps > m.dense_steps {
            eprintln!(
                "GATE FAIL: {} event kernel visited {} elements vs dense {}",
                m.name, m.event_steps, m.dense_steps
            );
            failed = true;
        }
        // Equally exact: the parallel kernel's visit set is the event
        // kernel's, tick for tick.
        if m.par_steps != m.event_steps {
            eprintln!(
                "GATE FAIL: {} parallel kernel visited {} elements vs event {}",
                m.name, m.par_steps, m.event_steps
            );
            failed = true;
        }
        if m.name == "soak256" && floor_armed && m.par_speedup < SOAK256_MIN_PAR_SPEEDUP {
            eprintln!(
                "GATE FAIL: soak256 parallel speedup {:.2}x below required \
                 {SOAK256_MIN_PAR_SPEEDUP:.1}x at {workers} workers on {host_cores} cores",
                m.par_speedup
            );
            failed = true;
        }
        // Measurable-anywhere parallel floors: once the workers have real
        // cores under them, epoch batching must keep barrier waits from
        // dominating, and at workers == cores ≥ PARITY_GATE_MIN_CORES the
        // parallel kernel must at least hold parity with the event
        // kernel. Oversubscribed runs (workers > cores) time-slice every
        // rendezvous through the scheduler, so neither bound is
        // meaningful there.
        if m.name == "soak256" && workers as usize <= host_cores {
            if m.barrier_frac > SOAK256_MAX_BARRIER_FRACTION {
                eprintln!(
                    "GATE FAIL: soak256 barrier fraction {:.1}% above the \
                     {:.0}% ceiling at {workers} workers on {host_cores} cores",
                    m.barrier_frac * 100.0,
                    SOAK256_MAX_BARRIER_FRACTION * 100.0
                );
                failed = true;
            }
            let parity_floor = UNIFORM_MIN_SPEEDUP * (1.0 - JITTER);
            if parity_armed && m.par_speedup < parity_floor {
                eprintln!(
                    "GATE FAIL: soak256 parallel speedup {:.2}x below parity \
                     (jitter-adjusted floor {parity_floor:.2}x) at \
                     {workers} workers on {host_cores} cores",
                    m.par_speedup
                );
                failed = true;
            }
        }
        // Symmetric profiler-cost ceiling: a big positive overhead is a
        // real instrumentation regression, a big negative one means the
        // unprofiled reps were polluted — either way the
        // measurement can't be trusted and must not become a baseline.
        if m.profiler_overhead.abs() > MAX_PROFILER_OVERHEAD {
            eprintln!(
                "GATE FAIL: {} profiler overhead {:+.1}% exceeds the symmetric \
                 ±{:.0}% ceiling",
                m.name,
                m.profiler_overhead * 100.0,
                MAX_PROFILER_OVERHEAD * 100.0
            );
            failed = true;
        }
        let (min, floor) = match m.name {
            "idle64" => (IDLE64_MIN_SPEEDUP, IDLE64_MIN_SPEEDUP),
            "uniform16" | "uniform64" => {
                (UNIFORM_MIN_SPEEDUP, UNIFORM_MIN_SPEEDUP * (1.0 - JITTER))
            }
            _ => continue,
        };
        if m.speedup() < floor {
            eprintln!(
                "GATE FAIL: {} speedup {:.2}x below required {min:.1}x \
                 (jitter-adjusted floor {floor:.2}x)",
                m.name,
                m.speedup()
            );
            failed = true;
        }
    }

    // Baseline comparison: exact on the deterministic visit counts, within
    // tolerance on the hardware-independent speedup ratios.
    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => match JsonValue::parse(&text) {
                Ok(doc) => {
                    let par_comparable = parallel_baseline_comparable(&doc, workers, host_cores);
                    if !par_comparable {
                        println!(
                            "baseline parallel speedups recorded on different hardware or \
                             worker count — comparing event-vs-dense speedups only"
                        );
                    }
                    for row in baseline_rows(&doc) {
                        let name = &row.name;
                        let Some(m) = results.iter().find(|m| m.name == *name) else {
                            eprintln!("BASELINE WARN: workload {name:?} no longer measured");
                            continue;
                        };
                        let now_steps = [m.dense_steps, m.event_steps];
                        for ((what, base), now) in row.steps.into_iter().zip(now_steps) {
                            if let Some(base) = base.filter(|&base| base != now) {
                                eprintln!(
                                    "BASELINE FAIL: {name} {what} {now} differs from the exact \
                                     baseline {base} — re-record BENCH_sim.json if the change \
                                     is intended"
                                );
                                failed = true;
                            }
                        }
                        let mut pairs = vec![("speedup", m.speedup(), row.speedup)];
                        if par_comparable {
                            if let Some(bp) = row.par_speedup {
                                pairs.push(("parallel_speedup", m.par_speedup, bp));
                            }
                        }
                        for (what, now, base) in pairs {
                            if now < base * (1.0 - TOLERANCE) {
                                eprintln!(
                                    "BASELINE FAIL: {name} {what} {now:.2}x regressed more than \
                                     {:.0}% below baseline {base:.2}x",
                                    TOLERANCE * 100.0
                                );
                                failed = true;
                            } else if now > base * (1.0 + TOLERANCE) {
                                eprintln!(
                                    "BASELINE WARN: {name} {what} {now:.2}x improved more than \
                                     {:.0}% over baseline {base:.2}x — refresh BENCH_sim.json \
                                     (rerun with --out BENCH_sim.json and commit)",
                                    TOLERANCE * 100.0
                                );
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("BASELINE FAIL: cannot parse {path:?}: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("BASELINE FAIL: cannot read {path:?}: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(
            path,
            to_json(&results, workers, host_cores, &floor_status, &parity_status).to_pretty()
                + "\n",
        ) {
            eprintln!("cannot write {path:?}: {e}");
            std::process::exit(2);
        }
        println!("results written to {path}");
    }

    if failed {
        std::process::exit(1);
    }
    println!("bench-gate: PASS (reports bit-identical across kernels)");
}

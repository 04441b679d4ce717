//! Executing one grid point: build → verify → simulate → summarise.

use icnoc_sim::{FaultRates, ReportDigest, SimKernel};
use icnoc_timing::ProcessVariation;
use icnoc_units::Gigahertz;

use crate::grid::{GridError, JobConfig};
use crate::json::JsonValue;

/// The sigma multiplier used for every corner verification in a sweep
/// (the paper's 3σ yield target).
pub const K_SIGMA: f64 = 3.0;

/// The compact, serialisable result of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The resolved configuration this outcome belongs to.
    pub config: JobConfig,
    /// [`JobConfig::stable_hash`] — the job identity and simulation seed.
    pub hash: u64,
    /// The builder error, if the system could not be constructed at this
    /// grid point (e.g. routers cannot reach the requested clock).
    pub build_error: Option<String>,
    /// Whether the built system meets timing at the job's process corner
    /// under [`K_SIGMA`] variation. `false` whenever `build_error` is set.
    pub feasible: bool,
    /// The fastest timing-safe clock at this corner (GHz) — the system's
    /// graceful-degradation headroom. `0` if the point cannot build at
    /// any frequency.
    pub safe_freq_ghz: f64,
    /// The longest pipeline segment of the floorplan (mm); `0` without a
    /// built system.
    pub max_segment_mm: f64,
    /// Simulation headline numbers; `None` when the system did not build.
    pub digest: Option<ReportDigest>,
    /// Kernel-introspection summary, present only when the sweep ran
    /// with profiling enabled. Nondeterministic (wall-derived ratios),
    /// so it is emitted next to `wall_ms`, stripped before caching, and
    /// never read back from JSON.
    pub perf: Option<JobPerf>,
    /// Wall-clock milliseconds the job took (excluded from comparisons:
    /// the only non-deterministic field besides `perf`).
    pub wall_ms: u64,
}

/// The per-job slice of the simulator's `perf` section a sweep records:
/// just the headline ratios, not the per-epoch timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPerf {
    /// Stable kernel label (`dense` / `event` / `parallel`).
    pub kernel: String,
    /// Resolved worker count (1 on the dense and event kernels).
    pub workers: u32,
    /// Barrier epochs (half-cycle ticks) executed.
    pub epochs: u64,
    /// Max/mean shard steps (1.0 = perfectly balanced).
    pub load_imbalance: f64,
    /// Fraction of worker wall time spent at barriers (0.0 when
    /// unavailable).
    pub barrier_fraction: f64,
}

/// Builds, verifies and simulates one grid point.
///
/// A build failure is a *result*, not an error: the outcome records the
/// message, reports the point infeasible, and still computes the
/// graceful-degradation frequency by re-building the same geometry at a
/// low reference clock where possible.
///
/// # Errors
///
/// Returns a [`GridError`] only for configs that cannot even be
/// interpreted (unknown corner label or malformed pattern spec) —
/// conditions [`crate::GridSpec::parse`] has already screened out.
pub fn run_job(config: &JobConfig) -> Result<JobOutcome, GridError> {
    run_job_with_kernel(config, SimKernel::default())
}

/// Like [`run_job`], but simulating with an explicit stepping
/// [`SimKernel`]. The kernel is an **execution** option, not part of the
/// job identity: every kernel produces bit-identical reports, so outcomes
/// keep the same [`JobConfig::stable_hash`] and remain cache-compatible
/// whichever kernel computed them.
///
/// # Errors
///
/// See [`run_job`].
pub fn run_job_with_kernel(config: &JobConfig, kernel: SimKernel) -> Result<JobOutcome, GridError> {
    run_job_with_options(config, kernel, false, None)
}

/// Like [`run_job_with_kernel`], with per-job kernel profiling as an
/// opt-in. Profiling does not change simulation results — the outcome
/// merely gains a [`JobPerf`] summary (which cache writers strip, keeping
/// cache contents kernel- and profiling-invariant).
///
/// The fourth parameter is ignored: speculate-and-replay no longer
/// exists. It is kept only so the `benchmark/` package builds unchanged;
/// the next change to that package deletes it.
///
/// # Errors
///
/// See [`run_job`].
pub fn run_job_with_options(
    config: &JobConfig,
    kernel: SimKernel,
    profile: bool,
    _speculate: Option<u32>,
) -> Result<JobOutcome, GridError> {
    let corner = config
        .system
        .resolve_corner()
        .map_err(|e| GridError(e.to_string()))?;
    let pattern = config.traffic()?;
    let hash = config.stable_hash();
    let started = std::time::Instant::now();

    let outcome = match config.system.build() {
        Err(err) => {
            // The point is off the feasible surface; salvage the
            // degradation curve from a slow-clock rebuild of the same
            // geometry (0 if even that fails, e.g. a topology error).
            let mut reference = config.system.clone();
            reference.freq_ghz = REFERENCE_GHZ;
            let safe_freq_ghz = reference
                .build()
                .map(|sys| safe_frequency(&sys, corner.variation()))
                .unwrap_or(0.0);
            JobOutcome {
                config: config.clone(),
                hash,
                build_error: Some(err.to_string()),
                feasible: false,
                safe_freq_ghz,
                max_segment_mm: 0.0,
                digest: None,
                perf: None,
                wall_ms: 0,
            }
        }
        Ok(system) => {
            let verification = system.verify_under(corner.variation(), K_SIGMA);
            let patterns = vec![pattern; system.tree().num_ports()];
            let mut net = system.network_with_kernel(&patterns, hash, kernel);
            if profile {
                net.enable_profiling();
            }
            if config.soak > 0.0 {
                net.enable_faults(
                    system
                        .fault_plan(hash)
                        .with_rates(FaultRates::soak().scaled(config.soak)),
                );
            }
            // A timeout shows in the digest as undelivered flits.
            let _ = net.run_and_drain(config.cycles);
            let report = net.report();
            JobOutcome {
                config: config.clone(),
                hash,
                build_error: None,
                feasible: verification.is_timing_safe(),
                safe_freq_ghz: safe_frequency(&system, corner.variation()),
                max_segment_mm: system.max_segment().value(),
                digest: Some(report.digest()),
                perf: report.perf.as_ref().map(|p| JobPerf {
                    kernel: p.kernel.clone(),
                    workers: p.workers,
                    epochs: p.epochs,
                    load_imbalance: p.load_imbalance(),
                    barrier_fraction: p.barrier_fraction().unwrap_or(0.0),
                }),
                wall_ms: 0,
            }
        }
    };
    Ok(JobOutcome {
        wall_ms: started.elapsed().as_millis() as u64,
        ..outcome
    })
}

/// The reference clock used to recover a degradation frequency for
/// points that fail to build at their requested clock.
const REFERENCE_GHZ: f64 = 0.1;

/// The fastest safe clock of `system` at `variation`, additionally capped
/// by the router class's own frequency ceiling (the link analysis alone
/// does not know about router logic depth).
fn safe_frequency(system: &icnoc::System, variation: ProcessVariation) -> f64 {
    let links: Gigahertz = system.max_safe_frequency(variation, K_SIGMA);
    let router = system.tree().router_class().max_frequency();
    links.value().min(router.value())
}

impl JobOutcome {
    /// A synthetic infeasible outcome recording a panic or
    /// interpretation failure, so one diverged job cannot sink a sweep
    /// (or a service worker). Never cached.
    #[must_use]
    pub fn failed(config: &JobConfig, msg: &str) -> Self {
        Self {
            config: config.clone(),
            hash: config.stable_hash(),
            build_error: Some(format!("job failed: {msg}")),
            feasible: false,
            safe_freq_ghz: 0.0,
            max_segment_mm: 0.0,
            digest: None,
            perf: None,
            wall_ms: 0,
        }
    }

    /// Serialises to a JSON object. The nondeterministic fields come
    /// last: `perf` (present only on profiled sweeps) just before
    /// `wall_ms`, so consumers comparing runs can strip them.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("config".into(), self.config.to_json()),
            ("hash".into(), JsonValue::Str(format!("{:016x}", self.hash))),
            (
                "build_error".into(),
                match &self.build_error {
                    Some(e) => JsonValue::Str(e.clone()),
                    None => JsonValue::Null,
                },
            ),
            ("feasible".into(), JsonValue::Bool(self.feasible)),
            ("safe_freq_ghz".into(), JsonValue::Num(self.safe_freq_ghz)),
            ("max_segment_mm".into(), JsonValue::Num(self.max_segment_mm)),
            (
                "digest".into(),
                match &self.digest {
                    Some(d) => digest_to_json(d),
                    None => JsonValue::Null,
                },
            ),
        ];
        if let Some(p) = &self.perf {
            pairs.push((
                "perf".into(),
                JsonValue::Obj(vec![
                    ("kernel".into(), JsonValue::Str(p.kernel.clone())),
                    ("workers".into(), JsonValue::Num(f64::from(p.workers))),
                    ("epochs".into(), JsonValue::Num(p.epochs as f64)),
                    ("load_imbalance".into(), JsonValue::Num(p.load_imbalance)),
                    (
                        "barrier_fraction".into(),
                        JsonValue::Num(p.barrier_fraction),
                    ),
                ]),
            ));
        }
        pairs.push(("wall_ms".into(), JsonValue::Num(self.wall_ms as f64)));
        JsonValue::Obj(pairs)
    }

    /// Deserialises from [`to_json`](Self::to_json)'s object form.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] naming the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Self, GridError> {
        let config = JobConfig::from_json(
            v.get("config")
                .ok_or_else(|| GridError("outcome missing config".to_owned()))?,
        )?;
        let hash_hex = v
            .get("hash")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| GridError("outcome missing hash".to_owned()))?;
        let hash = u64::from_str_radix(hash_hex, 16)
            .map_err(|_| GridError(format!("bad outcome hash {hash_hex:?}")))?;
        let num = |k: &str| -> Result<f64, GridError> {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| GridError(format!("outcome missing numeric field {k:?}")))
        };
        Ok(Self {
            config,
            hash,
            build_error: match v.get("build_error") {
                Some(JsonValue::Str(e)) => Some(e.clone()),
                _ => None,
            },
            feasible: v
                .get("feasible")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| GridError("outcome missing feasible".to_owned()))?,
            safe_freq_ghz: num("safe_freq_ghz")?,
            max_segment_mm: num("max_segment_mm")?,
            digest: match v.get("digest") {
                Some(JsonValue::Null) | None => None,
                Some(d) => Some(digest_from_json(d)?),
            },
            // Perf telemetry is output-only: it is nondeterministic, so a
            // reloaded outcome (the cache path) deliberately drops it.
            perf: None,
            wall_ms: num("wall_ms")? as u64,
        })
    }
}

fn digest_to_json(d: &ReportDigest) -> JsonValue {
    JsonValue::Obj(vec![
        ("cycles".into(), JsonValue::Num(d.cycles as f64)),
        ("sent".into(), JsonValue::Num(d.sent as f64)),
        ("delivered".into(), JsonValue::Num(d.delivered as f64)),
        ("throughput".into(), JsonValue::Num(d.throughput)),
        ("mean_latency".into(), JsonValue::Num(d.mean_latency)),
        ("p50".into(), JsonValue::Num(d.p50)),
        ("p95".into(), JsonValue::Num(d.p95)),
        ("p99".into(), JsonValue::Num(d.p99)),
        ("max_latency".into(), JsonValue::Num(d.max_latency)),
        ("correct".into(), JsonValue::Bool(d.correct)),
        ("responses".into(), JsonValue::Num(d.responses as f64)),
        (
            "faults_injected".into(),
            JsonValue::Num(d.faults_injected as f64),
        ),
        (
            "faults_recovered".into(),
            JsonValue::Num(d.faults_recovered as f64),
        ),
        ("faults_lost".into(), JsonValue::Num(d.faults_lost as f64)),
        (
            "retransmissions".into(),
            JsonValue::Num(d.retransmissions as f64),
        ),
        ("effective_ghz".into(), JsonValue::Num(d.effective_ghz)),
    ])
}

fn digest_from_json(v: &JsonValue) -> Result<ReportDigest, GridError> {
    let num = |k: &str| -> Result<f64, GridError> {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| GridError(format!("digest missing field {k:?}")))
    };
    Ok(ReportDigest {
        cycles: num("cycles")? as u64,
        sent: num("sent")? as u64,
        delivered: num("delivered")? as u64,
        throughput: num("throughput")?,
        mean_latency: num("mean_latency")?,
        p50: num("p50")?,
        p95: num("p95")?,
        p99: num("p99")?,
        max_latency: num("max_latency")?,
        correct: v
            .get("correct")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| GridError("digest missing correct".to_owned()))?,
        responses: num("responses")? as u64,
        faults_injected: num("faults_injected")? as u64,
        faults_recovered: num("faults_recovered")? as u64,
        faults_lost: num("faults_lost")? as u64,
        retransmissions: num("retransmissions")? as u64,
        effective_ghz: num("effective_ghz")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn demonstrator_point_is_feasible_and_simulates() {
        let job = &GridSpec::parse("cycles=300").expect("parses").resolve()[0];
        let outcome = run_job(job).expect("runs");
        assert!(outcome.build_error.is_none());
        assert!(outcome.feasible, "the paper's demonstrator meets timing");
        // The degradation solver's epsilon guard sits fractionally below
        // the exact bound, so compare with a tolerance.
        assert!(outcome.safe_freq_ghz >= 1.0 - 1e-6);
        let digest = outcome.digest.expect("simulated");
        assert!(digest.correct);
        assert!(digest.delivered > 0);
    }

    #[test]
    fn unbuildable_point_records_the_error_and_a_degradation_freq() {
        // 3 GHz exceeds the router class ceiling: build fails.
        let job = &GridSpec::parse("freq=3.0;cycles=100")
            .expect("parses")
            .resolve()[0];
        let outcome = run_job(job).expect("runs");
        assert!(outcome.build_error.is_some());
        assert!(!outcome.feasible);
        assert!(outcome.digest.is_none());
        // But the geometry still has a safe operating frequency.
        assert!(outcome.safe_freq_ghz > 0.0);
        assert!(outcome.safe_freq_ghz < 3.0);
    }

    #[test]
    fn identical_configs_yield_identical_outcomes() {
        let job = &GridSpec::parse("ports=16;cycles=200;soak=1")
            .expect("parses")
            .resolve()[0];
        let mut a = run_job(job).expect("runs");
        let mut b = run_job(job).expect("runs");
        a.wall_ms = 0;
        b.wall_ms = 0;
        assert_eq!(a, b);
        assert!(a.digest.expect("simulated").faults_injected > 0);
    }

    #[test]
    fn jobs_simulate_exactly_what_the_system_entry_points_do() {
        // Both paths run `Network::run_and_drain`, so a job's digest is
        // the one `System::simulate` / `simulate_with_faults` report.
        for job in GridSpec::parse("ports=16;cycles=300;soak=0,1")
            .expect("parses")
            .resolve()
        {
            let system = job.system.build().expect("builds");
            let (pattern, seed) = (job.traffic().expect("parses"), job.stable_hash());
            let report = if job.soak > 0.0 {
                let plan = system
                    .fault_plan(seed)
                    .with_rates(FaultRates::soak().scaled(job.soak));
                system.simulate_with_faults(pattern, job.cycles, seed, plan)
            } else {
                system.simulate(pattern, job.cycles, seed)
            };
            let outcome = run_job(&job).expect("runs");
            assert_eq!(outcome.digest, Some(report.digest()), "soak={}", job.soak);
        }
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let job = &GridSpec::parse("ports=16;cycles=150")
            .expect("parses")
            .resolve()[0];
        let outcome = run_job(job).expect("runs");
        let text = outcome.to_json().to_pretty();
        let back = JobOutcome::from_json(&JsonValue::parse(&text).expect("parses")).expect("loads");
        assert_eq!(back, outcome);
        // wall_ms sits on its own final line in pretty form, so run
        // comparisons can strip it textually.
        let wall_lines: Vec<&str> = text.lines().filter(|l| l.contains("wall_ms")).collect();
        assert_eq!(wall_lines.len(), 1);
    }
}

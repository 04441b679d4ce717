//! Metric catalog, per-workload collection, and the printed and JSON
//! reports.

use std::fmt::Write as _;

use icnoc_explore::JsonValue;

use crate::stats::{median, percentile, tail_percentile, Summary};
use crate::trace::Span;
use crate::traced::Traced;
use crate::workload::{Rep, Workload};

/// An end-to-end metric. All are lower-is-better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The share of the base median by which the metric may worsen
    /// before a comparison calls it worse.
    pub bound: f64,
    /// How a single-workload run reduces its reps to one value.
    pub per_run: PerRun,
}

/// How a single-workload run reduces its reps to the one value it
/// reports for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerRun {
    /// The fastest rep. On a shared host, contention only ever adds
    /// time, and its phases last longer than a run; the fastest rep is
    /// the estimate a slow phase disturbs least.
    Min,
    /// The median rep.
    Median,
}

impl PerRun {
    /// Reduces `values`.
    #[must_use]
    pub fn of(self, values: &[f64]) -> Option<f64> {
        match self {
            Self::Min => values.iter().copied().reduce(f64::min),
            Self::Median => median(values),
        }
    }
}

/// End-to-end metrics every workload reports.
pub const E2E: [E2eMetric; 3] = [
    E2eMetric {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        per_run: PerRun::Min,
    },
    E2eMetric {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        per_run: PerRun::Min,
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
        per_run: PerRun::Median,
    },
];

/// The bound of `serve`'s per-sweep latency percentiles.
pub const SWEEP_LATENCY_BOUND: f64 = 0.25;

/// Every per-layer metric and its unit. A workload reports the ones its
/// traced rep measures; the rest read 0 where a report must list all.
pub const LAYERS: [(&str, &str); 48] = [
    ("core.build_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.drain_s", "s"),
    ("sim.report_s", "s"),
    ("core.power_s", "s"),
    ("cli.render_s", "s"),
    ("sim.elements", "count"),
    ("sim.element_steps", "count"),
    ("sim.ticks", "count"),
    ("sim.drain_ticks", "count"),
    ("sim.delivered", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.parallel.workers", "count"),
    ("sim.parallel.fallback", "count"),
    ("sim.parallel.barrier_frac", "frac"),
    ("sim.parallel.epochs", "count"),
    ("sim.parallel.load_imbalance", "ratio"),
    ("sim.parallel.lookahead", "ticks"),
    ("fault.injected", "count"),
    ("fault.timing_violations", "count"),
    ("fault.retransmissions", "count"),
    ("fault.recovered", "count"),
    ("fault.lost", "count"),
    ("fault.clock_loss_events", "count"),
    ("fault.resyncs", "count"),
    ("explore.parse_s", "s"),
    ("explore.cache_prescan_s", "s"),
    ("explore.job_s", "s"),
    ("explore.cache_store_s", "s"),
    ("explore.fold_s", "s"),
    ("explore.cache_load_s", "s"),
    ("explore.job_p50_ms", "ms"),
    ("explore.job_max_ms", "ms"),
    ("explore.executor_util", "frac"),
    ("explore.jobs_executed", "count"),
    ("explore.jobs_feasible", "count"),
    ("explore.cache_hits", "count"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_p90_ms", "ms"),
    ("serve.stream_p50_ms", "ms"),
    ("serve.stream_p90_ms", "ms"),
    ("serve.result_p50_ms", "ms"),
    ("serve.jobs_executed", "count"),
    ("serve.jobs_deduped", "count"),
    ("serve.cache_hits", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
];

fn layer_unit(name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("s", |(_, unit)| *unit)
}

/// Gathers one workload's reps and checks them against each other.
#[derive(Debug)]
pub struct Collector {
    workload: Workload,
    attempted: usize,
    failures: Vec<String>,
    digest: Option<u64>,
    wall: Vec<f64>,
    setup: Vec<f64>,
    rss: Vec<f64>,
    sweep_latencies: Vec<Vec<f64>>,
    traced: Vec<Traced>,
}

impl Collector {
    /// An empty collector for `workload`.
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            attempted: 0,
            failures: Vec::new(),
            digest: None,
            wall: Vec::new(),
            setup: Vec::new(),
            rss: Vec::new(),
            sweep_latencies: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// The workload collected.
    #[must_use]
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Checks a rep; returns it when it passed every check.
    fn check(&mut self, rep: Result<Rep, String>) -> Option<Rep> {
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                self.attempted += 1;
                self.failures.push(e);
                return None;
            }
        };
        self.attempted += rep.attempts;
        if !rep.errors.is_empty() {
            self.failures.extend(rep.errors);
            return None;
        }
        self.same_output(rep.digest, "rep").then_some(rep)
    }

    /// Whether `digest` equals the first rep's, recording a failure when not.
    fn same_output(&mut self, digest: u64, what: &str) -> bool {
        match self.digest {
            Some(first) if first != digest => {
                self.failures.push(format!(
                    "{what} output digest {digest:016x} differs from the first rep's {first:016x}"
                ));
                false
            }
            Some(_) => true,
            None => {
                self.digest = Some(digest);
                true
            }
        }
    }

    /// An untimed warm-up rep: checked, not sampled.
    pub fn warmup(&mut self, rep: Result<Rep, String>) {
        let _ = self.check(rep);
    }

    /// A timed rep.
    pub fn rep(&mut self, rep: Result<Rep, String>) {
        if let Some(rep) = self.check(rep) {
            self.wall.push(rep.wall_s);
            self.rss.push(rep.rss_mb);
            if !rep.latencies_ms.is_empty() {
                self.sweep_latencies.push(rep.latencies_ms);
            }
        }
    }

    /// A set-up rep.
    pub fn setup(&mut self, setup_s: Result<f64, String>) {
        self.attempted += 1;
        match setup_s {
            Ok(s) => self.setup.push(s),
            Err(e) => self.failures.push(format!("set-up: {e}")),
        }
    }

    /// A traced rep; its re-rendered output must match the children's.
    pub fn traced(&mut self, traced: Result<Traced, String>) {
        self.attempted += 1;
        match traced {
            Ok(t) => {
                if self.same_output(t.digest, "traced") {
                    self.traced.push(t);
                }
            }
            Err(e) => self.failures.push(format!("traced: {e}")),
        }
    }

    /// Summarises everything collected.
    #[must_use]
    pub fn finish(self) -> WorkloadResult {
        let mut e2e: Vec<Samples> = E2E
            .iter()
            .map(|m| Samples {
                name: m.name.to_owned(),
                unit: m.unit,
                bound: m.bound,
                values: match m.name {
                    "wall_s" => self.wall.clone(),
                    "setup_s" => self.setup.clone(),
                    _ => self.rss.clone(),
                },
            })
            .collect();
        // Per-session latency percentiles: the tail reported is the
        // highest one with ten sweeps beyond it in every session.
        let sweeps = self.sweep_latencies.iter().map(Vec::len).min().unwrap_or(0);
        let mut tails = vec![0.5];
        tails.extend(tail_percentile(sweeps).filter(|&p| p > 0.5));
        if sweeps > 0 {
            for p in tails {
                e2e.push(Samples {
                    name: format!("sweep_p{:.0}_ms", p * 100.0),
                    unit: "ms",
                    bound: SWEEP_LATENCY_BOUND,
                    values: self
                        .sweep_latencies
                        .iter()
                        .filter_map(|l| percentile(l, p))
                        .collect(),
                });
            }
        }

        // Every traced rep of a workload measures the same layers.
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        for &(name, _) in self.traced.first().map_or(&[][..], |t| &t.layers) {
            let values: Vec<f64> = self
                .traced
                .iter()
                .filter_map(|t| t.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            layers.push((name, median(&values).unwrap_or(0.0)));
        }
        let traced_wall: Vec<f64> = self.traced.iter().map(|t| t.wall_s).collect();
        if let (Some(traced), Some(e2e)) = (median(&traced_wall), median(&self.wall)) {
            layers.push(("bench.trace_overhead_frac", traced / e2e - 1.0));
        }

        WorkloadResult {
            workload: self.workload,
            attempted: self.attempted,
            failures: self.failures,
            digest: self.digest,
            e2e,
            layers,
            spans: self
                .traced
                .into_iter()
                .next()
                .map(|t| t.spans)
                .unwrap_or_default(),
        }
    }
}

/// The samples of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Regression bound (share of the base median).
    pub bound: f64,
    /// One value per rep (per session for `serve`'s latency percentiles).
    pub values: Vec<f64>,
}

/// One workload's results.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Operations checked: reps, set-up reps, traced reps and sweeps.
    pub attempted: usize,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// The output digest every rep and the traced rep agreed on.
    pub digest: Option<u64>,
    /// End-to-end metrics.
    pub e2e: Vec<Samples>,
    /// Per-layer metrics from the traced reps (medians when several).
    pub layers: Vec<(&'static str, f64)>,
    /// The first traced rep's spans.
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    /// Failed operations over attempted ones.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The median of end-to-end metric `name`.
    #[must_use]
    pub fn e2e_median(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| median(&s.values))
    }

    /// The value of layer metric `name`, if the workload measured it.
    #[must_use]
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} attempted, {} failed, output_digest {}",
            self.workload.name(),
            self.attempted,
            self.failures.len(),
            self.digest
                .map_or("none".to_owned(), |d| format!("{d:016x}"))
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        for s in &self.e2e {
            if let Some(sum) = Summary::of(&s.values) {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>12.6} {:<5} q1 {:.6}  q3 {:.6}  min {:.6}  n {}",
                    s.name,
                    sum.median,
                    s.unit,
                    sum.q1,
                    sum.q3,
                    s.values.iter().copied().fold(f64::INFINITY, f64::min),
                    sum.n
                );
            }
        }
        let _ = writeln!(out, "  {:<28} {:>12.6}", "failed_frac", self.failed_frac());
        for (name, value) in &self.layers {
            let _ = writeln!(out, "  {name:<28} {value:>12.6} {}", layer_unit(name));
        }
        out
    }

    /// The JSON form written by `--out` and read by `--compare`.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let e2e = self
            .e2e
            .iter()
            .filter_map(|s| {
                let sum = Summary::of(&s.values)?;
                Some((
                    s.name.clone(),
                    JsonValue::Obj(vec![
                        ("unit".into(), JsonValue::Str(s.unit.into())),
                        ("bound".into(), JsonValue::Num(s.bound)),
                        ("q1".into(), JsonValue::Num(sum.q1)),
                        ("median".into(), JsonValue::Num(sum.median)),
                        ("q3".into(), JsonValue::Num(sum.q3)),
                        ("n".into(), JsonValue::Num(sum.n as f64)),
                        (
                            "samples".into(),
                            JsonValue::Arr(s.values.iter().map(|&v| JsonValue::Num(v)).collect()),
                        ),
                    ]),
                ))
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|&(name, value)| (name.to_owned(), metric_json(value, layer_unit(name))))
            .collect();
        JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(self.workload.name().into())),
            ("attempted".into(), JsonValue::Num(self.attempted as f64)),
            ("failed".into(), JsonValue::Num(self.failures.len() as f64)),
            ("failed_frac".into(), JsonValue::Num(self.failed_frac())),
            (
                "output_digest".into(),
                self.digest
                    .map_or(JsonValue::Null, |d| JsonValue::Str(format!("{d:016x}"))),
            ),
            ("e2e".into(), JsonValue::Obj(e2e)),
            ("layers".into(), JsonValue::Obj(layers)),
            (
                "failures".into(),
                JsonValue::Arr(
                    self.failures
                        .iter()
                        .map(|f| JsonValue::Str(f.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The one-line result of a single-workload run: every end-to-end
    /// metric reduced by its [`PerRun`], or (`traced`) every per-layer
    /// metric, 0 where this workload does not call the layer.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> JsonValue {
        let metrics = if traced {
            LAYERS
                .iter()
                .map(|&(name, unit)| {
                    (
                        name.to_owned(),
                        metric_json(self.layer(name).unwrap_or(0.0), unit),
                    )
                })
                .collect()
        } else {
            E2E.iter()
                .map(|m| {
                    let value = self
                        .e2e
                        .iter()
                        .find(|s| s.name == m.name)
                        .and_then(|s| m.per_run.of(&s.values))
                        .unwrap_or(f64::NAN);
                    (m.name.to_owned(), metric_json(value, m.unit))
                })
                .collect()
        };
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.failures.is_empty())),
            ("attempted".into(), JsonValue::Num(self.attempted as f64)),
            ("failed".into(), JsonValue::Num(self.failures.len() as f64)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
    }
}

fn metric_json(value: f64, unit: &str) -> JsonValue {
    JsonValue::Obj(vec![
        ("value".into(), JsonValue::Num(value)),
        ("unit".into(), JsonValue::Str(unit.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, digest: u64) -> Result<Rep, String> {
        Ok(Rep {
            wall_s,
            rss_mb: 10.0,
            digest,
            attempts: 1,
            ..Rep::default()
        })
    }

    #[test]
    fn differing_outputs_fail_the_rep() {
        let mut c = Collector::new(Workload::Soak256);
        c.warmup(rep(9.0, 1));
        c.rep(rep(1.0, 1));
        c.rep(rep(2.0, 2));
        c.rep(Err("exited with 1".to_owned()));
        c.setup(Ok(0.5));
        let r = c.finish();
        assert_eq!(r.attempted, 5);
        assert_eq!(r.failures.len(), 2);
        assert_eq!(
            r.e2e_median("wall_s"),
            Some(1.0),
            "the warm-up is not sampled"
        );
        assert_eq!(r.e2e_median("setup_s"), Some(0.5));
        assert!((r.failed_frac() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut c = Collector::new(Workload::Soak256);
        c.rep(rep(1.0, 1));
        c.setup(Ok(0.5));
        let r = c.finish();
        let e2e = r.result_line(false);
        let metrics = e2e.get("metrics").expect("metrics");
        assert!(E2E.iter().all(|m| metrics.get(m.name).is_some()));
        assert_eq!(e2e.get("correct"), Some(&JsonValue::Bool(true)));
        let layers = r.result_line(true);
        let metrics = layers.get("metrics").expect("metrics");
        assert!(LAYERS.iter().all(|(n, _)| metrics.get(n).is_some()));
    }

    #[test]
    fn sweep_tail_is_reported_only_with_ten_sweeps_beyond_it() {
        let session: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut c = Collector::new(Workload::Serve);
        c.rep(Ok(Rep {
            latencies_ms: session,
            attempts: 101,
            ..Rep::default()
        }));
        let r = c.finish();
        assert_eq!(r.e2e_median("sweep_p50_ms"), Some(50.0));
        assert_eq!(r.e2e_median("sweep_p90_ms"), Some(90.0));

        let mut c = Collector::new(Workload::Serve);
        c.rep(Ok(Rep {
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            attempts: 5,
            ..Rep::default()
        }));
        let r = c.finish();
        assert_eq!(r.e2e_median("sweep_p50_ms"), Some(2.0));
        assert_eq!(r.e2e_median("sweep_p90_ms"), None);
    }
}

//! Kernel introspection: per-worker, per-epoch profiling of the stepping
//! kernels.
//!
//! The half-cycle polarity flip is the kernels' global synchronisation
//! point, so all profiling is organised around **barrier epochs** — one
//! epoch per tick. When profiling is enabled
//! ([`Network::enable_profiling`](crate::Network)), every worker records,
//! per epoch, its wall time split into three phases:
//!
//! * **step** — draining the shard's ready set and visiting elements;
//! * **flush** — computing the shard's activity summary and, on the
//!   coordinator, folding the shard logs, routing the cross-shard wakes
//!   and evaluating the stop condition;
//! * **barrier** — waiting for the next window and, on the coordinator,
//!   for every other worker to finish the current one.
//!
//! The aggregate lands in the `perf` section of
//! [`SimReport`](crate::SimReport) as a [`PerfReport`]. Deterministic
//! counters (steps, cross-shard wakes, epochs, shard sizes) are kept strictly
//! apart from nondeterministic wall times: the counters are bit-identical
//! for a given configuration and kernel on every run, while everything
//! measured with a clock lives in the optional [`PerfWall`] — the same
//! isolation discipline the explore crate applies to `wall_ms`.
//!
//! Like the trace sinks ([`Network::enable_counters`](crate::Network::enable_counters),
//! [`Network::enable_event_buffer`](crate::Network::enable_event_buffer)),
//! profiling is opt-in: a network without a profiler pays one
//! predictable branch per tick and never reads the clock.

use serde::{Deserialize, Serialize};

/// One retained profiling sample: `ticks` consecutive barrier epochs of
/// one worker, merged.
///
/// The per-worker log is bounded (see [`WorkerProfile::stride`]): when it
/// fills, adjacent samples are pairwise merged and the stride doubles, so
/// arbitrarily long runs keep a fixed-size timeline whose sums are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EpochSample {
    /// First half-cycle tick this sample covers.
    pub tick: u64,
    /// Number of consecutive epochs merged into this sample.
    pub ticks: u32,
    /// Element visits executed.
    pub steps: u64,
    /// Wall-clock offset of the sample's start from the profiler's
    /// time base, in nanoseconds.
    pub start_ns: u64,
    /// Wall time spent visiting elements.
    pub step_ns: u64,
    /// Wall time spent after the visits: the activity summary and, on
    /// the coordinator, the log fold and the wake routing.
    pub flush_ns: u64,
    /// Wall time spent waiting for the window and, on the coordinator,
    /// for the other workers.
    pub barrier_ns: u64,
}

impl EpochSample {
    /// Folds a later sample into this one (sums counters and phase
    /// times; keeps this sample's start).
    fn merge(&mut self, other: &EpochSample) {
        self.ticks += other.ticks;
        self.steps += other.steps;
        self.step_ns += other.step_ns;
        self.flush_ns += other.flush_ns;
        self.barrier_ns += other.barrier_ns;
    }
}

/// Retained samples per worker before the log compacts by doubling its
/// stride.
const MAX_SAMPLES: usize = 4096;

/// One worker's wall-clock profile: phase totals plus the compacted epoch
/// timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerProfile {
    /// Worker (= shard) index; the dense loop and the event kernel
    /// report worker 0.
    pub worker: u32,
    /// Barrier epochs (ticks) this worker participated in.
    pub epochs: u64,
    /// Total wall time in the step phase, nanoseconds.
    pub step_ns: u64,
    /// Total wall time in the flush phase, nanoseconds.
    pub flush_ns: u64,
    /// Total wall time waiting at barriers, nanoseconds.
    pub barrier_ns: u64,
    /// Epochs merged per retained sample (doubles on compaction).
    pub stride: u32,
    /// The compacted epoch timeline, in tick order.
    pub samples: Vec<EpochSample>,
}

impl Default for WorkerProfile {
    fn default() -> Self {
        Self {
            worker: 0,
            epochs: 0,
            step_ns: 0,
            flush_ns: 0,
            barrier_ns: 0,
            stride: 1,
            samples: Vec::new(),
        }
    }
}

impl WorkerProfile {
    /// Total wall time attributed to any phase, nanoseconds.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.step_ns + self.flush_ns + self.barrier_ns
    }

    /// Pairwise-merges adjacent samples, halving the log and doubling the
    /// stride. Sums are preserved exactly.
    fn compact(&mut self) {
        let mut write = 0;
        let mut read = 0;
        while read + 1 < self.samples.len() {
            let mut merged = self.samples[read];
            merged.merge(&self.samples[read + 1]);
            self.samples[write] = merged;
            read += 2;
            write += 1;
        }
        if read < self.samples.len() {
            self.samples[write] = self.samples[read];
            write += 1;
        }
        self.samples.truncate(write);
        self.stride = self.stride.saturating_mul(2);
    }
}

/// Per-worker profiling accumulator, owned by the recording worker while
/// a batch runs (so no synchronisation is needed on the hot path).
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreProf {
    /// The profile being built.
    profile: WorkerProfile,
    /// Wall-clock nanoseconds elapsed in *earlier* batches; sample
    /// starts are offset by this so the timeline is continuous across
    /// `run_cycles`/`drain` batch boundaries.
    pub(crate) base_ns: u64,
    /// Epochs accumulated into `pending` so far (flushes at `stride`).
    pending_epochs: u32,
    /// The in-progress sample.
    pending: EpochSample,
}

impl CoreProf {
    /// Marks the start of a batch: later samples offset their timestamps
    /// by `base_ns` (the profiler's cumulative elapsed time).
    pub(crate) fn begin_batch(&mut self, base_ns: u64) {
        self.base_ns = base_ns;
    }

    /// Records one window's sample — `sample.ticks` epochs at once (a
    /// multi-tick batched window contributes a single sample);
    /// `start_ns` already absolute against the profiler's time base.
    pub(crate) fn record(&mut self, sample: EpochSample) {
        let p = &mut self.profile;
        p.epochs += u64::from(sample.ticks);
        p.step_ns += sample.step_ns;
        p.flush_ns += sample.flush_ns;
        p.barrier_ns += sample.barrier_ns;
        if self.pending_epochs == 0 {
            self.pending = sample;
        } else {
            self.pending.merge(&sample);
        }
        self.pending_epochs += sample.ticks;
        if self.pending_epochs >= p.stride {
            p.samples.push(self.pending);
            self.pending_epochs = 0;
            if p.samples.len() >= MAX_SAMPLES {
                p.compact();
            }
        }
    }

    /// The profile so far, with any partial pending sample flushed in.
    pub(crate) fn snapshot(&self, worker: u32) -> WorkerProfile {
        let mut p = self.profile.clone();
        p.worker = worker;
        if self.pending_epochs > 0 {
            p.samples.push(self.pending);
        }
        p
    }
}

/// Network-level profiler state: the dense loop's single-worker wall
/// profile and the wall-clock time base. Activity-list workers' wall
/// profiles and every deterministic counter live in their `ShardCore`s
/// (worker-owned during batches) and are gathered at report time.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelProfiler {
    /// Wall profile of the dense loop (the dense kernel).
    pub(crate) seq: CoreProf,
    /// Wall-clock nanoseconds covered by completed batches / ticks.
    pub(crate) elapsed_ns: u64,
}

impl KernelProfiler {
    /// Records one dense-loop tick: `steps` element visits taking
    /// `step_ns` wall time (no flush or barrier phases exist).
    pub(crate) fn record_sequential_tick(&mut self, tick: u64, steps: u64, step_ns: u64) {
        let start_ns = self.elapsed_ns;
        self.elapsed_ns += step_ns;
        self.seq.record(EpochSample {
            tick,
            ticks: 1,
            steps,
            start_ns,
            step_ns,
            flush_ns: 0,
            barrier_ns: 0,
        });
    }
}

/// Deterministic per-shard counters: identical on every run of the same
/// configuration and kernel, and safe to compare bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Worker (= shard) index.
    pub worker: u32,
    /// Elements assigned to this shard by the shard plan.
    pub elements: u64,
    /// Element visits this shard executed.
    pub steps: u64,
    /// Cross-shard wakes this shard's visits made.
    pub wakes_sent: u64,
    /// Cross-shard wakes the coordinator routed into this shard.
    pub wakes_received: u64,
}

/// Deterministic counts of a fault run's timed wakes, the register upsets
/// of flits held by stages that no handshake revisits (see DESIGN.md §5).
/// Identical on the event kernel and the parallel kernel at every worker
/// count; zero on the dense kernel, which visits every stage on every
/// edge instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedWakes {
    /// Wakes scheduled: a stage latched a flit whose upset falls due on a
    /// later tick.
    pub scheduled: u64,
    /// Wakes that fell due with their flit still held, arming its stage.
    pub fired_live: u64,
    /// Wakes that fell due after their flit had left, arming nothing.
    pub fired_stale: u64,
}

impl TimedWakes {
    /// Field-wise sum.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            scheduled: self.scheduled + other.scheduled,
            fired_live: self.fired_live + other.fired_live,
            fired_stale: self.fired_stale + other.fired_stale,
        }
    }
}

/// The nondeterministic half of a [`PerfReport`]: everything measured
/// with a wall clock. Isolated from the deterministic counters so
/// bit-identity proofs and cache keys can strip it wholesale, exactly as
/// the explore crate strips `wall_ms`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfWall {
    /// One wall profile per worker (the dense loop and the event kernel
    /// report a single worker 0).
    pub workers: Vec<WorkerProfile>,
}

/// The `perf` section of [`SimReport`](crate::SimReport): kernel
/// introspection collected while profiling was enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Stable kernel label (`dense` / `event` / `parallel`).
    pub kernel: String,
    /// Resolved worker count (1 on the dense and event kernels).
    pub workers: u32,
    /// Barrier epochs executed — one per half-cycle tick, matching the
    /// polarity flips.
    pub epochs: u64,
    /// Always `None`: every run steps the kernel it asked for. Kept only
    /// because the `benchmark/` package reads `fallback.is_some()`; the
    /// next change to that package deletes it.
    pub fallback: Option<String>,
    /// Deterministic per-shard counters.
    pub shards: Vec<ShardCounters>,
    /// Deterministic timed-wake counts, summed over the shards.
    pub timed_wakes: TimedWakes,
    /// Wall-clock phase times — nondeterministic, excluded from every
    /// determinism guarantee.
    pub wall: Option<PerfWall>,
}

impl PerfReport {
    /// Total element visits across all shards.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// Load imbalance: max shard steps over mean shard steps (1.0 is a
    /// perfectly balanced cut; 0.0 when no steps ran).
    #[must_use]
    pub fn load_imbalance(&self) -> f64 {
        let total = self.total_steps();
        if total == 0 || self.shards.is_empty() {
            return 0.0;
        }
        let max = self.shards.iter().map(|s| s.steps).max().unwrap_or(0);
        let mean = total as f64 / self.shards.len() as f64;
        max as f64 / mean
    }

    /// Fraction of all workers' wall time spent waiting at barriers, or
    /// `None` without wall data.
    #[must_use]
    pub fn barrier_fraction(&self) -> Option<f64> {
        let wall = self.wall.as_ref()?;
        let busy: u64 = wall.workers.iter().map(WorkerProfile::busy_ns).sum();
        if busy == 0 {
            return None;
        }
        let barrier: u64 = wall.workers.iter().map(|w| w.barrier_ns).sum();
        Some(barrier as f64 / busy as f64)
    }

    /// A copy with the nondeterministic wall section stripped — what
    /// bit-identity comparisons should operate on.
    #[must_use]
    pub fn without_wall(&self) -> PerfReport {
        PerfReport {
            wall: None,
            ..self.clone()
        }
    }

    /// Renders the human-readable per-shard summary table printed by
    /// `icnoc profile` and `icnoc sim --profile`.
    #[must_use]
    pub fn summary(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf: {} kernel, {} worker(s), {} epoch(s), {} step(s)",
            self.kernel,
            self.workers,
            self.epochs,
            self.total_steps()
        );
        let _ = writeln!(
            out,
            "  {:>5}  {:>8}  {:>12}  {:>10}  {:>10}  {:>9}  {:>7}  {:>9}  {:>10}",
            "shard",
            "elements",
            "steps",
            "wakes-out",
            "wakes-in",
            "step-ms",
            "ns/step",
            "flush-ms",
            "barrier-ms"
        );
        for s in &self.shards {
            let wall = self
                .wall
                .as_ref()
                .and_then(|w| w.workers.iter().find(|p| p.worker == s.worker));
            let ms = |ns: u64| ns as f64 / 1e6;
            let (step_ns, flush, barrier) = match wall {
                Some(w) => (w.step_ns, ms(w.flush_ns), ms(w.barrier_ns)),
                None => (0, 0.0, 0.0),
            };
            // The visit cost per element step; a shard with no steps has
            // none.
            let per_step = if s.steps == 0 {
                0.0
            } else {
                step_ns as f64 / s.steps as f64
            };
            let _ = writeln!(
                out,
                "  {:>5}  {:>8}  {:>12}  {:>10}  {:>10}  {:>9.2}  {:>7.1}  {:>9.2}  {:>10.2}",
                s.worker,
                s.elements,
                s.steps,
                s.wakes_sent,
                s.wakes_received,
                ms(step_ns),
                per_step,
                flush,
                barrier
            );
        }
        let _ = writeln!(
            out,
            "  load imbalance: {:.2}x (max/mean shard steps)",
            self.load_imbalance()
        );
        let t = self.timed_wakes;
        let _ = writeln!(
            out,
            "  timed wakes: {} scheduled, {} fired live, {} fired stale",
            t.scheduled, t.fired_live, t.fired_stale
        );
        match self.barrier_fraction() {
            Some(frac) => {
                let _ = writeln!(
                    out,
                    "  barrier overhead: {:.1}% of worker wall time",
                    frac * 100.0
                );
            }
            None => {
                let _ = writeln!(out, "  barrier overhead: n/a (no wall data)");
            }
        }
        out
    }

    /// Serialises the wall timeline as Chrome trace-event JSON (the
    /// `traceEvents` array format), loadable in `ui.perfetto.dev` or
    /// `chrome://tracing`: one thread row per worker, one `X` (complete)
    /// slice per phase per retained epoch sample, timestamps in
    /// microseconds from the profiler's time base.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(ev);
        };
        push(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                 \"args\":{{\"name\":\"icnoc {} kernel ({} workers)\"}}}}",
                self.kernel, self.workers
            ),
        );
        if let Some(wall) = &self.wall {
            for wp in &wall.workers {
                push(
                    &mut out,
                    &mut first,
                    &format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                         \"args\":{{\"name\":\"worker {}\"}}}}",
                        wp.worker, wp.worker
                    ),
                );
                for s in &wp.samples {
                    // Lay the phases out consecutively from the sample's
                    // start, in their real order within an epoch: the
                    // barrier wait opens the tick, the visit follows, the
                    // flush closes it.
                    let mut ts = s.start_ns;
                    for (name, dur) in [
                        ("barrier", s.barrier_ns),
                        ("step", s.step_ns),
                        ("flush", s.flush_ns),
                    ] {
                        if dur == 0 {
                            continue;
                        }
                        let mut ev = String::new();
                        let _ = write!(
                            ev,
                            "{{\"name\":\"{name}\",\"cat\":\"epoch\",\"ph\":\"X\",\
                             \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                             \"args\":{{\"tick\":{},\"ticks\":{},\"steps\":{}}}}}",
                            ts as f64 / 1e3,
                            dur as f64 / 1e3,
                            wp.worker,
                            s.tick,
                            s.ticks,
                            s.steps
                        );
                        push(&mut out, &mut first, &ev);
                        ts += dur;
                    }
                }
            }
        }
        out.push_str("\n]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(tick: u64, steps: u64, step_ns: u64) -> EpochSample {
        EpochSample {
            tick,
            ticks: 1,
            steps,
            start_ns: tick * 100,
            step_ns,
            flush_ns: 5,
            barrier_ns: 10,
        }
    }

    #[test]
    fn compaction_preserves_sums_and_doubles_stride() {
        let mut prof = CoreProf::default();
        let total_epochs = (MAX_SAMPLES * 3) as u64;
        for t in 0..total_epochs {
            prof.record(epoch(t, 7, 100));
        }
        let p = prof.snapshot(3);
        assert_eq!(p.worker, 3);
        assert_eq!(p.epochs, total_epochs);
        assert!(p.stride >= 2, "log must have compacted: {}", p.stride);
        assert!(p.samples.len() <= MAX_SAMPLES);
        let steps: u64 = p.samples.iter().map(|s| s.steps).sum();
        let ticks: u64 = p.samples.iter().map(|s| u64::from(s.ticks)).sum();
        let step_ns: u64 = p.samples.iter().map(|s| s.step_ns).sum();
        assert_eq!(steps, total_epochs * 7);
        assert_eq!(ticks, total_epochs);
        assert_eq!(step_ns, total_epochs * 100);
        assert_eq!(p.step_ns, step_ns);
        // Timeline stays in tick order.
        assert!(p.samples.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn imbalance_and_barrier_fraction() {
        let shard = |worker, steps| ShardCounters {
            worker,
            elements: 4,
            steps,
            wakes_sent: 0,
            wakes_received: 0,
        };
        let wall_worker = |worker, step_ns, barrier_ns| WorkerProfile {
            worker,
            epochs: 1,
            step_ns,
            flush_ns: 0,
            barrier_ns,
            stride: 1,
            samples: Vec::new(),
        };
        let perf = PerfReport {
            kernel: "parallel".into(),
            workers: 2,
            epochs: 10,
            fallback: None,
            shards: vec![shard(0, 30), shard(1, 10)],
            timed_wakes: TimedWakes::default(),
            wall: Some(PerfWall {
                workers: vec![wall_worker(0, 75, 25), wall_worker(1, 25, 75)],
            }),
        };
        assert_eq!(perf.total_steps(), 40);
        // max 30 / mean 20 = 1.5
        assert!((perf.load_imbalance() - 1.5).abs() < 1e-12);
        // 100 barrier ns out of 200 total.
        assert!((perf.barrier_fraction().expect("wall data") - 0.5).abs() < 1e-12);
        assert_eq!(perf.without_wall().wall, None);
        let summary = perf.summary();
        assert!(summary.contains("load imbalance: 1.50x"), "{summary}");
        assert!(summary.contains("barrier overhead: 50.0%"), "{summary}");
    }

    #[test]
    fn summary_reports_ns_per_step() {
        let shard = |worker, steps| ShardCounters {
            worker,
            elements: 4,
            steps,
            wakes_sent: 0,
            wakes_received: 0,
        };
        let wall_worker = |worker, step_ns| WorkerProfile {
            worker,
            epochs: 1,
            step_ns,
            flush_ns: 0,
            barrier_ns: 0,
            stride: 1,
            samples: Vec::new(),
        };
        let perf = PerfReport {
            kernel: "parallel".into(),
            workers: 2,
            epochs: 10,
            fallback: None,
            // Shard 1 is empty: no steps, so no cost per step.
            shards: vec![shard(0, 400), shard(1, 0)],
            timed_wakes: TimedWakes::default(),
            wall: Some(PerfWall {
                workers: vec![wall_worker(0, 50_000), wall_worker(1, 0)],
            }),
        };
        let summary = perf.summary();
        let lines: Vec<&str> = summary.lines().collect();
        let column = |line: &str, name: &str| {
            let header: Vec<&str> = lines[1].split_whitespace().collect();
            let at = header.iter().position(|&h| h == name).expect("column");
            line.split_whitespace().nth(at).expect("cell").to_owned()
        };
        // 50 µs over 400 steps.
        assert_eq!(column(lines[2], "ns/step"), "125.0", "{summary}");
        assert_eq!(column(lines[2], "step-ms"), "0.05", "{summary}");
        assert_eq!(column(lines[3], "ns/step"), "0.0", "{summary}");
    }

    #[test]
    fn chrome_trace_is_structurally_sound() {
        let mut prof = CoreProf::default();
        prof.record(epoch(0, 3, 1000));
        prof.record(epoch(1, 2, 2000));
        let perf = PerfReport {
            kernel: "parallel".into(),
            workers: 1,
            epochs: 2,
            fallback: None,
            shards: vec![ShardCounters {
                worker: 0,
                elements: 8,
                steps: 5,
                wakes_sent: 2,
                wakes_received: 4,
            }],
            timed_wakes: TimedWakes::default(),
            wall: Some(PerfWall {
                workers: vec![prof.snapshot(0)],
            }),
        };
        let json = perf.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        // Balanced braces — a cheap structural sanity check; full JSON
        // validation happens in the CLI e2e test and the CI smoke job.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }
}

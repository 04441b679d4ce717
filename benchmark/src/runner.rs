//! Scheduling reps: a full set across workloads, or one workload for a
//! fixed time.

use std::time::{Duration, Instant};

use crate::report::{Collector, WorkloadResult};
use crate::traced::traced_rep;
use crate::workload::{Bench, Workload};

/// Set-up reps per timed rep. Set-up walls are milliseconds, so several
/// cost little and steady the median; running them between timed reps
/// spreads them over the same phases of host load.
const SETUP_PER_REP: usize = 3;

/// Fewest timed reps a timed run takes, however long they are.
const MIN_REPS: usize = 3;

/// A full set: one untimed warm-up rep per workload, then timed reps
/// interleaved round-robin across workloads (so a noisy phase of the host
/// is spread over all of them), each followed by set-up reps, then one
/// traced rep per workload when `traced`.
#[must_use]
pub fn run_set(
    bench: &Bench,
    workloads: &[Workload],
    reps: impl Fn(Workload) -> usize,
    traced: bool,
) -> Vec<WorkloadResult> {
    let mut collectors: Vec<Collector> = workloads.iter().map(|&w| Collector::new(w)).collect();
    for c in &mut collectors {
        eprintln!("{}: warm-up", c.workload().name());
        c.warmup(bench.timed_rep(c.workload()));
    }
    let rounds = workloads.iter().map(|&w| reps(w)).max().unwrap_or(0);
    for round in 0..rounds {
        eprintln!("round {}/{rounds}", round + 1);
        for c in &mut collectors {
            let w = c.workload();
            if round < reps(w) {
                c.rep(bench.timed_rep(w));
                for _ in 0..SETUP_PER_REP {
                    c.setup(bench.setup_rep(w));
                }
            }
        }
    }
    if traced {
        for c in &mut collectors {
            eprintln!("{}: traced rep", c.workload().name());
            c.traced(traced_rep(bench, c.workload()));
        }
    }
    collectors.into_iter().map(Collector::finish).collect()
}

/// One workload for about `seconds`: a warm-up rep, then rounds of
/// set-up reps and a timed rep (untraced), or of a timed and a traced rep
/// (`traced`), until the time is up. The last round is the one that
/// brings the elapsed time within half a round of `seconds`.
#[must_use]
pub fn run_timed(bench: &Bench, w: Workload, seconds: Duration, traced: bool) -> WorkloadResult {
    let mut c = Collector::new(w);
    c.warmup(bench.timed_rep(w));
    let min_rounds = if traced { 1 } else { MIN_REPS };
    let start = Instant::now();
    for n in 1.. {
        let round = Instant::now();
        if traced {
            c.rep(bench.timed_rep(w));
            c.traced(traced_rep(bench, w));
        } else {
            for _ in 0..SETUP_PER_REP {
                c.setup(bench.setup_rep(w));
            }
            c.rep(bench.timed_rep(w));
        }
        if n >= min_rounds && start.elapsed() + round.elapsed() / 2 >= seconds {
            break;
        }
    }
    c.finish()
}

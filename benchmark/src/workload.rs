//! The five workloads, their sizes, and one end-to-end rep of each.

use std::path::{Path, PathBuf};

use icnoc_explore::JsonValue;
use icnoc_serve::client;

use crate::child::{run_child, Daemon, TempDir};
use crate::session::{run_session, SessionPlan};
use crate::trace::Tracer;
use crate::{fnv1a, strip_wall};

/// A benchmark workload. The README records why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A long event-kernel soak of a 256-port tree.
    Soak256,
    /// A short parallel-kernel run of a 2048-port tree.
    Wide2048,
    /// A clock-fault soak on the parallel kernel (sequential fallback).
    ClockSoak256,
    /// A 48-point `explore` grid, cold cache then warm.
    Sweep48,
    /// Closed-loop sweep clients against a `serve` daemon.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Self; 5] = [
        Self::Soak256,
        Self::Wide2048,
        Self::ClockSoak256,
        Self::Sweep48,
        Self::Serve,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Soak256 => "soak256",
            Self::Wide2048 => "wide2048",
            Self::ClockSoak256 => "clocksoak256",
            Self::Sweep48 => "sweep48",
            Self::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed reps in a full set; sized so a set takes about 100 s on a
    /// 2-core host and no workload's reps exceed 30 s.
    #[must_use]
    pub fn set_reps(self) -> usize {
        match self {
            Self::Soak256 | Self::ClockSoak256 => 11,
            Self::Wide2048 | Self::Sweep48 => 7,
            Self::Serve => 5,
        }
    }
}

/// The size of one simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSize {
    /// Tree ports.
    pub ports: usize,
    /// Simulated clock cycles.
    pub cycles: u64,
}

/// Problem sizes of every workload. The benchmark runs [`Sizes::full`];
/// the smoke test passes toy sizes through the same runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    /// `soak256`.
    pub soak: SimSize,
    /// `wide2048`.
    pub wide: SimSize,
    /// `clocksoak256`.
    pub clock: SimSize,
    /// `sweep48`'s port axis.
    pub sweep_ports: Vec<usize>,
    /// `sweep48`'s cycle budget.
    pub sweep_cycles: u64,
    /// `serve`'s session shape (its seed is replaced by the run seed).
    pub serve: SessionPlan,
}

impl Sizes {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Self {
        Self {
            soak: SimSize {
                ports: 256,
                cycles: 60_000,
            },
            wide: SimSize {
                ports: 2048,
                cycles: 2_000,
            },
            clock: SimSize {
                ports: 256,
                cycles: 10_000,
            },
            sweep_ports: vec![16, 64, 256],
            sweep_cycles: 2_000,
            serve: SessionPlan {
                seed: 0,
                ports: 32,
                cycles: 3_000,
                sweeps_per_client: 50,
            },
        }
    }
}

/// One end-to-end rep's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// Time to verdict in seconds: spawn to exit (summed over the cold
    /// and warm children on `sweep48`), or first submit to last result
    /// on `serve`.
    pub wall_s: f64,
    /// Peak resident set of the child (the larger of two on `sweep48`,
    /// the daemon's on `serve`), MiB.
    pub rss_mb: f64,
    /// Digest of the output that must repeat across reps.
    pub digest: u64,
    /// Per-sweep latencies (`serve` only), ms.
    pub latencies_ms: Vec<f64>,
    /// Operations checked: 1, or the sweeps of a `serve` session.
    pub attempts: usize,
    /// One message per failed operation.
    pub errors: Vec<String>,
}

/// Runs reps of every workload for one seed.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The executable re-run in child mode (this benchmark's binary).
    pub exe: PathBuf,
    /// Problem sizes.
    pub sizes: Sizes,
    /// Seeds every generated input.
    pub seed: u64,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|&a| a.to_owned()).collect()
}

impl Bench {
    /// The `icnoc` command line of a simulation workload; `cycles`
    /// overrides the workload's budget (the set-up reps pass 0).
    #[must_use]
    pub fn sim_args(&self, w: Workload, cycles: Option<u64>) -> Vec<String> {
        let (size, mut args) = match w {
            Workload::Soak256 => (
                self.sizes.soak,
                strings(&["sim", "--pattern", "uniform:0.3"]),
            ),
            Workload::Wide2048 => (
                self.sizes.wide,
                strings(&[
                    "sim",
                    "--pattern",
                    "uniform:0.25",
                    "--kernel",
                    "parallel",
                    "--workers",
                    "2",
                ]),
            ),
            Workload::ClockSoak256 => (
                self.sizes.clock,
                strings(&[
                    "faults",
                    "--spec",
                    "clock-soak",
                    "--kernel",
                    "parallel",
                    "--workers",
                    "2",
                ]),
            ),
            Workload::Sweep48 | Workload::Serve => unreachable!("{} is not a simulation", w.name()),
        };
        args.extend([
            "--ports".to_owned(),
            size.ports.to_string(),
            "--cycles".to_owned(),
            cycles.unwrap_or(size.cycles).to_string(),
            "--seed".to_owned(),
            self.seed.to_string(),
        ]);
        args
    }

    /// The `explore` command line of `sweep48` at `cycles`, caching in
    /// `cache` and writing `out` (both relative to the child's directory).
    #[must_use]
    pub fn sweep_args(&self, cycles: u64, out: &str) -> Vec<String> {
        let ports: Vec<String> = self
            .sizes
            .sweep_ports
            .iter()
            .map(usize::to_string)
            .collect();
        let grid = format!(
            "ports={};cycles={cycles};freq=0.8,0.9,1.0,1.1;corner=nominal,slow30;soak=0,1;seed={}",
            ports.join(","),
            self.seed
        );
        let mut args = strings(&["explore", "--grid"]);
        args.push(grid);
        args.extend(strings(&[
            "--jobs",
            "2",
            "--cache-dir",
            "cache",
            "--quiet",
            "--out",
            out,
        ]));
        args
    }

    /// Jobs in the `sweep48` grid: ports × 4 frequencies × 2 corners × 2
    /// soak levels.
    #[must_use]
    pub fn sweep_jobs(&self) -> usize {
        self.sizes.sweep_ports.len() * 16
    }

    /// The `serve` command line; the daemon keeps its state in `state`.
    #[must_use]
    pub fn serve_args(&self) -> Vec<String> {
        strings(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-limit",
            "64",
            "--state-dir",
            "state",
        ])
    }

    /// The `serve` session, seeded by the run seed.
    #[must_use]
    pub fn session_plan(&self) -> SessionPlan {
        SessionPlan {
            seed: self.seed,
            ..self.sizes.serve.clone()
        }
    }

    /// One timed rep, each in fresh child processes.
    ///
    /// # Errors
    ///
    /// A rep that could not run or whose output is wrong.
    pub fn timed_rep(&self, w: Workload) -> Result<Rep, String> {
        let dir = TempDir::new().map_err(|e| format!("scratch dir: {e}"))?;
        match w {
            Workload::Sweep48 => self.sweep_rep(dir.path()),
            Workload::Serve => self.serve_rep(dir.path()),
            _ => {
                let done = run_child(&self.exe, dir.path(), &self.sim_args(w, None))?;
                check_sim(w, &done.stdout)?;
                Ok(Rep {
                    wall_s: done.wall_s,
                    rss_mb: done.rss_mb,
                    digest: fnv1a(done.stdout.as_bytes()),
                    attempts: 1,
                    ..Rep::default()
                })
            }
        }
    }

    fn sweep_rep(&self, dir: &Path) -> Result<Rep, String> {
        let n = self.sweep_jobs();
        let cold = run_child(
            &self.exe,
            dir,
            &self.sweep_args(self.sizes.sweep_cycles, "cold.json"),
        )?;
        expect(&cold.stdout, &format!("{n} executed, 0 cached, 0 failed"))?;
        let warm = run_child(
            &self.exe,
            dir,
            &self.sweep_args(self.sizes.sweep_cycles, "warm.json"),
        )?;
        expect(&warm.stdout, &format!("0 executed, {n} cached, 0 failed"))?;
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
        };
        let cold_json = read("cold.json")?;
        if read("warm.json")? != cold_json {
            return Err("warm-cache JSON differs from the cold JSON".to_owned());
        }
        Ok(Rep {
            wall_s: cold.wall_s + warm.wall_s,
            rss_mb: cold.rss_mb.max(warm.rss_mb),
            digest: sweep_digest(&cold.stdout, &cold_json),
            attempts: 1,
            ..Rep::default()
        })
    }

    fn serve_rep(&self, dir: &Path) -> Result<Rep, String> {
        let mut daemon = Daemon::spawn(&self.exe, dir, &self.serve_args())?;
        daemon.wait_healthy(&dir.join("state"))?;
        let session = run_session(
            &daemon.addr,
            &self.session_plan(),
            &Tracer::disabled(),
            None,
        );
        let mut errors = session.errors;
        let failed_jobs = client::stats(&daemon.addr)
            .map_err(|e| format!("stats: {e}"))?
            .get("jobs")
            .and_then(|j| j.get("failed"))
            .and_then(JsonValue::as_f64);
        if failed_jobs != Some(0.0) {
            errors.push(format!("daemon reports failed jobs: {failed_jobs:?}"));
        }
        let stopped = daemon.stop()?;
        Ok(Rep {
            wall_s: session.wall_s,
            rss_mb: stopped.rss_mb,
            digest: session.digest,
            latencies_ms: session.latencies_ms,
            attempts: session.attempts,
            errors,
        })
    }

    /// One set-up rep, returning its wall time in seconds: the
    /// simulation command at `--cycles 0` (process start, system and
    /// network build, fault plan; nothing is delivered, so no power
    /// analysis), the sweep grid at `cycles=0` (every job's build and
    /// timing signoff, no simulation), or daemon spawn to `/healthz`.
    ///
    /// # Errors
    ///
    /// A rep that could not run or whose output is wrong.
    pub fn setup_rep(&self, w: Workload) -> Result<f64, String> {
        let dir = TempDir::new().map_err(|e| format!("scratch dir: {e}"))?;
        match w {
            Workload::Sweep48 => {
                let done = run_child(&self.exe, dir.path(), &self.sweep_args(0, "setup.json"))?;
                let n = self.sweep_jobs();
                expect(&done.stdout, &format!("{n} executed, 0 cached, 0 failed"))?;
                Ok(done.wall_s)
            }
            Workload::Serve => {
                let mut daemon = Daemon::spawn(&self.exe, dir.path(), &self.serve_args())?;
                let up = daemon.wait_healthy(&dir.path().join("state"))?;
                daemon.stop()?;
                Ok(up)
            }
            _ => {
                let done = run_child(&self.exe, dir.path(), &self.sim_args(w, Some(0)))?;
                check_sim(w, &done.stdout)?;
                Ok(done.wall_s)
            }
        }
    }
}

/// The verdict line each simulation workload must print.
fn check_sim(w: Workload, stdout: &str) -> Result<(), String> {
    match w {
        Workload::ClockSoak256 => expect(stdout, "verdict: PASS"),
        _ => expect(stdout, "correct: true (lost 0, dup 0"),
    }
}

fn expect(stdout: &str, needle: &str) -> Result<(), String> {
    if stdout.contains(needle) {
        Ok(())
    } else {
        Err(format!("output lacks {needle:?}: {}", stdout.trim()))
    }
}

/// The `sweep48` digest: the cold run's stdout and its JSON without the
/// `wall_ms` lines.
#[must_use]
pub fn sweep_digest(stdout: &str, json: &str) -> u64 {
    fnv1a(format!("{stdout}{}", strip_wall(json)).as_bytes())
}

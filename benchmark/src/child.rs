//! Child processes and scratch directories.
//!
//! Every end-to-end rep re-executes this benchmark's own binary with the
//! `child` argument, which runs `icnoc_cli::run` exactly as the `icnoc`
//! binary does and then reports its peak resident set on stderr. Timing a
//! fresh child per rep puts process start, allocation and exit inside
//! the measurement, as a user waiting for a verdict sees them.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use icnoc_serve::{client, http};

/// The argument that switches the binary into child mode.
pub const CHILD_ARG: &str = "child";

/// The stderr line a child ends with: its `VmHWM` in kB.
const RSS_TAG: &str = "icnoc-benchmark: VmHWM ";

/// The variable that turns on speculation by default; children and
/// traced reps must run the same configuration, so it is cleared.
pub const SPECULATE_ENV: &str = "ICNOC_SPECULATE";

/// Child mode: parse and run the `icnoc` command line in `args`, print
/// its output as `icnoc` would, then report the peak resident set.
/// Returns the process exit code `icnoc` would use.
#[must_use]
pub fn child_main(args: Vec<String>) -> i32 {
    let code = match icnoc_cli::Cli::parse(args) {
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
        Ok(cli) => match icnoc_cli::run(&cli) {
            Ok(output) => {
                println!("{output}");
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
    };
    if let Some(kb) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| status_kb(&status, "VmHWM:"))
    {
        eprintln!("{RSS_TAG}{kb} kB");
    }
    code
}

fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// A finished child: what it printed, how long it ran, its peak memory.
#[derive(Debug)]
pub struct Finished {
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// Standard output.
    pub stdout: String,
    /// Peak resident set in MiB, as the child reported it.
    pub rss_mb: f64,
}

fn finish(wall_s: f64, out: &Output) -> Result<Finished, String> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("exited with {}: {}", out.status, stderr.trim()));
    }
    let rss_kb = stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(RSS_TAG))
        .and_then(|rest| status_kb(rest, ""))
        .ok_or_else(|| format!("no peak-memory line on stderr: {}", stderr.trim()))?;
    Ok(Finished {
        wall_s,
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        rss_mb: rss_kb as f64 / 1024.0,
    })
}

fn child_command(exe: &Path, cwd: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg(CHILD_ARG)
        .args(args)
        .current_dir(cwd)
        .env_remove(SPECULATE_ENV)
        .stdin(Stdio::null());
    cmd
}

/// Runs one child to completion in `cwd`.
///
/// # Errors
///
/// Spawn failures and non-zero exits, with the child's stderr.
pub fn run_child(exe: &Path, cwd: &Path, args: &[String]) -> Result<Finished, String> {
    let start = Instant::now();
    let out = child_command(exe, cwd, args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    finish(start.elapsed().as_secs_f64(), &out)
}

/// A running `icnoc serve` child. Dropping it kills the process.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    spawned: Instant,
    /// The daemon's bound address, once [`Daemon::wait_healthy`] saw it.
    pub addr: String,
}

/// How long a daemon may take to answer `/healthz`.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(30);

impl Daemon {
    /// Spawns `serve` with `args` in `cwd`.
    ///
    /// # Errors
    ///
    /// Spawn failures.
    pub fn spawn(exe: &Path, cwd: &Path, args: &[String]) -> Result<Self, String> {
        let spawned = Instant::now();
        let child = child_command(exe, cwd, args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        Ok(Self {
            child: Some(child),
            spawned,
            addr: String::new(),
        })
    }

    /// Waits until the endpoint file under `state_dir` names an address
    /// that answers `GET /healthz` with 200. Returns seconds since spawn.
    ///
    /// # Errors
    ///
    /// The daemon exiting early or not answering within 30 s.
    pub fn wait_healthy(&mut self, state_dir: &Path) -> Result<f64, String> {
        let endpoint = state_dir.join(icnoc_serve::ENDPOINT_FILE);
        loop {
            // The file is written whole but not atomically: trust it only
            // once its trailing newline is there.
            if let Some(addr) = std::fs::read_to_string(&endpoint)
                .ok()
                .and_then(|s| s.strip_suffix('\n').map(str::to_owned))
            {
                if let Ok(resp) = http::client_request(&addr, "GET", "/healthz", "", None) {
                    if resp.status == 200 {
                        self.addr = addr;
                        return Ok(self.spawned.elapsed().as_secs_f64());
                    }
                }
            }
            if let Some(child) = &mut self.child {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("daemon exited early with {status}"));
                }
            }
            if self.spawned.elapsed() > HEALTH_TIMEOUT {
                return Err("daemon did not answer /healthz within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    ///
    /// # Errors
    ///
    /// Transport failures and a non-zero exit.
    pub fn stop(mut self) -> Result<Finished, String> {
        client::shutdown(&self.addr).map_err(|e| format!("shutdown failed: {e}"))?;
        let child = self.child.take().expect("a daemon is stopped once");
        let out = child
            .wait_with_output()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        finish(self.spawned.elapsed().as_secs_f64(), &out)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A scratch directory under `.bench_tmp/` in the working directory,
/// removed (with `.bench_tmp/` itself, once empty) on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    /// Creates a fresh, empty directory.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn new() -> io::Result<Self> {
        let path = std::env::current_dir()?.join(".bench_tmp").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        // Another guard may remove the empty `.bench_tmp/` between our
        // creating it and creating the leaf; one retry covers that.
        std::fs::create_dir_all(&path).or_else(|_| std::fs::create_dir_all(&path))?;
        Ok(Self(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_kb_fields_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  1234 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(1234));
        assert_eq!(status_kb(status, "VmRSS:"), None);
        assert_eq!(status_kb("55 kB", ""), Some(55));
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let a = TempDir::new().expect("creates");
        let b = TempDir::new().expect("creates");
        assert_ne!(a.path(), b.path());
        let path = a.path().to_owned();
        std::fs::write(path.join("f"), "x").expect("writes");
        drop(a);
        assert!(!path.exists());
    }
}

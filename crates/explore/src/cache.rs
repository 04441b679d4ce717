//! A content-addressed on-disk result cache.
//!
//! Each cached [`JobOutcome`] lives in `<dir>/<key>.json`, where `key`
//! is the [`stable_hash`](crate::grid::stable_hash) of the job's
//! canonical config string **salted with the crate version and the
//! simulation report schema versions** — so bumping
//! [`SimReport::SCHEMA_VERSION`] or [`RecoveryReport::SCHEMA_VERSION`]
//! (or releasing a new crate version) invalidates every stale entry
//! without any cleanup pass.
//!
//! Writes go through a uniquely-named temp file + rename, so a crashed
//! run never leaves a torn entry and two executors racing on the same
//! key both land a whole entry; loads verify the embedded config equals
//! the requested one, so even a 64-bit hash collision degrades to a
//! cache miss, never a wrong result — and the mismatch names the first
//! differing field instead of failing silently.
//!
//! Every clone of a handle shares one set of [`CacheCounters`]
//! (hit/miss/store telemetry), so the sweep's executor threads and the
//! daemon's job workers each report one stream.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use icnoc_sim::{RecoveryReport, SimReport};

use crate::grid::{stable_hash, JobConfig};
use crate::job::JobOutcome;
use crate::json::JsonValue;

/// The on-disk cache handle. Cloning shares the counters: every
/// executor holding a clone contributes to one telemetry stream.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    counters: Arc<CacheCounters>,
}

/// Shared hit/miss/store counters, plus the config-mismatch
/// diagnostics collected by [`ResultCache::load`].
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    mismatches: Mutex<Vec<String>>,
}

/// A point-in-time snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Loads answered from disk.
    pub hits: u64,
    /// Loads that found nothing usable (absent, torn, or mismatched).
    pub misses: u64,
    /// Outcomes written.
    pub stores: u64,
}

impl core::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} hit(s), {} miss(es)", self.hits, self.misses)
    }
}

/// The default cache directory used by `--resume` when no `--cache-dir`
/// is given.
pub const DEFAULT_CACHE_DIR: &str = ".icnoc_explore_cache";

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            counters: Arc::new(CacheCounters::default()),
        })
    }

    /// The directory this cache stores entries in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The versioned cache key of `config`.
    #[must_use]
    pub fn key(config: &JobConfig) -> u64 {
        let salted = format!("{}\n{}", config.canonical(), version_salt());
        stable_hash(salted.as_bytes())
    }

    /// The path an entry for `config` would occupy.
    #[must_use]
    pub fn entry_path(&self, config: &JobConfig) -> PathBuf {
        self.dir.join(format!("{:016x}.json", Self::key(config)))
    }

    /// A snapshot of the shared counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
        }
    }

    /// Drains the config-mismatch diagnostics recorded by [`load`]
    /// (entries whose embedded config differed from the requested one —
    /// each message names the first mismatched field).
    ///
    /// [`load`]: Self::load
    #[must_use]
    pub fn take_mismatches(&self) -> Vec<String> {
        std::mem::take(&mut *self.counters.mismatches.lock().expect("mismatch lock"))
    }

    /// Loads the cached outcome for `config`, or `None` on a miss (no
    /// entry, unreadable entry, or an entry whose embedded config does
    /// not match — all three degrade to a re-run, but a config mismatch
    /// additionally records which field differed; see
    /// [`take_mismatches`](Self::take_mismatches)).
    #[must_use]
    pub fn load(&self, config: &JobConfig) -> Option<JobOutcome> {
        let found = std::fs::read_to_string(self.entry_path(config))
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
            .and_then(|json| JobOutcome::from_json(&json).ok());
        match &found {
            Some(outcome) if outcome.config == *config => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                found
            }
            Some(outcome) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                let detail = config_mismatch(config, &outcome.config);
                self.counters
                    .mismatches
                    .lock()
                    .expect("mismatch lock")
                    .push(format!(
                        "cache entry {:016x}.json ignored: {detail}; re-running",
                        Self::key(config)
                    ));
                None
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `outcome` under its config's key, atomically (uniquely
    /// named temp file + rename, so concurrent stores of the same key
    /// both land whole — last rename wins with identical contents).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn store(&self, outcome: &JobOutcome) -> io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.entry_path(&outcome.config);
        let tmp = self.dir.join(format!(
            ".{:016x}.{}-{}.tmp",
            Self::key(&outcome.config),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, outcome.to_json().to_pretty())?;
        std::fs::rename(&tmp, &path)?;
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Names the first field where `want` and `got` differ (both canonical
/// strings are `;`-separated `field=value` lists in the same fixed
/// order, so a positional walk finds the culprit).
fn config_mismatch(want: &JobConfig, got: &JobConfig) -> String {
    let want_c = want.canonical();
    let got_c = got.canonical();
    for (w, g) in want_c.split(';').zip(got_c.split(';')) {
        if w != g {
            let field = w.split('=').next().unwrap_or(w);
            let wanted = w.split_once('=').map_or(w, |(_, v)| v);
            let found = g.split_once('=').map_or(g, |(_, v)| v);
            return format!(
                "config field {field:?} is {found:?} (cached) vs {wanted:?} (requested)"
            );
        }
    }
    "configs differ beyond the shared fields".to_owned()
}

/// The cache-invalidation salt: crate version plus every report schema
/// version an outcome embeds. The `ICNOC_EXPLORE_SALT` environment
/// variable, when set, is appended verbatim — CI uses it to prove that a
/// salt change (as a schema bump would cause) re-executes a warm sweep
/// exactly once.
fn version_salt() -> String {
    let mut salt = format!(
        "crate={};sim_schema={};recovery_schema={}",
        env!("CARGO_PKG_VERSION"),
        SimReport::SCHEMA_VERSION,
        RecoveryReport::SCHEMA_VERSION,
    );
    if let Ok(extra) = std::env::var("ICNOC_EXPLORE_SALT") {
        salt.push_str(";extra=");
        salt.push_str(&extra);
    }
    salt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::job::run_job;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icnoc-explore-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).expect("opens");
        let job = &GridSpec::parse("ports=16;cycles=120")
            .expect("parses")
            .resolve()[0];
        assert!(cache.load(job).is_none(), "cold cache misses");
        let outcome = run_job(job).expect("runs");
        cache.store(&outcome).expect("stores");
        assert_eq!(cache.load(job), Some(outcome));
        // A different config is a different key — still a miss.
        let other = &GridSpec::parse("ports=16;cycles=121")
            .expect("parses")
            .resolve()[0];
        assert!(cache.load(other).is_none());
        // The counters saw all of it: 1 hit, 2 misses, 1 store.
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                stores: 1,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_entries_degrade_to_misses() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::open(&dir).expect("opens");
        let job = &GridSpec::parse("ports=16;cycles=130")
            .expect("parses")
            .resolve()[0];
        // Corrupt entry: unparseable JSON at the right path.
        std::fs::write(cache.entry_path(job), "{ not json").expect("writes");
        assert!(cache.load(job).is_none());
        assert!(cache.take_mismatches().is_empty(), "torn != mismatched");
        // Mismatched entry: a valid outcome for a *different* config
        // planted at this config's path (simulated hash collision). The
        // miss must name the differing field.
        let other = &GridSpec::parse("ports=16;cycles=131")
            .expect("parses")
            .resolve()[0];
        let outcome = run_job(other).expect("runs");
        std::fs::write(cache.entry_path(job), outcome.to_json().to_pretty()).expect("writes");
        assert!(cache.load(job).is_none());
        let mismatches = cache.take_mismatches();
        assert_eq!(mismatches.len(), 1);
        assert!(mismatches[0].contains("\"cycles\""), "{}", mismatches[0]);
        assert!(mismatches[0].contains("131"), "{}", mismatches[0]);
        assert!(mismatches[0].contains("130"), "{}", mismatches[0]);
        // Draining is destructive: a second take sees nothing.
        assert!(cache.take_mismatches().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_salted_with_schema_versions() {
        let job = &GridSpec::parse("").expect("parses").resolve()[0];
        // The key differs from the raw config hash precisely because of
        // the version salt.
        assert_ne!(ResultCache::key(job), job.stable_hash());
    }

    #[test]
    fn salt_embeds_the_current_schema_versions() {
        // Schema bumps (most recently for the report's perf section)
        // must flow into the salt so every pre-bump cache entry misses.
        let salt = version_salt();
        assert!(
            salt.contains(&format!("sim_schema={}", SimReport::SCHEMA_VERSION)),
            "{salt}"
        );
        assert!(salt.contains("sim_schema=6"), "{salt}");
        assert!(
            salt.contains(&format!(
                "recovery_schema={}",
                RecoveryReport::SCHEMA_VERSION
            )),
            "{salt}"
        );
    }
}

//! The job registry: admission control, dedup, priorities, cancellation
//! and incremental results — the daemon's brain, usable (and tested)
//! without any socket.
//!
//! Every submitted grid resolves to jobs keyed by
//! [`ResultCache::key`]. A job already **done** is answered from the
//! content-addressed cache; a job already **queued or running** (from
//! any client) gains a subscriber instead of a duplicate execution; only
//! genuinely new work enters the bounded admission queue. When the queue
//! cannot take a submission's new jobs, the whole submission is rejected
//! up front with a structured retry-after error — never a hang, never a
//! silent drop, never a half-admitted sweep.
//!
//! Workers pop the highest-priority queued job (FIFO within a priority),
//! execute it under the same panic isolation as the offline sweep
//! ([`run_isolated`]), store the result, and fan it out to every
//! subscribing sweep. Each completion appends a row event — including
//! Pareto-front deltas maintained incrementally with the exact
//! [`pareto_objectives`]/[`pareto_dominates`] scoring the offline
//! [`Analysis`] uses — so streams show fronts forming live, while the
//! final result is still the byte-identical `Analysis::of` fold.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use icnoc_explore::{
    pareto_dominates, pareto_objectives, run_isolated, run_job, Analysis, GridSpec, JobConfig,
    JobOutcome, JsonValue, ResultCache,
};

use crate::ledger::Ledger;

/// How a registry should run.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Daemon state directory: holds the result cache and the job
    /// ledger. Sweeps resumed on restart live entirely under it.
    pub state_dir: PathBuf,
    /// Worker threads executing jobs (see
    /// [`Registry::start_workers`]).
    pub workers: usize,
    /// Admission-queue depth limit: a submission whose new jobs would
    /// push the queue past this is rejected with
    /// [`SubmitError::QueueFull`].
    pub queue_limit: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            state_dir: PathBuf::from(icnoc_explore::DEFAULT_CACHE_DIR),
            workers: 2,
            queue_limit: 256,
        }
    }
}

/// The acknowledgement of an accepted submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitTicket {
    /// The sweep id (`s<N>`), unique across daemon restarts.
    pub sweep: String,
    /// Total jobs in the grid.
    pub total: usize,
    /// Jobs answered immediately from the result cache.
    pub cached: usize,
    /// Jobs deduplicated onto another sweep's in-flight execution.
    pub deduped: usize,
    /// Jobs newly queued for execution.
    pub queued: usize,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The grid text failed to parse.
    BadGrid(String),
    /// The admission queue cannot take the submission's new jobs.
    QueueFull {
        /// Jobs currently queued.
        queue_depth: usize,
        /// The configured depth limit.
        queue_limit: usize,
        /// A client backoff hint, derived from queue depth and worker
        /// count.
        retry_after_ms: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
}

#[derive(Debug)]
struct JobEntry {
    config: JobConfig,
    status: JobStatus,
    /// `(sweep id, slot index)` pairs awaiting this job's outcome.
    subscribers: Vec<(String, usize)>,
}

#[derive(Debug)]
struct QueueEntry {
    key: u64,
    priority: u32,
    seq: u64,
}

#[derive(Debug)]
struct Sweep {
    grid: String,
    priority: u32,
    cancelled: bool,
    done: usize,
    slots: Vec<Option<JobOutcome>>,
    /// Incrementally maintained Pareto-front indices (ascending).
    front: Vec<usize>,
    /// Compact JSON event lines, in emission order (the stream body).
    events: Vec<String>,
    /// Set once the `complete`/`cancelled` event is appended.
    terminal: bool,
}

#[derive(Debug, Default)]
struct State {
    jobs: HashMap<u64, JobEntry>,
    queue: Vec<QueueEntry>,
    sweeps: Vec<(String, Sweep)>,
    next_id: u64,
    next_seq: u64,
    busy_workers: usize,
    executed_jobs: u64,
    failed_jobs: u64,
    deduped_jobs: u64,
    shutdown: bool,
}

impl State {
    fn sweep(&self, id: &str) -> Option<&Sweep> {
        self.sweeps.iter().find(|(n, _)| n == id).map(|(_, s)| s)
    }

    fn sweep_mut(&mut self, id: &str) -> Option<&mut Sweep> {
        self.sweeps
            .iter_mut()
            .find(|(n, _)| n == id)
            .map(|(_, s)| s)
    }
}

/// The deduplicating, prioritised, durable job registry.
#[derive(Debug)]
pub struct Registry {
    state: Mutex<State>,
    /// Wakes workers when the queue gains a job (or on shutdown).
    work: Condvar,
    /// Wakes streamers/result-waiters when any sweep gains an event.
    progress: Condvar,
    cache: ResultCache,
    ledger: Ledger,
    workers: usize,
    queue_limit: usize,
}

impl Registry {
    /// Opens the state directory (cache + ledger), replays the ledger,
    /// and resubmits every incomplete sweep — the crash-recovery path.
    /// Workers are **not** started; call [`start_workers`].
    ///
    /// [`start_workers`]: Self::start_workers
    ///
    /// # Errors
    ///
    /// Propagates cache/ledger directory-creation failures.
    pub fn new(config: &RegistryConfig) -> io::Result<Arc<Self>> {
        let cache = ResultCache::open(&config.state_dir)?;
        let ledger = Ledger::open(&config.state_dir)?;
        let replay = ledger.replay();
        let registry = Arc::new(Self {
            state: Mutex::new(State {
                next_id: replay.max_id + 1,
                ..State::default()
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            cache,
            ledger,
            workers: config.workers.max(1),
            queue_limit: config.queue_limit.max(1),
        });
        for sweep in &replay.incomplete {
            // Resumed sweeps bypass admission (they were admitted once;
            // durability outranks the depth limit) and do not re-append
            // a submit record (the ledger already holds it).
            if registry
                .admit(Some(&sweep.sweep), &sweep.grid, sweep.priority, true)
                .is_err()
            {
                // A grid that no longer parses (hand-edited ledger) can
                // never complete: close it out.
                let _ = registry.ledger.cancel(&sweep.sweep);
            }
        }
        Ok(registry)
    }

    /// The number of sweeps currently resident (including completed
    /// ones) — after a restart, the resumed in-flight sweeps.
    #[must_use]
    pub fn resident_sweeps(&self) -> Vec<String> {
        let state = self.lock();
        state.sweeps.iter().map(|(id, _)| id.clone()).collect()
    }

    /// Spawns the configured worker threads. Each runs until
    /// [`shutdown`](Self::shutdown); join the handles for a clean stop.
    pub fn start_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.workers)
            .map(|_| {
                let registry = Arc::clone(self);
                std::thread::spawn(move || registry.worker_loop())
            })
            .collect()
    }

    /// Submits a grid at a priority (higher runs sooner). On acceptance
    /// the sweep is durable (ledger first, acknowledgement second).
    ///
    /// # Errors
    ///
    /// [`SubmitError::BadGrid`] for unparseable grids;
    /// [`SubmitError::QueueFull`] when the admission queue cannot take
    /// the submission's new jobs (the submission is rejected whole — no
    /// partial admission).
    pub fn submit(&self, grid: &str, priority: u32) -> Result<SubmitTicket, SubmitError> {
        self.admit(None, grid, priority, false)
    }

    fn admit(
        &self,
        resume_id: Option<&str>,
        grid: &str,
        priority: u32,
        bypass_queue_limit: bool,
    ) -> Result<SubmitTicket, SubmitError> {
        let spec = GridSpec::parse(grid).map_err(|e| SubmitError::BadGrid(e.to_string()))?;
        let jobs = spec.resolve();
        let total = jobs.len();

        let mut state = self.lock();
        // Classify every job while deciding nothing: reject must leave
        // the registry untouched.
        enum Class {
            Cached(Box<JobOutcome>),
            Dedup,
            New,
        }
        let classes: Vec<(u64, Class)> = {
            let mut seen_new: Vec<u64> = Vec::new();
            jobs.iter()
                .map(|config| {
                    let key = ResultCache::key(config);
                    let class = if state.jobs.contains_key(&key) || seen_new.contains(&key) {
                        Class::Dedup
                    } else if let Some(outcome) = self.cache.load(config) {
                        Class::Cached(Box::new(outcome))
                    } else {
                        seen_new.push(key);
                        Class::New
                    };
                    (key, class)
                })
                .collect()
        };
        let new_jobs = classes
            .iter()
            .filter(|(_, c)| matches!(c, Class::New))
            .count();
        if !bypass_queue_limit && state.queue.len() + new_jobs > self.queue_limit {
            let queue_depth = state.queue.len();
            return Err(SubmitError::QueueFull {
                queue_depth,
                queue_limit: self.queue_limit,
                retry_after_ms: 250 * (queue_depth as u64 / self.workers as u64 + 1),
            });
        }

        let id = match resume_id {
            Some(id) => id.to_owned(),
            None => {
                let id = format!("s{}", state.next_id);
                state.next_id += 1;
                // Durability before acknowledgement: the ledger record
                // lands before the caller learns the sweep exists.
                let _ = self.ledger.submit(&id, grid, priority);
                id
            }
        };
        state.sweeps.push((
            id.clone(),
            Sweep {
                grid: grid.to_owned(),
                priority,
                cancelled: false,
                done: 0,
                slots: (0..total).map(|_| None).collect(),
                front: Vec::new(),
                events: Vec::new(),
                terminal: false,
            },
        ));

        let mut ticket = SubmitTicket {
            sweep: id.clone(),
            total,
            cached: 0,
            deduped: 0,
            queued: 0,
        };
        for (index, ((key, class), config)) in classes.into_iter().zip(&jobs).enumerate() {
            match class {
                Class::Cached(outcome) => {
                    ticket.cached += 1;
                    self.complete_slot(&mut state, &id, index, *outcome, true);
                }
                Class::Dedup => {
                    ticket.deduped += 1;
                    state.deduped_jobs += 1;
                    // Resident: a `Dedup` key was either in `state.jobs`
                    // when classified, under this same lock hold, or is an
                    // earlier `New` of this submission, inserted above;
                    // nothing in this loop removes a job.
                    let entry = state.jobs.get_mut(&key).expect("deduped jobs are resident");
                    entry.subscribers.push((id.clone(), index));
                    // A higher-priority subscriber drags the shared job
                    // forward in the queue.
                    if let Some(q) = state.queue.iter_mut().find(|q| q.key == key) {
                        q.priority = q.priority.max(priority);
                    }
                }
                Class::New => {
                    ticket.queued += 1;
                    state.jobs.insert(
                        key,
                        JobEntry {
                            config: config.clone(),
                            status: JobStatus::Queued,
                            subscribers: vec![(id.clone(), index)],
                        },
                    );
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    state.queue.push(QueueEntry { key, priority, seq });
                }
            }
        }
        drop(state);
        self.work.notify_all();
        self.progress.notify_all();
        Ok(ticket)
    }

    /// Cancels a sweep: its stream terminates, its unshared queued jobs
    /// are dropped, and the ledger records it closed. Returns `false`
    /// for unknown or already-terminal sweeps.
    pub fn cancel(&self, id: &str) -> bool {
        let mut state = self.lock();
        let Some(sweep) = state.sweep_mut(id) else {
            return false;
        };
        if sweep.terminal {
            return false;
        }
        sweep.cancelled = true;
        sweep.terminal = true;
        let event = JsonValue::Obj(vec![
            ("event".into(), JsonValue::Str("cancelled".into())),
            ("sweep".into(), JsonValue::Str(id.into())),
            ("done".into(), JsonValue::Num(sweep.done as f64)),
            ("total".into(), JsonValue::Num(sweep.slots.len() as f64)),
        ])
        .to_compact();
        sweep.events.push(event);
        let _ = self.ledger.cancel(id);
        // Unsubscribe everywhere; queued jobs nobody wants any more are
        // dropped before a worker wastes time on them.
        let mut orphaned: Vec<u64> = Vec::new();
        for (key, entry) in &mut state.jobs {
            entry.subscribers.retain(|(sweep_id, _)| sweep_id != id);
            if entry.subscribers.is_empty() && entry.status == JobStatus::Queued {
                orphaned.push(*key);
            }
        }
        for key in orphaned {
            state.jobs.remove(&key);
            state.queue.retain(|q| q.key != key);
        }
        drop(state);
        self.progress.notify_all();
        true
    }

    /// One sweep's status document, or `None` for unknown ids.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<JsonValue> {
        let state = self.lock();
        let sweep = state.sweep(id)?;
        Some(sweep_status(id, sweep))
    }

    /// The `/stats` document: queue depth, worker utilization, cache
    /// counters, dedup counters and per-sweep progress.
    #[must_use]
    pub fn stats(&self) -> JsonValue {
        let state = self.lock();
        let cache = self.cache.stats();
        let utilization = state.busy_workers as f64 / self.workers as f64;
        JsonValue::Obj(vec![
            (
                "queue_depth".into(),
                JsonValue::Num(state.queue.len() as f64),
            ),
            (
                "queue_limit".into(),
                JsonValue::Num(self.queue_limit as f64),
            ),
            ("workers".into(), JsonValue::Num(self.workers as f64)),
            (
                "busy_workers".into(),
                JsonValue::Num(state.busy_workers as f64),
            ),
            ("utilization".into(), JsonValue::Num(utilization)),
            (
                "cache".into(),
                JsonValue::Obj(vec![
                    ("hits".into(), JsonValue::Num(cache.hits as f64)),
                    ("misses".into(), JsonValue::Num(cache.misses as f64)),
                    ("stores".into(), JsonValue::Num(cache.stores as f64)),
                ]),
            ),
            (
                "jobs".into(),
                JsonValue::Obj(vec![
                    (
                        "executed".into(),
                        JsonValue::Num(state.executed_jobs as f64),
                    ),
                    ("failed".into(), JsonValue::Num(state.failed_jobs as f64)),
                    ("deduped".into(), JsonValue::Num(state.deduped_jobs as f64)),
                ]),
            ),
            (
                "sweeps".into(),
                JsonValue::Arr(
                    state
                        .sweeps
                        .iter()
                        .map(|(id, s)| sweep_status(id, s))
                        .collect(),
                ),
            ),
        ])
    }

    /// Blocks until sweep `id` has events past `cursor` (or is
    /// terminal), then returns them plus the terminal flag. `None` for
    /// unknown ids. Returns immediately with whatever exists on
    /// shutdown, flagged terminal, so streamers always end.
    #[must_use]
    pub fn wait_events(&self, id: &str, cursor: usize) -> Option<(Vec<String>, bool)> {
        let mut state = self.lock();
        loop {
            let shutdown = state.shutdown;
            let sweep = state.sweep(id)?;
            if sweep.events.len() > cursor || sweep.terminal || shutdown {
                let events = sweep.events.get(cursor..).unwrap_or_default().to_vec();
                return Some((events, sweep.terminal || shutdown));
            }
            state = Self::wait(&self.progress, state);
        }
    }

    /// Blocks until sweep `id` completes, then returns the exact
    /// offline-explore result document
    /// ([`Analysis::to_json`]`.to_pretty() + "\n"`) — byte-identical to
    /// `icnoc explore` on the same grid, up to `wall_ms` lines.
    ///
    /// `None` for unknown ids; `Err` names the reason a result will
    /// never exist (cancelled, or daemon shutdown first).
    pub fn result(&self, id: &str) -> Option<Result<String, String>> {
        let mut state = self.lock();
        loop {
            let shutdown = state.shutdown;
            let sweep = state.sweep(id)?;
            if sweep.cancelled {
                return Some(Err("sweep cancelled".to_owned()));
            }
            if sweep.done == sweep.slots.len() {
                // `complete_slot` bumps `done` only when it fills an
                // empty slot, so `done == len` means every slot is full.
                let outcomes: Vec<JobOutcome> = sweep
                    .slots
                    .iter()
                    .map(|s| s.clone().expect("complete sweeps have full slots"))
                    .collect();
                return Some(Ok(format!(
                    "{}\n",
                    Analysis::of(outcomes).to_json().to_pretty()
                )));
            }
            if shutdown {
                return Some(Err("daemon shut down before completion".to_owned()));
            }
            state = Self::wait(&self.progress, state);
        }
    }

    /// Stops the registry: workers drain and exit, blocked waiters
    /// return. Incomplete sweeps stay in the ledger and resume on the
    /// next start.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
        self.progress.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let (key, config) = {
                let mut state = self.lock();
                loop {
                    if state.shutdown {
                        return;
                    }
                    // Highest priority first; FIFO (lowest seq) within.
                    let best = state
                        .queue
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, q)| (q.priority, std::cmp::Reverse(q.seq)))
                        .map(|(i, _)| i);
                    if let Some(i) = best {
                        let entry = state.queue.swap_remove(i);
                        // Every queue entry is pushed with its `jobs`
                        // insert, and a queued job leaves `jobs` only
                        // together with its queue entry (here, or when a
                        // cancellation orphans it).
                        let job = state
                            .jobs
                            .get_mut(&entry.key)
                            .expect("queued jobs are resident");
                        job.status = JobStatus::Running;
                        let config = job.config.clone();
                        state.busy_workers += 1;
                        break (entry.key, config);
                    }
                    state = Self::wait(&self.work, state);
                }
            };

            // Execute outside the lock, under the same panic isolation
            // as the offline sweep executor.
            let result = run_isolated(|| run_job(&config));
            let (outcome, failed) = match result {
                Ok(Ok(outcome)) => (outcome, false),
                Ok(Err(e)) => (JobOutcome::failed(&config, &e.to_string()), true),
                Err(msg) => (JobOutcome::failed(&config, &msg), true),
            };
            if !failed {
                // Failed outcomes are never cached (matching the offline
                // sweep); a failed store degrades to "uncached".
                let _ = self.cache.store(&outcome);
            }

            let mut state = self.lock();
            state.busy_workers -= 1;
            state.executed_jobs += 1;
            if failed {
                state.failed_jobs += 1;
            }
            if let Some(entry) = state.jobs.remove(&key) {
                for (sweep_id, index) in entry.subscribers {
                    self.complete_slot(&mut state, &sweep_id, index, outcome.clone(), false);
                }
            }
            drop(state);
            self.progress.notify_all();
        }
    }

    /// Fills one sweep slot, maintains the incremental Pareto front,
    /// appends the row event, and closes the sweep out (ledger `done` +
    /// terminal event) when the last slot lands. Called with the state
    /// lock held.
    fn complete_slot(
        &self,
        state: &mut State,
        sweep_id: &str,
        index: usize,
        outcome: JobOutcome,
        cached: bool,
    ) {
        let Some(sweep) = state.sweep_mut(sweep_id) else {
            return;
        };
        if sweep.cancelled || sweep.slots[index].is_some() {
            return;
        }
        let feasible = outcome.feasible;
        let safe_freq = outcome.safe_freq_ghz;
        sweep.slots[index] = Some(outcome);
        sweep.done += 1;

        // Incremental front maintenance, scored exactly as Analysis::of.
        let (front_add, front_drop) = update_front(sweep, index);
        let total = sweep.slots.len();
        let row = JsonValue::Obj(vec![
            ("event".into(), JsonValue::Str("row".into())),
            ("index".into(), JsonValue::Num(index as f64)),
            ("cached".into(), JsonValue::Bool(cached)),
            ("feasible".into(), JsonValue::Bool(feasible)),
            ("safe_freq_ghz".into(), JsonValue::Num(safe_freq)),
            ("done".into(), JsonValue::Num(sweep.done as f64)),
            ("total".into(), JsonValue::Num(total as f64)),
            (
                "front_add".into(),
                JsonValue::Arr(
                    front_add
                        .into_iter()
                        .map(|i| JsonValue::Num(i as f64))
                        .collect(),
                ),
            ),
            (
                "front_drop".into(),
                JsonValue::Arr(
                    front_drop
                        .into_iter()
                        .map(|i| JsonValue::Num(i as f64))
                        .collect(),
                ),
            ),
        ])
        .to_compact();
        sweep.events.push(row);

        if sweep.done == total {
            sweep.terminal = true;
            let event = JsonValue::Obj(vec![
                ("event".into(), JsonValue::Str("complete".into())),
                ("sweep".into(), JsonValue::Str(sweep_id.into())),
                ("done".into(), JsonValue::Num(sweep.done as f64)),
                ("total".into(), JsonValue::Num(total as f64)),
            ])
            .to_compact();
            sweep.events.push(event);
            let _ = self.ledger.done(sweep_id);
        }
    }

    /// Takes the state lock. Poisoning is unreachable: job bodies, the
    /// only code that runs a client's grid, execute under
    /// [`run_isolated`] with the lock released, and the code that does
    /// run under the lock panics only on a broken invariant, each named
    /// at its `expect`.
    #[allow(clippy::mut_mutex_lock)]
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("registry lock not poisoned")
    }

    /// Blocks on `cond`, releasing the state lock until woken. Poisoning
    /// is unreachable for the reason given on [`lock`](Self::lock).
    fn wait<'a>(cond: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cond.wait(state).expect("registry lock not poisoned")
    }
}

/// Applies one newly-filled slot to a sweep's incremental front,
/// returning the `(added, dropped)` index deltas.
fn update_front(sweep: &mut Sweep, index: usize) -> (Vec<usize>, Vec<usize>) {
    let objective =
        |i: usize| -> Option<[f64; 4]> { sweep.slots[i].as_ref().and_then(pareto_objectives) };
    let Some(new) = objective(index) else {
        return (Vec::new(), Vec::new());
    };
    if sweep
        .front
        .iter()
        .any(|&i| objective(i).is_some_and(|v| pareto_dominates(&v, &new)))
    {
        return (Vec::new(), Vec::new());
    }
    let dropped: Vec<usize> = sweep
        .front
        .iter()
        .copied()
        .filter(|&i| objective(i).is_some_and(|v| pareto_dominates(&new, &v)))
        .collect();
    sweep.front.retain(|i| !dropped.contains(i));
    sweep.front.push(index);
    sweep.front.sort_unstable();
    (vec![index], dropped)
}

fn sweep_status(id: &str, sweep: &Sweep) -> JsonValue {
    JsonValue::Obj(vec![
        ("sweep".into(), JsonValue::Str(id.into())),
        ("grid".into(), JsonValue::Str(sweep.grid.clone())),
        ("priority".into(), JsonValue::Num(f64::from(sweep.priority))),
        ("total".into(), JsonValue::Num(sweep.slots.len() as f64)),
        ("done".into(), JsonValue::Num(sweep.done as f64)),
        ("cancelled".into(), JsonValue::Bool(sweep.cancelled)),
        (
            "complete".into(),
            JsonValue::Bool(!sweep.cancelled && sweep.done == sweep.slots.len()),
        ),
        (
            "front".into(),
            JsonValue::Arr(
                sweep
                    .front
                    .iter()
                    .map(|&i| JsonValue::Num(i as f64))
                    .collect(),
            ),
        ),
    ])
}

impl SubmitError {
    /// The structured JSON error body clients receive.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Self::BadGrid(msg) => JsonValue::Obj(vec![
                ("error".into(), JsonValue::Str("bad grid".into())),
                ("detail".into(), JsonValue::Str(msg.clone())),
            ]),
            Self::QueueFull {
                queue_depth,
                queue_limit,
                retry_after_ms,
            } => JsonValue::Obj(vec![
                ("error".into(), JsonValue::Str("queue full".into())),
                ("queue_depth".into(), JsonValue::Num(*queue_depth as f64)),
                ("queue_limit".into(), JsonValue::Num(*queue_limit as f64)),
                (
                    "retry_after_ms".into(),
                    JsonValue::Num(*retry_after_ms as f64),
                ),
            ]),
        }
    }
}

impl SubmitTicket {
    /// The JSON acknowledgement body.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("sweep".into(), JsonValue::Str(self.sweep.clone())),
            ("total".into(), JsonValue::Num(self.total as f64)),
            ("cached".into(), JsonValue::Num(self.cached as f64)),
            ("deduped".into(), JsonValue::Num(self.deduped as f64)),
            ("queued".into(), JsonValue::Num(self.queued as f64)),
        ])
    }
}

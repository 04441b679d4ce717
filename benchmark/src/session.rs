//! One `serve` session: closed-loop clients sweeping against one daemon.
//!
//! Each client sends its next sweep only when the previous result has
//! arrived, with no think time. A sweep is submit → stream → result. Its
//! grid has two cycle budgets at two frequencies: the OLD budget was
//! introduced by the same client's previous sweep (or by the untimed
//! primer sweep), so its two jobs come from the daemon's cache; the NEW
//! budget is unique in the session, so its two jobs execute. Every sweep
//! therefore executes exactly two jobs and latency has one mode. (The
//! grid's `seed` axis takes a single value, so OLD and NEW vary `cycles`;
//! the master `seed` is the benchmark seed.)

use std::time::Instant;

use icnoc_explore::JsonValue;
use icnoc_serve::client;

use crate::trace::Tracer;
use crate::{fnv1a, strip_wall};

/// Client threads per session.
pub const CLIENTS: usize = 2;

/// The shape of a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// Grid master seed.
    pub seed: u64,
    /// Ports of the swept system.
    pub ports: usize,
    /// The primer sweep's cycle budget; NEW budgets count up from it.
    pub cycles: u64,
    /// Sweeps each client sends.
    pub sweeps_per_client: usize,
}

impl SessionPlan {
    fn grid(&self, cycles: &[u64]) -> String {
        let cycles: Vec<String> = cycles.iter().map(u64::to_string).collect();
        format!(
            "ports={};cycles={};freq=0.8,1.0;seed={}",
            self.ports,
            cycles.join(","),
            self.seed
        )
    }

    fn fresh_cycles(&self, client: usize, i: usize) -> u64 {
        self.cycles + 1 + (i * CLIENTS + client) as u64
    }

    fn sweep_grid(&self, client: usize, i: usize) -> String {
        let old = match i {
            0 => self.cycles,
            _ => self.fresh_cycles(client, i - 1),
        };
        self.grid(&[old, self.fresh_cycles(client, i)])
    }

    /// Timed sweeps in the session.
    #[must_use]
    pub fn sweeps(&self) -> usize {
        CLIENTS * self.sweeps_per_client
    }

    /// Jobs the daemon should execute in a session: two for the primer
    /// and two per sweep.
    #[must_use]
    pub fn fresh_jobs(&self) -> usize {
        2 + 2 * self.sweeps()
    }
}

/// What a session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// First timed submit to last timed result.
    pub wall_s: f64,
    /// Submit-to-result latency of every timed sweep that succeeded.
    pub latencies_ms: Vec<f64>,
    /// Sweeps attempted, the primer included.
    pub attempts: usize,
    /// One message per failed sweep.
    pub errors: Vec<String>,
    /// Digest of every result document with its `wall_ms` lines removed,
    /// in client and sweep order.
    pub digest: u64,
}

/// Runs the primer sweep, then the timed closed-loop clients.
#[must_use]
pub fn run_session(
    addr: &str,
    plan: &SessionPlan,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Session {
    let mut session = Session {
        attempts: 1 + plan.sweeps(),
        ..Session::default()
    };
    let mut docs = Vec::new();
    match sweep(addr, &plan.grid(&[plan.cycles]), tracer, parent) {
        Ok((_, doc)) => docs.push(doc),
        Err(e) => session.errors.push(format!("primer sweep: {e}")),
    }
    let start = Instant::now();
    let per_client: Vec<Vec<Result<(f64, String), String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    (0..plan.sweeps_per_client)
                        .map(|i| sweep(addr, &plan.sweep_grid(client, i), tracer, parent))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    session.wall_s = start.elapsed().as_secs_f64();
    for (client, results) in per_client.into_iter().enumerate() {
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok((ms, doc)) => {
                    session.latencies_ms.push(ms);
                    docs.push(doc);
                }
                Err(e) => session
                    .errors
                    .push(format!("client {client} sweep {i}: {e}")),
            }
        }
    }
    session.digest = fnv1a(docs.concat().as_bytes());
    session
}

/// One sweep: submit, stream to the terminal event, fetch the result.
/// Returns the latency in ms and the result without `wall_ms` lines.
fn sweep(
    addr: &str,
    grid: &str,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(f64, String), String> {
    let start = Instant::now();
    let mut span = tracer.span("serve.sweep", parent);
    let id = span.id();
    let ticket = {
        let mut submit = tracer.span("serve.submit", Some(id));
        let ticket = client::submit(addr, grid, 0).map_err(|e| format!("submit: {e}"))?;
        submit.set_request(&ticket.sweep);
        ticket
    };
    span.set_request(&ticket.sweep);
    {
        let mut stream = tracer.span("serve.stream", Some(id));
        stream.set_request(&ticket.sweep);
        client::stream(addr, &ticket.sweep, |_| {}).map_err(|e| format!("stream: {e}"))?;
    }
    let doc = {
        let mut result = tracer.span("serve.result", Some(id));
        result.set_request(&ticket.sweep);
        client::result(addr, &ticket.sweep).map_err(|e| format!("result: {e}"))?
    };
    check_result(&doc, ticket.total)?;
    Ok((start.elapsed().as_secs_f64() * 1e3, strip_wall(&doc)))
}

/// A result must parse, hold every job of the sweep, and contain no job
/// that failed (a panic or an uninterpretable config).
fn check_result(doc: &str, total: usize) -> Result<(), String> {
    let v = JsonValue::parse(doc).map_err(|e| format!("result does not parse: {e}"))?;
    let outcomes = v
        .get("outcomes")
        .and_then(JsonValue::as_arr)
        .ok_or("result has no outcomes")?;
    if outcomes.len() != total {
        return Err(format!("result has {} of {total} jobs", outcomes.len()));
    }
    if let Some(err) = outcomes
        .iter()
        .filter_map(|o| o.get("build_error").and_then(JsonValue::as_str))
        .find(|e| e.starts_with("job failed"))
    {
        return Err(err.to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_pairs_a_seen_budget_with_a_fresh_one() {
        let plan = SessionPlan {
            seed: 9,
            ports: 32,
            cycles: 3000,
            sweeps_per_client: 3,
        };
        assert_eq!(
            plan.sweep_grid(0, 0),
            "ports=32;cycles=3000,3001;freq=0.8,1.0;seed=9"
        );
        assert_eq!(
            plan.sweep_grid(1, 0),
            "ports=32;cycles=3000,3002;freq=0.8,1.0;seed=9"
        );
        assert_eq!(
            plan.sweep_grid(0, 1),
            "ports=32;cycles=3001,3003;freq=0.8,1.0;seed=9"
        );
        assert_eq!(
            plan.sweep_grid(1, 2),
            "ports=32;cycles=3004,3006;freq=0.8,1.0;seed=9"
        );
        assert_eq!(plan.sweeps(), 6);
        assert_eq!(plan.fresh_jobs(), 14);
    }

    #[test]
    fn failed_jobs_and_short_results_are_rejected() {
        let ok = r#"{"outcomes": [{"build_error": null}, {"build_error": "freq too high"}]}"#;
        assert!(check_result(ok, 2).is_ok());
        assert!(check_result(ok, 3).is_err());
        let failed = r#"{"outcomes": [{"build_error": "job failed: boom"}]}"#;
        assert!(check_result(failed, 1).is_err());
        assert!(check_result("not json", 1).is_err());
    }
}

//! Time-to-verdict benchmark for the `icnoc` tool.
//!
//! End-to-end reps run the user's code path unchanged in a fresh child
//! process each ([`child`]); one traced rep per workload calls the same
//! public layer functions in-process with a span around each call
//! ([`traced`], [`trace`]), which gives the per-layer split. See the
//! README next to this crate for the workloads and metrics.

#![warn(missing_docs)]

pub mod child;
pub mod compare;
pub mod report;
pub mod runner;
pub mod session;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

/// 64-bit FNV-1a: the output digest compared across reps.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `text` without its `wall_ms` lines, the only ones that differ between
/// two sweeps of the same grid.
#[must_use]
pub fn strip_wall(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("wall_ms"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn strip_wall_drops_only_wall_lines() {
        assert_eq!(strip_wall("a\n  \"wall_ms\": 3\nb"), "a\nb\n");
    }
}

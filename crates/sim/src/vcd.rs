//! VCD (Value Change Dump) export of simulation waveforms.
//!
//! Dumps per-stage occupancy (the `valid` bit of every pipeline register)
//! as a standard IEEE 1364 VCD file, viewable in GTKWave & co. Handy for
//! eyeballing the Fig. 4 handshake exactly the way the paper draws it.

use crate::Network;
use std::fmt::Write as _;

/// A recorded waveform: one 1-bit signal per network stage, sampled at
/// half-cycle resolution.
///
/// ```
/// use icnoc_sim::{Network, SinkMode, TrafficPattern, VcdTrace};
///
/// let mut net = Network::pipeline(4, TrafficPattern::saturate(), SinkMode::AlwaysAccept, 1);
/// let trace = VcdTrace::record(&mut net, 8);
/// assert_eq!(trace.len(), 16);
/// let vcd = trace.render(500); // 500 ps per half-cycle at 1 GHz
/// assert!(vcd.starts_with("$date"));
/// assert!(vcd.contains("$enddefinitions"));
/// ```
#[derive(Debug, Clone)]
pub struct VcdTrace {
    labels: Vec<String>,
    samples: Vec<(u64, Vec<bool>)>,
}

impl VcdTrace {
    /// Prepares a trace over `network`'s stages (signal names are the
    /// stage labels).
    #[must_use]
    pub fn new(network: &Network) -> Self {
        Self {
            labels: network
                .stage_occupancy()
                .map(|(label, _)| label.to_owned())
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Steps `network` through `cycles` cycles, sampling before every
    /// tick, and returns the recorded trace.
    #[must_use]
    pub fn record(network: &mut Network, cycles: u64) -> Self {
        let mut trace = Self::new(network);
        for _ in 0..cycles * 2 {
            trace.sample(network);
            network.step();
        }
        trace
    }

    /// Records the network's current stage occupancy at its current tick.
    ///
    /// # Panics
    ///
    /// Panics if the network's stage count changed since [`VcdTrace::new`].
    pub fn sample(&mut self, network: &Network) {
        let values: Vec<bool> = network.stage_occupancy().map(|(_, v)| v).collect();
        assert_eq!(
            values.len(),
            self.labels.len(),
            "network structure changed mid-trace"
        );
        self.samples.push((network.tick(), values));
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Renders the IEEE 1364 VCD text, with `ps_per_tick` picoseconds per
    /// half-cycle (500 for a 1 GHz clock).
    ///
    /// Only value *changes* are emitted, per the format.
    #[must_use]
    pub fn render(&self, ps_per_tick: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date icnoc-sim $end");
        let _ = writeln!(out, "$version icnoc-sim VCD dump $end");
        let _ = writeln!(out, "$timescale 1ps $end");
        let _ = writeln!(out, "$scope module icnoc $end");
        for (i, label) in self.labels.iter().enumerate() {
            let _ = writeln!(out, "$var wire 1 {} {} $end", Self::id(i), vcd_name(label));
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        let mut last: Option<&[bool]> = None;
        for (tick, values) in &self.samples {
            let changed: Vec<usize> = match last {
                None => (0..values.len()).collect(),
                Some(prev) => (0..values.len())
                    .filter(|&i| values[i] != prev[i])
                    .collect(),
            };
            if !changed.is_empty() {
                let _ = writeln!(out, "#{}", tick * ps_per_tick);
                if last.is_none() {
                    let _ = writeln!(out, "$dumpvars");
                }
                for i in changed {
                    let _ = writeln!(out, "{}{}", u8::from(values[i]), Self::id(i));
                }
                if last.is_none() {
                    let _ = writeln!(out, "$end");
                }
            }
            last = Some(values);
        }
        out
    }

    /// Short VCD identifier for signal `i` (printable ASCII, base 94).
    fn id(mut i: usize) -> String {
        let mut s = String::new();
        loop {
            s.push((b'!' + (i % 94) as u8) as char);
            i /= 94;
            if i == 0 {
                break;
            }
            i -= 1;
        }
        s
    }
}

/// VCD identifiers may not contain whitespace; stage labels are already
/// compact, but be defensive.
fn vcd_name(label: &str) -> String {
    label.replace(char::is_whitespace, "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SinkMode, TrafficPattern};

    fn traced_pipeline(cycles: u64) -> VcdTrace {
        let mut net = Network::pipeline(
            6,
            TrafficPattern::saturate(),
            SinkMode::StallDuring { from: 5, to: 10 },
            3,
        );
        VcdTrace::record(&mut net, cycles)
    }

    #[test]
    fn header_declares_every_stage() {
        let trace = traced_pipeline(20);
        let vcd = trace.render(500);
        assert_eq!(vcd.matches("$var wire 1 ").count(), 6);
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("s0"));
        assert!(vcd.contains("s5"));
    }

    #[test]
    fn timestamps_use_the_given_timescale() {
        let trace = traced_pipeline(8);
        let vcd = trace.render(500);
        // First stage captures on the tick-1 edge, visible at tick 2 =
        // 1000 ps.
        assert!(vcd.contains("#1000"), "{vcd}");
    }

    #[test]
    fn only_changes_are_dumped_after_the_first_sample() {
        let mut net = Network::pipeline(4, TrafficPattern::Silent, SinkMode::AlwaysAccept, 1);
        let vcd = VcdTrace::record(&mut net, 5).render(500);
        // Silent pipeline: only the initial dumpvars block carries values.
        let value_lines = vcd
            .lines()
            .filter(|l| l.starts_with('0') || l.starts_with('1'))
            .count();
        assert_eq!(value_lines, 4, "{vcd}");
    }

    #[test]
    fn ids_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = VcdTrace::id(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)), "{id:?}");
            assert!(seen.insert(id), "duplicate id at {i}");
        }
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let net = Network::pipeline(2, TrafficPattern::Silent, SinkMode::AlwaysAccept, 1);
        let trace = VcdTrace::new(&net);
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
        let vcd = trace.render(500);
        assert!(!vcd.contains('#'));
    }
}

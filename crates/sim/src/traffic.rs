//! Synthetic traffic generation.
//!
//! The paper's demonstrator tiles (a microprocessor and a local memory per
//! tile) are substituted by open-loop traffic generators. Every generator is
//! seeded deterministically, so a run is exactly reproducible from its
//! master seed.

use icnoc_topology::PortId;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What a source does on one of its active edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPhase {
    /// Try to inject a flit to the given destination.
    Inject(PortId),
    /// Stay idle this edge.
    Idle,
}

/// An open-loop traffic pattern, evaluated once per source edge.
///
/// Rates are per *cycle* (one active edge per cycle per stage), in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Inject every cycle, round-robining over all other ports. Used to
    /// saturate a pipeline or measure peak throughput.
    Saturate,
    /// Bernoulli injection at `rate`, destination uniform over other ports.
    Uniform {
        /// Injection probability per cycle.
        rate: f64,
    },
    /// Bernoulli injection at `rate`, always to the tile-local partner port
    /// (`port ^ 1`) — the processor↔memory traffic of the demonstrator.
    Neighbor {
        /// Injection probability per cycle.
        rate: f64,
    },
    /// Mix of a hotspot target and uniform background.
    Hotspot {
        /// Injection probability per cycle.
        rate: f64,
        /// The congested destination.
        target: PortId,
        /// Probability that an injected flit goes to the hotspot.
        fraction: f64,
    },
    /// On/off bursts: `burst` cycles of saturated neighbour traffic, then
    /// `idle` cycles of silence — the "bursty nature" the paper's
    /// clock-gating argument relies on.
    Bursty {
        /// Cycles of back-to-back injection per burst.
        burst: u32,
        /// Idle cycles between bursts.
        idle: u32,
    },
    /// Bernoulli injection at `rate` towards a uniformly random *memory*
    /// port (odd port id) — the natural request pattern of a closed-loop
    /// processor tile in the demonstrator's even/odd port mapping.
    RandomMemory {
        /// Injection probability per cycle.
        rate: f64,
    },
    /// Never inject (pure sink port, e.g. a memory that only replies — or
    /// in open-loop form, does nothing).
    Silent,
}

impl TrafficPattern {
    /// Convenience constructor for [`TrafficPattern::Saturate`].
    #[must_use]
    pub fn saturate() -> Self {
        TrafficPattern::Saturate
    }

    /// Convenience constructor for uniform traffic.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    #[track_caller]
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        TrafficPattern::Uniform { rate }
    }

    /// Parses a traffic-pattern spec (the CLI `--pattern` and sweep-grid
    /// grammar): `uniform:RATE`, `neighbor:RATE`, `saturate`, `silent`,
    /// `hotspot:RATE:TARGET:FRACTION`, `bursty:BURST:IDLE`,
    /// `memory:RATE`. Rates and fractions lie in `[0, 1]`; a target,
    /// burst or idle length is a whole number that fits a `u32`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown pattern names, malformed numbers, and
    /// numbers outside their range.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let num = |s: &str| -> Result<f64, String> {
            s.parse()
                .map_err(|_| format!("bad number {s:?} in pattern {spec:?}"))
        };
        let prob = |s: &str| -> Result<f64, String> {
            let p = num(s)?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(format!("{s:?} in pattern {spec:?} must lie in [0, 1]"))
            }
        };
        let whole = |s: &str| -> Result<u32, String> {
            let n = num(s)?;
            if n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&n) {
                Ok(n as u32)
            } else {
                Err(format!(
                    "{s:?} in pattern {spec:?} must be a whole number in [0, {}]",
                    u32::MAX
                ))
            }
        };
        match spec.split(':').collect::<Vec<_>>().as_slice() {
            ["saturate"] => Ok(TrafficPattern::Saturate),
            ["silent"] => Ok(TrafficPattern::Silent),
            ["uniform", r] => Ok(TrafficPattern::Uniform { rate: prob(r)? }),
            ["neighbor", r] | ["neighbour", r] => Ok(TrafficPattern::Neighbor { rate: prob(r)? }),
            ["memory", r] => Ok(TrafficPattern::RandomMemory { rate: prob(r)? }),
            ["hotspot", r, t, f] => Ok(TrafficPattern::Hotspot {
                rate: prob(r)?,
                target: PortId(whole(t)?),
                fraction: prob(f)?,
            }),
            ["bursty", b, i] => Ok(TrafficPattern::Bursty {
                burst: whole(b)?,
                idle: whole(i)?,
            }),
            _ => Err(format!(
                "unknown pattern {spec:?}; try uniform:0.2, neighbor:0.3, \
                 hotspot:0.3:0:0.5, bursty:10:90, memory:0.2, saturate, silent"
            )),
        }
    }

    /// Checks that every port this pattern names exists in a
    /// `num_ports`-port fabric: a hotspot target outside it would address
    /// flits no consumer can ever take.
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range target.
    pub fn check_ports(&self, num_ports: usize) -> Result<(), String> {
        match self {
            TrafficPattern::Hotspot { target, .. } if target.0 as usize >= num_ports => {
                Err(format!(
                    "hotspot target {} is outside the {num_ports}-port fabric",
                    target.0
                ))
            }
            _ => Ok(()),
        }
    }

    /// Decides this edge's action for the source on `port` of an
    /// `num_ports`-port network, at local cycle `cycle`.
    pub(crate) fn decide(
        &self,
        port: PortId,
        num_ports: u32,
        cycle: u64,
        rng: &mut StdRng,
    ) -> TrafficPhase {
        match *self {
            TrafficPattern::Saturate => {
                TrafficPhase::Inject(other_port_round_robin(port, num_ports, cycle))
            }
            TrafficPattern::Uniform { rate } => {
                if rng.gen_bool(rate.clamp(0.0, 1.0)) {
                    TrafficPhase::Inject(random_other_port(port, num_ports, rng))
                } else {
                    TrafficPhase::Idle
                }
            }
            TrafficPattern::Neighbor { rate } => {
                if rng.gen_bool(rate.clamp(0.0, 1.0)) {
                    TrafficPhase::Inject(partner_port(port, num_ports))
                } else {
                    TrafficPhase::Idle
                }
            }
            TrafficPattern::Hotspot {
                rate,
                target,
                fraction,
            } => {
                if !rng.gen_bool(rate.clamp(0.0, 1.0)) {
                    return TrafficPhase::Idle;
                }
                let dest = if target != port && rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                    target
                } else {
                    random_other_port(port, num_ports, rng)
                };
                TrafficPhase::Inject(dest)
            }
            TrafficPattern::Bursty { burst, idle } => {
                let span = u64::from(burst) + u64::from(idle);
                if span == 0 || cycle % span < u64::from(burst) {
                    TrafficPhase::Inject(partner_port(port, num_ports))
                } else {
                    TrafficPhase::Idle
                }
            }
            TrafficPattern::RandomMemory { rate } => {
                if num_ports < 2 || !rng.gen_bool(rate.clamp(0.0, 1.0)) {
                    return TrafficPhase::Idle;
                }
                let memories = num_ports / 2;
                // A source on a memory port (an odd id) picks among the
                // other memories, never itself.
                let own = (port.0 % 2 == 1 && port.0 / 2 < memories).then_some(port.0 / 2);
                let choices = memories - u32::from(own.is_some());
                if choices == 0 {
                    return TrafficPhase::Idle;
                }
                let pick = rng.gen_range(0..choices);
                let pick = match own {
                    Some(own) if pick >= own => pick + 1,
                    _ => pick,
                };
                TrafficPhase::Inject(PortId(2 * pick + 1))
            }
            TrafficPattern::Silent => TrafficPhase::Idle,
        }
    }
}

/// The tile-local partner: `port ^ 1`, clamped into range for odd-sized
/// networks.
fn partner_port(port: PortId, num_ports: u32) -> PortId {
    let p = port.0 ^ 1;
    if p < num_ports {
        PortId(p)
    } else {
        PortId(port.0.saturating_sub(1))
    }
}

fn random_other_port(port: PortId, num_ports: u32, rng: &mut StdRng) -> PortId {
    debug_assert!(num_ports >= 2);
    let pick = rng.gen_range(0..num_ports - 1);
    PortId(if pick >= port.0 { pick + 1 } else { pick })
}

fn other_port_round_robin(port: PortId, num_ports: u32, cycle: u64) -> PortId {
    debug_assert!(num_ports >= 2);
    let pick = (cycle % u64::from(num_ports - 1)) as u32;
    PortId(if pick >= port.0 { pick + 1 } else { pick })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn saturate_always_injects_to_someone_else() {
        let mut r = rng();
        for cycle in 0..100 {
            match TrafficPattern::Saturate.decide(PortId(3), 8, cycle, &mut r) {
                TrafficPhase::Inject(d) => assert_ne!(d, PortId(3)),
                TrafficPhase::Idle => panic!("saturate must inject"),
            }
        }
    }

    #[test]
    fn uniform_rate_zero_never_injects_rate_one_always() {
        let mut r = rng();
        for cycle in 0..50 {
            assert_eq!(
                TrafficPattern::uniform(0.0).decide(PortId(0), 8, cycle, &mut r),
                TrafficPhase::Idle
            );
            assert!(matches!(
                TrafficPattern::uniform(1.0).decide(PortId(0), 8, cycle, &mut r),
                TrafficPhase::Inject(_)
            ));
        }
    }

    #[test]
    fn uniform_never_targets_self() {
        let mut r = rng();
        for cycle in 0..1000 {
            if let TrafficPhase::Inject(d) =
                TrafficPattern::uniform(1.0).decide(PortId(5), 8, cycle, &mut r)
            {
                assert_ne!(d, PortId(5));
                assert!(d.0 < 8);
            }
        }
    }

    #[test]
    fn neighbor_targets_partner() {
        let mut r = rng();
        let p = TrafficPattern::Neighbor { rate: 1.0 };
        assert_eq!(
            p.decide(PortId(6), 8, 0, &mut r),
            TrafficPhase::Inject(PortId(7))
        );
        assert_eq!(
            p.decide(PortId(7), 8, 0, &mut r),
            TrafficPhase::Inject(PortId(6))
        );
    }

    #[test]
    fn bursty_follows_duty_cycle() {
        let mut r = rng();
        let p = TrafficPattern::Bursty { burst: 2, idle: 3 };
        let decisions: Vec<bool> = (0..10)
            .map(|c| matches!(p.decide(PortId(0), 8, c, &mut r), TrafficPhase::Inject(_)))
            .collect();
        assert_eq!(
            decisions,
            [true, true, false, false, false, true, true, false, false, false]
        );
    }

    #[test]
    fn hotspot_prefers_target() {
        let mut r = rng();
        let p = TrafficPattern::Hotspot {
            rate: 1.0,
            target: PortId(0),
            fraction: 0.9,
        };
        let hits = (0..1000)
            .filter(|&c| p.decide(PortId(5), 8, c, &mut r) == TrafficPhase::Inject(PortId(0)))
            .count();
        assert!(hits > 800, "expected ~900 hotspot hits, got {hits}");
    }

    #[test]
    fn hotspot_fraction_one_always_hits_target_from_other_ports() {
        let mut r = rng();
        let p = TrafficPattern::Hotspot {
            rate: 1.0,
            target: PortId(2),
            fraction: 1.0,
        };
        for cycle in 0..500 {
            assert_eq!(
                p.decide(PortId(5), 8, cycle, &mut r),
                TrafficPhase::Inject(PortId(2))
            );
        }
    }

    #[test]
    fn hotspot_fraction_zero_degenerates_to_uniform() {
        let mut r = rng();
        let p = TrafficPattern::Hotspot {
            rate: 1.0,
            target: PortId(2),
            fraction: 0.0,
        };
        let mut seen = [0usize; 8];
        for cycle in 0..4_000 {
            let TrafficPhase::Inject(d) = p.decide(PortId(5), 8, cycle, &mut r) else {
                panic!("rate 1.0 must inject");
            };
            assert_ne!(d, PortId(5), "never self");
            seen[d.0 as usize] += 1;
        }
        // The target gets background traffic like any other port: its
        // share of 4000 injections over 7 candidates is ~571, nowhere
        // near the full stream a non-zero fraction would steer at it.
        assert!(seen[2] > 0, "target still reachable as background");
        assert!(
            (300..900).contains(&seen[2]),
            "expected a uniform share for the target, got {seen:?}"
        );
    }

    #[test]
    fn hotspot_source_on_target_port_never_injects_to_itself() {
        let mut r = rng();
        let p = TrafficPattern::Hotspot {
            rate: 1.0,
            target: PortId(3),
            fraction: 1.0,
        };
        for cycle in 0..1_000 {
            let TrafficPhase::Inject(d) = p.decide(PortId(3), 8, cycle, &mut r) else {
                panic!("rate 1.0 must inject");
            };
            assert_ne!(d, PortId(3), "the hotspot itself must pick another port");
            assert!(d.0 < 8);
        }
    }

    #[test]
    fn random_memory_source_on_a_memory_port_never_targets_itself() {
        let mut r = rng();
        let p = TrafficPattern::RandomMemory { rate: 1.0 };
        for port in [1, 3, 7] {
            let mut seen = [0usize; 8];
            for cycle in 0..1_000 {
                let TrafficPhase::Inject(d) = p.decide(PortId(port), 8, cycle, &mut r) else {
                    panic!("rate 1.0 must inject while another memory exists");
                };
                assert_ne!(d, PortId(port), "a memory port must pick another memory");
                seen[d.0 as usize] += 1;
            }
            let memories = [1, 3, 5, 7].iter().filter(|&&m| m != port);
            assert!(memories.clone().all(|&m| seen[m as usize] > 0), "{seen:?}");
            assert_eq!(
                seen.iter().sum::<usize>(),
                memories.map(|&m| seen[m as usize]).sum()
            );
        }
        // A 2-port fabric has one memory: its own port stays idle.
        for cycle in 0..100 {
            assert_eq!(p.decide(PortId(1), 2, cycle, &mut r), TrafficPhase::Idle);
        }
    }

    #[test]
    fn hotspot_rate_zero_is_silent() {
        let mut r = rng();
        let p = TrafficPattern::Hotspot {
            rate: 0.0,
            target: PortId(0),
            fraction: 1.0,
        };
        for cycle in 0..100 {
            assert_eq!(p.decide(PortId(5), 8, cycle, &mut r), TrafficPhase::Idle);
        }
    }

    #[test]
    fn silent_never_injects() {
        let mut r = rng();
        for cycle in 0..10 {
            assert_eq!(
                TrafficPattern::Silent.decide(PortId(0), 8, cycle, &mut r),
                TrafficPhase::Idle
            );
        }
    }

    #[test]
    fn pattern_specs_parse_every_shape() {
        let ok = |spec: &str| TrafficPattern::parse(spec).expect(spec);
        assert_eq!(ok("uniform:0.25"), TrafficPattern::Uniform { rate: 0.25 });
        assert_eq!(ok("saturate"), TrafficPattern::Saturate);
        assert_eq!(ok("silent"), TrafficPattern::Silent);
        assert_eq!(ok("neighbour:1"), TrafficPattern::Neighbor { rate: 1.0 });
        assert_eq!(
            ok("bursty:10:90"),
            TrafficPattern::Bursty {
                burst: 10,
                idle: 90
            }
        );
        assert_eq!(ok("memory:0.1"), TrafficPattern::RandomMemory { rate: 0.1 });
        assert_eq!(
            ok("hotspot:0.3:4:0.5"),
            TrafficPattern::Hotspot {
                rate: 0.3,
                target: PortId(4),
                fraction: 0.5
            }
        );
        // Whole numbers may be spelled as floats; the grammar is unchanged.
        assert_eq!(
            ok("bursty:10.0:0"),
            TrafficPattern::Bursty { burst: 10, idle: 0 }
        );
        let err = TrafficPattern::parse("wavy:1").unwrap_err();
        assert!(err.starts_with("unknown pattern \"wavy:1\""), "{err}");
        let err = TrafficPattern::parse("uniform:abc").unwrap_err();
        assert_eq!(err, "bad number \"abc\" in pattern \"uniform:abc\"");
    }

    #[test]
    fn pattern_specs_reject_out_of_range_numbers() {
        for spec in [
            "uniform:nan",
            "uniform:1.5",
            "uniform:-0.1",
            "neighbor:inf",
            "memory:NaN",
            "hotspot:0.3:0:1.01",
            "hotspot:nan:0:0.5",
            "hotspot:0.3:-1:0.5",
            "hotspot:0.3:2.5:0.5",
            "hotspot:0.3:4294967296:0.5",
            "bursty:-1:10",
            "bursty:10:0.5",
            "bursty:1e10:10",
            "bursty:nan:10",
        ] {
            let err = TrafficPattern::parse(spec).expect_err(spec);
            assert!(err.contains(spec), "{spec}: {err}");
        }
        assert!(TrafficPattern::parse("hotspot:0.3:4294967295:0.5").is_ok());
    }

    #[test]
    fn hotspot_targets_must_exist_in_the_fabric() {
        let p = TrafficPattern::parse("hotspot:0.3:99:0.5").expect("parses");
        let err = p.check_ports(8).unwrap_err();
        assert_eq!(err, "hotspot target 99 is outside the 8-port fabric");
        assert!(p.check_ports(100).is_ok());
        assert!(TrafficPattern::Saturate.check_ports(2).is_ok());
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = TrafficPattern::uniform(1.5);
    }
}

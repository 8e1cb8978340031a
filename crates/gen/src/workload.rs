//! Open-loop arrival patterns for the serving front-end.
//!
//! The serving loop (`wfp_skl::serve`) coalesces concurrent submissions
//! inside an admission window, so its latency distribution depends on
//! *when* requests arrive, not just how many. This module generates
//! deterministic arrival schedules for the three classic load shapes:
//!
//! * [`Arrival::Closed`] — closed loop: every client submits its next
//!   request the moment the previous answer returns (no schedule; all
//!   offsets zero). Measures sustainable throughput.
//! * [`Arrival::Uniform`] — open loop at a steady rate: request `i`
//!   arrives at `i / per_sec`. Measures latency at a fixed offered load.
//! * [`Arrival::Poisson`] — open loop with exponential interarrivals at
//!   mean rate `per_sec`: the memoryless traffic a population of
//!   independent clients offers. The tail of the admission queue under
//!   Poisson arrivals is the honest p99.
//! * [`Arrival::Bursty`] — `burst` requests land together, groups spaced
//!   at `per_sec` requests per second overall. Stresses the bounded
//!   queue's overload shedding.
//!
//! Schedules are plain microsecond offsets from the workload start;
//! addressing (which spec/run each probe hits) is composed by the caller,
//! keeping this crate free of `wfp-skl` types — the same posture as
//! [`generate_registry`](crate::generate_registry).

use wfp_graph::rng::Xoshiro256;

/// When requests arrive, relative to the workload start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Closed loop: submit as fast as answers return.
    Closed,
    /// Open loop, evenly spaced at `per_sec` requests per second.
    Uniform {
        /// Offered load in requests per second (across all clients).
        per_sec: f64,
    },
    /// Open loop, exponential interarrivals at mean `per_sec`.
    Poisson {
        /// Mean offered load in requests per second.
        per_sec: f64,
    },
    /// Open loop, `burst` simultaneous requests per group, groups spaced
    /// so the *overall* rate is `per_sec`.
    Bursty {
        /// Mean offered load in requests per second.
        per_sec: f64,
        /// Requests per burst group.
        burst: usize,
    },
}

impl Arrival {
    /// Parses the CLI spelling: `closed`, `uniform:RATE`, `poisson:RATE`,
    /// `bursty:RATE:BURST`.
    pub fn parse(text: &str) -> Result<Arrival, String> {
        let mut parts = text.split(':');
        let kind = parts.next().unwrap_or_default();
        let rate = |p: Option<&str>| -> Result<f64, String> {
            let r: f64 = p
                .ok_or_else(|| format!("{text:?}: missing RATE"))?
                .parse()
                .map_err(|_| format!("{text:?}: bad RATE"))?;
            if r > 0.0 && r.is_finite() {
                Ok(r)
            } else {
                Err(format!("{text:?}: RATE must be positive and finite"))
            }
        };
        let arrival = match kind {
            "closed" => Arrival::Closed,
            "uniform" => Arrival::Uniform {
                per_sec: rate(parts.next())?,
            },
            "poisson" => Arrival::Poisson {
                per_sec: rate(parts.next())?,
            },
            "bursty" => {
                let per_sec = rate(parts.next())?;
                let burst: usize = parts
                    .next()
                    .ok_or_else(|| format!("{text:?}: missing BURST"))?
                    .parse()
                    .map_err(|_| format!("{text:?}: bad BURST"))?;
                if burst == 0 {
                    return Err(format!("{text:?}: BURST must be >= 1"));
                }
                Arrival::Bursty { per_sec, burst }
            }
            other => {
                return Err(format!(
                    "unknown arrival pattern {other:?} (closed | uniform:RATE | \
                     poisson:RATE | bursty:RATE:BURST)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("{text:?}: trailing arrival components"));
        }
        Ok(arrival)
    }
}

/// The arrival schedule for `requests` submissions: non-decreasing
/// microsecond offsets from the workload start, deterministic in
/// `(arrival, seed)`. [`Arrival::Closed`] yields all zeros — clients pace
/// themselves.
pub fn arrival_offsets_us(arrival: Arrival, requests: usize, seed: u64) -> Vec<u64> {
    match arrival {
        Arrival::Closed => vec![0; requests],
        Arrival::Uniform { per_sec } => (0..requests)
            .map(|i| (i as f64 * 1e6 / per_sec) as u64)
            .collect(),
        Arrival::Poisson { per_sec } => {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
            let mut at = 0.0f64;
            (0..requests)
                .map(|_| {
                    // inverse-CDF exponential; 1-u keeps ln away from 0
                    let u = 1.0 - rng.gen_f64();
                    at += -u.ln() / per_sec * 1e6;
                    at as u64
                })
                .collect()
        }
        Arrival::Bursty { per_sec, burst } => (0..requests)
            .map(|i| ((i / burst) as f64 * burst as f64 * 1e6 / per_sec) as u64)
            .collect(),
    }
}

/// Which spec each request targets — the *mix* axis of a serving
/// workload, orthogonal to [`Arrival`] (the *when* axis). A uniform mix
/// spreads load evenly over shards; a zipfian mix concentrates it on a
/// few hot specs, which is what makes hot-shard imbalance generatable
/// and benchmarkable rather than hypothetical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpecMix {
    /// Every spec equally likely.
    Uniform,
    /// Spec ranked `r` (0-based) drawn with weight `1 / (r + 1)^skew`.
    /// `skew = 0` degenerates to uniform; `skew ≈ 1` is the classic
    /// web-trace shape; larger values pile onto the head harder.
    Zipf {
        /// The Zipf exponent `s ≥ 0`.
        skew: f64,
    },
}

impl SpecMix {
    /// Parses the CLI spelling: `uniform`, `zipf:SKEW`.
    pub fn parse(text: &str) -> Result<SpecMix, String> {
        let mut parts = text.split(':');
        let mix = match parts.next().unwrap_or_default() {
            "uniform" => SpecMix::Uniform,
            "zipf" => {
                let skew: f64 = parts
                    .next()
                    .ok_or_else(|| format!("{text:?}: missing SKEW"))?
                    .parse()
                    .map_err(|_| format!("{text:?}: bad SKEW"))?;
                if !(skew >= 0.0 && skew.is_finite()) {
                    return Err(format!("{text:?}: SKEW must be finite and >= 0"));
                }
                SpecMix::Zipf { skew }
            }
            other => return Err(format!("unknown spec mix {other:?} (uniform | zipf:SKEW)")),
        };
        if parts.next().is_some() {
            return Err(format!("{text:?}: trailing mix components"));
        }
        Ok(mix)
    }
}

/// The spec index each of `requests` submissions targets, drawn from
/// `mix` over `specs` specs — deterministic in `(mix, specs, seed)`.
/// Indices are ranks: under [`SpecMix::Zipf`], index 0 is the hottest
/// spec. Addressing (which `SpecId` rank `i` maps to) is composed by
/// the caller, keeping this crate free of `wfp-skl` types.
pub fn spec_mix_indices(mix: SpecMix, specs: usize, requests: usize, seed: u64) -> Vec<usize> {
    assert!(specs > 0, "spec mix over zero specs");
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC2B2_AE3D_27D4_EB4F);
    match mix {
        SpecMix::Uniform => (0..requests).map(|_| rng.gen_usize(specs)).collect(),
        SpecMix::Zipf { skew } => {
            // cumulative weights once, then inverse-CDF per draw
            let mut cdf = Vec::with_capacity(specs);
            let mut total = 0.0f64;
            for r in 0..specs {
                total += 1.0 / ((r + 1) as f64).powf(skew);
                cdf.push(total);
            }
            (0..requests)
                .map(|_| {
                    let u = rng.gen_f64() * total;
                    cdf.partition_point(|&c| c < u).min(specs - 1)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_monotone() {
        for arrival in [
            Arrival::Closed,
            Arrival::Uniform { per_sec: 10_000.0 },
            Arrival::Poisson { per_sec: 10_000.0 },
            Arrival::Bursty {
                per_sec: 10_000.0,
                burst: 32,
            },
        ] {
            let a = arrival_offsets_us(arrival, 500, 7);
            let b = arrival_offsets_us(arrival, 500, 7);
            assert_eq!(a, b, "{arrival:?} must be deterministic");
            assert_eq!(a.len(), 500);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{arrival:?} monotone");
        }
    }

    #[test]
    fn open_loop_rates_land_near_their_target() {
        let n = 10_000;
        for arrival in [
            Arrival::Uniform { per_sec: 50_000.0 },
            Arrival::Poisson { per_sec: 50_000.0 },
            Arrival::Bursty {
                per_sec: 50_000.0,
                burst: 100,
            },
        ] {
            let offsets = arrival_offsets_us(arrival, n, 3);
            let span_s = *offsets.last().unwrap() as f64 / 1e6;
            let rate = (n - 1) as f64 / span_s;
            assert!(
                (rate - 50_000.0).abs() / 50_000.0 < 0.1,
                "{arrival:?}: realized {rate:.0}/s vs target 50000/s"
            );
        }
    }

    #[test]
    fn bursts_share_an_offset() {
        let offsets = arrival_offsets_us(
            Arrival::Bursty {
                per_sec: 1000.0,
                burst: 10,
            },
            40,
            0,
        );
        for group in offsets.chunks(10) {
            assert!(group.iter().all(|&o| o == group[0]));
        }
        assert_ne!(offsets[0], offsets[10]);
    }

    #[test]
    fn zipf_mix_concentrates_on_the_head() {
        let n = 50_000;
        let specs = 8;
        let uni = spec_mix_indices(SpecMix::Uniform, specs, n, 11);
        let hot = spec_mix_indices(SpecMix::Zipf { skew: 1.2 }, specs, n, 11);
        assert_eq!(uni.len(), n);
        assert_eq!(hot.len(), n);
        assert!(uni.iter().all(|&i| i < specs));
        assert!(hot.iter().all(|&i| i < specs));
        // deterministic
        assert_eq!(
            hot,
            spec_mix_indices(SpecMix::Zipf { skew: 1.2 }, specs, n, 11)
        );
        let count = |v: &[usize], i: usize| v.iter().filter(|&&x| x == i).count();
        // uniform: every spec near n/specs
        for i in 0..specs {
            let c = count(&uni, i) as f64;
            assert!(
                (c - n as f64 / specs as f64).abs() < n as f64 * 0.02,
                "uniform spec {i} drew {c}"
            );
        }
        // zipf: rank 0 dominates and counts decay down the ranks
        let c0 = count(&hot, 0);
        let c_last = count(&hot, specs - 1);
        assert!(
            c0 as f64 > 2.5 * (n as f64 / specs as f64),
            "head rank drew {c0} of {n}"
        );
        assert!(c0 > 4 * c_last, "tail rank {c_last} vs head {c0}");
        // skew 0 degenerates to a uniform draw
        let flat = spec_mix_indices(SpecMix::Zipf { skew: 0.0 }, specs, n, 11);
        for i in 0..specs {
            let c = count(&flat, i) as f64;
            assert!((c - n as f64 / specs as f64).abs() < n as f64 * 0.02);
        }
    }

    #[test]
    fn spec_mix_parse_round_trips() {
        assert_eq!(SpecMix::parse("uniform").unwrap(), SpecMix::Uniform);
        assert_eq!(
            SpecMix::parse("zipf:1.1").unwrap(),
            SpecMix::Zipf { skew: 1.1 }
        );
        assert_eq!(
            SpecMix::parse("zipf:0").unwrap(),
            SpecMix::Zipf { skew: 0.0 }
        );
        for bad in ["nope", "zipf", "zipf:-1", "zipf:inf", "zipf:x", "uniform:3"] {
            assert!(SpecMix::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parse_round_trips_the_cli_spellings() {
        assert_eq!(Arrival::parse("closed").unwrap(), Arrival::Closed);
        assert_eq!(
            Arrival::parse("uniform:2500").unwrap(),
            Arrival::Uniform { per_sec: 2500.0 }
        );
        assert_eq!(
            Arrival::parse("poisson:1e5").unwrap(),
            Arrival::Poisson { per_sec: 1e5 }
        );
        assert_eq!(
            Arrival::parse("bursty:1000:64").unwrap(),
            Arrival::Bursty {
                per_sec: 1000.0,
                burst: 64
            }
        );
        for bad in [
            "nope",
            "uniform",
            "uniform:-3",
            "uniform:inf",
            "poisson:x",
            "bursty:100",
            "bursty:100:0",
            "closed:extra",
        ] {
            assert!(Arrival::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}

//! Open-loop arrival schedules.
//!
//! Every session sends one batch per interval; the interval follows from
//! the phase's total offered rate. Session `s` owns slot `s` of the first
//! interval and starts at a seed-drawn point inside the middle half of its
//! slot, so arrivals are spread over time instead of landing on the server
//! together. Slots follow session order, so where the expensive sessions
//! sit in the cycle is part of the workload, not of the seed; the seed only
//! moves each start within its slot. The same seed always yields the same
//! schedule.

use std::time::Duration;

use rand::Rng;
use snn_core::rng::{derive_seed, seeded_rng};

/// One scheduled request: when it is due (relative to the phase start) and
/// which session sends it. `k` counts the session's requests in the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    pub at: Duration,
    pub session: usize,
    pub k: u32,
}

/// The arrival schedule of one phase, sorted by due time.
///
/// `rate_sps` is the total offered rate in samples per second across
/// `sessions` sessions sending `batch` samples per request; the phase keeps
/// sending for `duration`. `phase` separates the draws of different phases
/// from one seed.
pub fn phase_schedule(
    seed: u64,
    phase: u64,
    sessions: usize,
    rate_sps: f64,
    batch: usize,
    duration: Duration,
) -> Vec<Due> {
    assert!(sessions > 0 && batch > 0, "empty schedule shape");
    assert!(rate_sps > 0.0, "offered rate must be positive");
    let interval = sessions as f64 * batch as f64 / rate_sps;
    let mut rng = seeded_rng(derive_seed(seed, 0x5CED_0000 + phase));
    let mut out = Vec::new();
    for session in 0..sessions {
        let within: f64 = rng.gen_range(0.25..0.75);
        let offset = interval * (session as f64 + within) / sessions as f64;
        let mut k = 0u32;
        loop {
            let at = offset + k as f64 * interval;
            if at >= duration.as_secs_f64() {
                break;
            }
            out.push(Due {
                at: Duration::from_secs_f64(at),
                session,
                k,
            });
            k += 1;
        }
    }
    out.sort_by(|a, b| a.at.cmp(&b.at).then(a.session.cmp(&b.session)));
    out
}

/// The phase length that gives at least `min_requests` requests at
/// `rate_sps`, or `nominal` if that is longer.
pub fn phase_duration(
    nominal: Duration,
    min_requests: usize,
    rate_sps: f64,
    batch: usize,
) -> Duration {
    let needed = (min_requests + 1) as f64 * batch as f64 / rate_sps;
    nominal.max(Duration::from_secs_f64(needed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Duration = Duration::from_secs(1);

    #[test]
    fn deterministic_for_a_seed() {
        let a = phase_schedule(7, 0, 16, 200.0, 8, 3 * SEC);
        let b = phase_schedule(7, 0, 16, 200.0, 8, 3 * SEC);
        assert_eq!(a, b);
        let c = phase_schedule(8, 0, 16, 200.0, 8, 3 * SEC);
        assert_ne!(a, c, "another seed moves the starts");
        let d = phase_schedule(7, 1, 16, 200.0, 8, 3 * SEC);
        assert_ne!(a, d, "another phase moves the starts");
    }

    #[test]
    fn offered_rate_is_kept() {
        let s = phase_schedule(1, 0, 16, 200.0, 8, 4 * SEC);
        // 200 samples/s in batches of 8 for 4 s is 100 requests.
        assert_eq!(s.len(), 100);
        assert!(
            s.windows(2).all(|w| w[0].at <= w[1].at),
            "sorted by due time"
        );
        for session in 0..16 {
            let mine: Vec<&Due> = s.iter().filter(|d| d.session == session).collect();
            // Every session sends at the same fixed interval (16·8/200 s).
            for w in mine.windows(2) {
                let gap = (w[1].at - w[0].at).as_secs_f64();
                assert!((gap - 0.64).abs() < 1e-9, "gap {gap}");
                assert_eq!(w[1].k, w[0].k + 1);
            }
        }
    }

    #[test]
    fn sessions_are_staggered_one_per_slot() {
        for seed in 0..20 {
            let s = phase_schedule(seed, 0, 16, 200.0, 8, 4 * SEC);
            let slot = 0.64 / 16.0;
            for session in 0..16 {
                let first = s
                    .iter()
                    .find(|d| d.session == session)
                    .unwrap()
                    .at
                    .as_secs_f64();
                // Inside the middle half of the session's own slot.
                let lo = slot * (session as f64 + 0.25);
                let hi = slot * (session as f64 + 0.75);
                assert!(
                    first >= lo - 1e-12 && first < hi,
                    "seed {seed} session {session}: {first}"
                );
            }
        }
    }

    #[test]
    fn duration_grows_to_fit_the_sample_floor() {
        let d = phase_duration(SEC, 100, 200.0, 8);
        let n = phase_schedule(5, 0, 16, 200.0, 8, d).len();
        assert!(n >= 100, "{n} requests");
        assert_eq!(phase_duration(60 * SEC, 100, 200.0, 8), 60 * SEC);
    }
}

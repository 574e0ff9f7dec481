//! Seeded open-loop arrival schedules.
//!
//! A homogeneous Poisson process conditioned on `N` arrivals in
//! `[0, T)` places them as `N` sorted independent uniforms on that
//! span.  The benchmark fixes `N = rate · T`, so every run offers the
//! same load while the arrival pattern (bursts and gaps) varies with
//! the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Arrival offsets in nanoseconds from the start of the span, ascending.
pub fn poisson_arrivals(seed: u64, rate_per_s: f64, span: Duration) -> Vec<u64> {
    let span_ns = span.as_nanos() as u64;
    let n = (rate_per_s * span.as_secs_f64()).round() as usize;
    if span_ns == 0 {
        return vec![0; n];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at: Vec<u64> = (0..n).map(|_| rng.gen_range(0..span_ns)).collect();
    at.sort_unstable();
    at
}

/// Cuts `arrivals` over `span` into `parts` equal consecutive spans,
/// each with its offsets from its own start.
pub fn split(arrivals: &[u64], span: Duration, parts: usize) -> Vec<Vec<u64>> {
    let (span_ns, n) = (span.as_nanos(), parts as u128);
    let mut out = vec![Vec::new(); parts];
    for &t in arrivals {
        let k = (u128::from(t) * n / span_ns) as usize;
        out[k].push(t - (k as u128 * span_ns / n) as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_keeps_every_arrival_in_its_part() {
        let span = Duration::from_secs(10);
        let a = poisson_arrivals(5, 30.0, span);
        let parts = split(&a, span, 4);
        let part_ns = span.as_nanos() as u64 / 4;
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), a.len());
        let rejoined: Vec<u64> = (0..4)
            .flat_map(|k| parts[k].iter().map(move |&t| t + k as u64 * part_ns))
            .collect();
        assert_eq!(rejoined, a);
        assert!(parts.iter().flatten().all(|&t| t < part_ns));
    }

    #[test]
    fn same_seed_same_schedule() {
        let span = Duration::from_secs(20);
        let a = poisson_arrivals(7, 55.0, span);
        assert_eq!(a, poisson_arrivals(7, 55.0, span));
        assert_ne!(a, poisson_arrivals(8, 55.0, span));
    }

    #[test]
    fn schedule_has_the_offered_count_in_order_within_the_span() {
        let span = Duration::from_secs(10);
        let a = poisson_arrivals(3, 40.0, span);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < span.as_nanos() as u64));
        // Roughly uniform: each half of the span holds about half.
        let first_half = a.iter().filter(|&&t| t < 5_000_000_000).count();
        assert!((150..250).contains(&first_half), "{first_half}");
    }
}

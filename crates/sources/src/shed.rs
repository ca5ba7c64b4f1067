//! Token-bucket admission shedding: a [`SlotSource`] decorator that
//! drops (rather than delays) traffic in excess of a `(σ, ρ)`
//! [`LeakyBucket`], modelling the `admitd`-style edge policer the
//! overload experiments place in front of an attack flow.
//!
//! The paper's Section-3 marked-traffic reading admits excess traffic
//! and merely *marks* it; a shedding policer is the harsher boundary
//! device: marked traffic never enters the GPS server at all, so the
//! legitimate sessions' Theorem-10 certificates keep holding no matter
//! how hard the wrapped source misbehaves — the admitted stream
//! conforms to `A(s,t] <= σ + ρ(t-s)` by construction.

use crate::token_bucket::LeakyBucket;
use crate::SlotSource;
use gps_stats::rng::Xoshiro256pp;

/// Wraps a source with a shedding `(σ, ρ)` token-bucket policer: each
/// slot the inner amount is offered to the bucket and only the
/// conforming portion passes; the excess is shed (counted, not queued).
///
/// # Examples
///
/// ```
/// use gps_sources::{CbrSource, SlotSource, TokenShedSource};
/// // A CBR source at 1.0 behind a rate-0.25 policer sheds 75%.
/// let mut src = TokenShedSource::new(CbrSource::new(1.0), 0.0, 0.25);
/// let mut rng = gps_stats::rng::Xoshiro256pp::seed_from_u64(1);
/// for _ in 0..100 {
///     src.next_slot(&mut rng);
/// }
/// assert!((src.shed() / src.offered() - 0.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenShedSource<S> {
    inner: S,
    bucket: LeakyBucket,
    offered: f64,
    shed: f64,
}

impl<S: SlotSource> TokenShedSource<S> {
    /// Polices `inner` with a shedding `(sigma, rho)` bucket.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or `rho < 0` (see [`LeakyBucket::new`]).
    pub fn new(inner: S, sigma: f64, rho: f64) -> Self {
        TokenShedSource {
            inner,
            bucket: LeakyBucket::new(sigma, rho),
            offered: 0.0,
            shed: 0.0,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Burst parameter `σ` of the policer.
    pub fn sigma(&self) -> f64 {
        self.bucket.sigma()
    }

    /// Token rate `ρ` of the policer (the admitted long-run ceiling).
    pub fn rho(&self) -> f64 {
        self.bucket.rho()
    }

    /// Total traffic the inner source offered since the last reset.
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Total traffic shed since the last reset.
    pub fn shed(&self) -> f64 {
        self.shed
    }
}

impl<S: SlotSource> SlotSource for TokenShedSource<S> {
    fn next_slot(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        let raw = self.inner.next_slot(rng);
        let admitted = self.bucket.offer(raw);
        self.offered += raw;
        self.shed += raw - admitted;
        admitted
    }

    /// Long-run admitted mean: the inner mean capped by the token rate.
    /// (Exact when the inner mean is below `ρ` or far above it; the
    /// policer cannot admit faster than it earns tokens, so `ρ` is a
    /// hard ceiling either way.)
    fn mean_rate(&self) -> f64 {
        self.inner.mean_rate().min(self.rho())
    }

    /// Peak admitted amount in one slot: tokens can never exceed
    /// `σ + ρ`, so that caps whatever the inner source can emit.
    fn peak_rate(&self) -> Option<f64> {
        let cap = self.sigma() + self.rho();
        Some(match self.inner.peak_rate() {
            Some(p) => p.min(cap),
            None => cap,
        })
    }

    fn reset(&mut self, rng: &mut Xoshiro256pp) {
        self.inner.reset(rng);
        self.bucket = LeakyBucket::new(self.bucket.sigma(), self.bucket.rho());
        self.offered = 0.0;
        self.shed = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CbrSource, OnOffSource};

    #[test]
    fn conforming_traffic_passes_untouched() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut src = TokenShedSource::new(CbrSource::new(0.2), 1.0, 0.5);
        for _ in 0..50 {
            assert_eq!(src.next_slot(&mut rng), 0.2);
        }
        assert_eq!(src.shed(), 0.0);
    }

    #[test]
    fn excess_is_shed_and_output_conforms() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let (sigma, rho) = (2.0, 0.1);
        let mut src = TokenShedSource::new(OnOffSource::new(0.4, 0.2, 1.0), sigma, rho);
        let admitted: Vec<f64> = (0..2000).map(|_| src.next_slot(&mut rng)).collect();
        assert!(src.shed() > 0.0, "a bursty source above rho must shed");
        assert!(
            (src.offered() - (src.shed() + admitted.iter().sum::<f64>())).abs() < 1e-9,
            "offered splits exactly into admitted + shed"
        );
        assert!(
            LeakyBucket::conforms(sigma, rho, &admitted),
            "admitted stream violates its own (sigma, rho) envelope"
        );
    }

    #[test]
    fn reset_clears_bucket_and_counters() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut src = TokenShedSource::new(CbrSource::new(1.0), 0.0, 0.25);
        for _ in 0..10 {
            src.next_slot(&mut rng);
        }
        assert!(src.shed() > 0.0);
        src.reset(&mut rng);
        assert_eq!((src.offered(), src.shed()), (0.0, 0.0));
    }

    #[test]
    fn rates_report_the_policed_stream() {
        let src = TokenShedSource::new(OnOffSource::new(0.4, 0.2, 1.0), 2.0, 0.1);
        assert!((src.mean_rate() - 0.1).abs() < 1e-12, "mean capped at rho");
        assert_eq!(src.peak_rate(), Some(1.0), "peak below sigma+rho is kept");
        let wide = TokenShedSource::new(CbrSource::new(10.0), 1.0, 0.5);
        assert_eq!(wide.peak_rate(), Some(1.5), "peak capped at sigma+rho");
    }
}

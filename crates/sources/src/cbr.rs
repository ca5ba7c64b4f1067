//! Constant-bit-rate (CBR) fluid source.
//!
//! Emits exactly `rate` per slot. Trivially `(ρ, Λ, α)`-E.B.B. for every
//! `ρ >= rate` and any `(Λ, α)` — the excess over the envelope is never
//! positive. CBR sessions model the paper's "peak-rate allocated" class-1
//! traffic in the Section 7 discussion of class-based GPS.

use crate::SlotSource;
use gps_ebb::EbbProcess;
use gps_stats::rng::Xoshiro256pp;

/// Deterministic constant-rate source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbrSource {
    rate: f64,
}

impl CbrSource {
    /// Creates a CBR source emitting `rate >= 0` per slot.
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0, "rate must be nonnegative");
        Self { rate }
    }

    /// The constant rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// An E.B.B. characterization: envelope rate `rho >= rate` with the
    /// given decay `alpha`. The prefactor is the smallest value accepted by
    /// the E.B.B. definition at `x = 0` given zero actual excess — any
    /// positive value works; we use 1.
    pub fn ebb(&self, rho: f64, alpha: f64) -> EbbProcess {
        assert!(rho >= self.rate, "envelope rate below the CBR rate");
        EbbProcess::new(rho, 1.0, alpha)
    }
}

impl SlotSource for CbrSource {
    fn next_slot(&mut self, _rng: &mut Xoshiro256pp) -> f64 {
        self.rate
    }

    fn mean_rate(&self) -> f64 {
        self.rate
    }

    fn peak_rate(&self) -> Option<f64> {
        Some(self.rate)
    }

    fn reset(&mut self, _rng: &mut Xoshiro256pp) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_emission() {
        let mut s = CbrSource::new(0.25);
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(s.next_slot(&mut rng), 0.25);
        }
        assert_eq!(s.mean_rate(), 0.25);
        assert_eq!(s.peak_rate(), Some(0.25));
    }

    #[test]
    fn ebb_envelope_never_exceeded() {
        let s = CbrSource::new(0.25);
        let e = s.ebb(0.25, 3.0);
        // Actual excess is always 0 <= envelope: bound trivially holds.
        assert_eq!(e.rho, 0.25);
        assert_eq!(e.excess_tail(0.0), 1.0);
        assert!(e.excess_tail(0.1) < 1.0);
    }

    #[test]
    #[should_panic(expected = "envelope rate below the CBR rate")]
    fn ebb_rejects_undersized_envelope() {
        let _ = CbrSource::new(0.5).ebb(0.4, 1.0);
    }
}

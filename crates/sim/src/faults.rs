//! Fault injection for traffic sources.
//!
//! In the spirit of smoltcp's example fault options (`--drop-chance`,
//! rate limits, …): wrap any [`SlotSource`] and perturb its output to
//! study what happens to the bounds when the E.B.B. contract is bent —
//! dropped slots (lighter than declared), duplicated bursts and rate
//! scaling (heavier than declared). The experiments use this to show
//! which violations the analytical bounds survive and which they do not.

use gps_obs::metrics::{labeled, Counter, Registry};
use gps_sources::SlotSource;
use gps_stats::rng::{RngExt, Xoshiro256pp};

/// Fault configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a slot's traffic is dropped entirely.
    pub drop_chance: f64,
    /// Probability that a slot's traffic is duplicated (burst injection).
    pub duplicate_chance: f64,
    /// Multiplier applied to every slot (1.0 = none).
    pub rate_scale: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            drop_chance: 0.0,
            duplicate_chance: 0.0,
            rate_scale: 1.0,
        }
    }
}

/// A [`FaultConfig`] field outside its documented domain, carrying the
/// offending value so campaign configs can be rejected without panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// `drop_chance` outside `[0, 1]` (or NaN).
    DropChance(f64),
    /// `duplicate_chance` outside `[0, 1]` (or NaN).
    DuplicateChance(f64),
    /// `rate_scale` negative or non-finite.
    RateScale(f64),
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::DropChance(v) => {
                write!(f, "drop_chance = {v} must be a probability in [0, 1]")
            }
            FaultConfigError::DuplicateChance(v) => {
                write!(f, "duplicate_chance = {v} must be a probability in [0, 1]")
            }
            FaultConfigError::RateScale(v) => {
                write!(f, "rate_scale = {v} must be finite and nonnegative")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl FaultConfig {
    /// Checks every field against its domain, reporting the first
    /// violation as a typed [`FaultConfigError`].
    pub fn try_validate(&self) -> Result<(), FaultConfigError> {
        if !(0.0..=1.0).contains(&self.drop_chance) {
            return Err(FaultConfigError::DropChance(self.drop_chance));
        }
        if !(0.0..=1.0).contains(&self.duplicate_chance) {
            return Err(FaultConfigError::DuplicateChance(self.duplicate_chance));
        }
        if !(self.rate_scale >= 0.0 && self.rate_scale.is_finite()) {
            return Err(FaultConfigError::RateScale(self.rate_scale));
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// Injected-fault tallies for one source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Slots generated.
    pub slots: u64,
    /// Slots whose traffic was dropped.
    pub drops: u64,
    /// Slots whose traffic was duplicated.
    pub duplicates: u64,
    /// Slots whose traffic was rate-rescaled (`rate_scale != 1`).
    pub rescales: u64,
}

/// Metrics-registry counter handles mirroring [`FaultCounts`].
#[derive(Debug, Clone)]
struct FaultMetrics {
    drops: Counter,
    duplicates: Counter,
    rescales: Counter,
    slots: Counter,
}

/// A [`SlotSource`] wrapper injecting faults.
///
/// Every injection is counted ([`FaultySource::counts`]); with
/// [`FaultySource::with_metrics`] the tallies also stream into a
/// [`Registry`] as `sim.faults.*{session=<i>}` counters, so a campaign's
/// metrics snapshot records exactly how much the E.B.B. contract was bent.
#[derive(Debug, Clone)]
pub struct FaultySource<S> {
    inner: S,
    config: FaultConfig,
    counts: FaultCounts,
    metrics: Option<FaultMetrics>,
}

impl<S: SlotSource> FaultySource<S> {
    /// Wraps `inner` with the given fault configuration.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        config.validate();
        gps_obs::debug(
            "sim.faults",
            "fault_config",
            &[
                ("drop_chance", config.drop_chance.into()),
                ("duplicate_chance", config.duplicate_chance.into()),
                ("rate_scale", config.rate_scale.into()),
            ],
        );
        Self {
            inner,
            config,
            counts: FaultCounts::default(),
            metrics: None,
        }
    }

    /// Wraps `inner` and additionally mirrors fault tallies into
    /// `registry` under `sim.faults.{slots,drops,duplicates,rescales}`
    /// labeled with `session`.
    pub fn with_metrics(
        inner: S,
        config: FaultConfig,
        registry: &Registry,
        session: usize,
    ) -> Self {
        let mut s = Self::new(inner, config);
        let sess = session.to_string();
        let name = |what: &str| labeled(&format!("sim.faults.{what}"), &[("session", &sess)]);
        s.metrics = Some(FaultMetrics {
            drops: registry.counter(&name("drops")),
            duplicates: registry.counter(&name("duplicates")),
            rescales: registry.counter(&name("rescales")),
            slots: registry.counter(&name("slots")),
        });
        s
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Fault tallies since construction (cloning a source clones — and
    /// thereafter splits — its tallies).
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn coin(rng: &mut Xoshiro256pp, p: f64) -> bool {
        p > 0.0 && rng.bernoulli(p)
    }
}

impl<S: SlotSource> SlotSource for FaultySource<S> {
    fn next_slot(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        let mut x = self.inner.next_slot(rng) * self.config.rate_scale;
        self.counts.slots += 1;
        if self.config.rate_scale != 1.0 {
            self.counts.rescales += 1;
        }
        let mut dropped = false;
        let mut duplicated = false;
        if Self::coin(rng, self.config.drop_chance) {
            x = 0.0;
            dropped = true;
            self.counts.drops += 1;
        } else if Self::coin(rng, self.config.duplicate_chance) {
            x *= 2.0;
            duplicated = true;
            self.counts.duplicates += 1;
        }
        if let Some(m) = &self.metrics {
            m.slots.inc();
            if self.config.rate_scale != 1.0 {
                m.rescales.inc();
            }
            if dropped {
                m.drops.inc();
            }
            if duplicated {
                m.duplicates.inc();
            }
        }
        x
    }

    fn mean_rate(&self) -> f64 {
        // Expected multiplier: scale · (1-drop) · (1 + dup) — the
        // duplicate branch only triggers when not dropped.
        self.inner.mean_rate()
            * self.config.rate_scale
            * (1.0 - self.config.drop_chance)
            * (1.0 + self.config.duplicate_chance)
    }

    fn peak_rate(&self) -> Option<f64> {
        self.inner
            .peak_rate()
            .map(|p| p * self.config.rate_scale * 2.0)
    }

    fn reset(&mut self, rng: &mut Xoshiro256pp) {
        self.inner.reset(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_sources::CbrSource;

    #[test]
    fn no_faults_is_identity() {
        let mut f = FaultySource::new(CbrSource::new(0.5), FaultConfig::default());
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(f.next_slot(&mut rng), 0.5);
        }
    }

    #[test]
    fn drop_chance_thins_traffic() {
        let mut f = FaultySource::new(
            CbrSource::new(1.0),
            FaultConfig {
                drop_chance: 0.3,
                ..Default::default()
            },
        );
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| f.next_slot(&mut rng)).sum();
        let frac = total / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "kept fraction {frac}");
        assert!((f.mean_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn duplicate_adds_bursts() {
        let mut f = FaultySource::new(
            CbrSource::new(1.0),
            FaultConfig {
                duplicate_chance: 0.25,
                ..Default::default()
            },
        );
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| f.next_slot(&mut rng)).sum();
        assert!((total / n as f64 - 1.25).abs() < 0.01);
        assert_eq!(f.peak_rate(), Some(2.0));
    }

    #[test]
    fn rate_scale() {
        let mut f = FaultySource::new(
            CbrSource::new(0.4),
            FaultConfig {
                rate_scale: 1.5,
                ..Default::default()
            },
        );
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        assert!((f.next_slot(&mut rng) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn counts_match_registry_on_seeded_run() {
        let registry = Registry::new();
        let mut f = FaultySource::with_metrics(
            CbrSource::new(1.0),
            FaultConfig {
                drop_chance: 0.2,
                duplicate_chance: 0.1,
                rate_scale: 1.5,
            },
            &registry,
            3,
        );
        let mut rng = Xoshiro256pp::seed_from_u64(0xFA17);
        let n = 10_000u64;
        for _ in 0..n {
            f.next_slot(&mut rng);
        }
        let c = f.counts();
        assert_eq!(c.slots, n);
        assert_eq!(c.rescales, n);
        assert!(c.drops > 0 && c.duplicates > 0);
        // Registry mirrors the internal tallies exactly.
        let get = |what: &str| {
            registry
                .counter(&labeled(&format!("sim.faults.{what}"), &[("session", "3")]))
                .get()
        };
        assert_eq!(get("slots"), c.slots);
        assert_eq!(get("drops"), c.drops);
        assert_eq!(get("duplicates"), c.duplicates);
        assert_eq!(get("rescales"), c.rescales);
        // And the same seed reproduces the same tallies.
        let mut f2 = FaultySource::new(
            CbrSource::new(1.0),
            FaultConfig {
                drop_chance: 0.2,
                duplicate_chance: 0.1,
                rate_scale: 1.5,
            },
        );
        let mut rng2 = Xoshiro256pp::seed_from_u64(0xFA17);
        for _ in 0..n {
            f2.next_slot(&mut rng2);
        }
        assert_eq!(f2.counts(), c);
    }

    #[test]
    fn try_validate_types_each_field() {
        assert_eq!(FaultConfig::default().try_validate(), Ok(()));
        let bad_drop = FaultConfig {
            drop_chance: 1.5,
            ..Default::default()
        };
        assert_eq!(
            bad_drop.try_validate(),
            Err(FaultConfigError::DropChance(1.5))
        );
        let bad_dup = FaultConfig {
            duplicate_chance: -0.1,
            ..Default::default()
        };
        assert_eq!(
            bad_dup.try_validate(),
            Err(FaultConfigError::DuplicateChance(-0.1))
        );
        let bad_scale = FaultConfig {
            rate_scale: f64::INFINITY,
            ..Default::default()
        };
        assert_eq!(
            bad_scale.try_validate(),
            Err(FaultConfigError::RateScale(f64::INFINITY))
        );
        let nan_drop = FaultConfig {
            drop_chance: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(
            nan_drop.try_validate(),
            Err(FaultConfigError::DropChance(_))
        ));
        assert!(bad_drop
            .try_validate()
            .unwrap_err()
            .to_string()
            .contains("drop_chance"));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probability() {
        let _ = FaultySource::new(
            CbrSource::new(1.0),
            FaultConfig {
                drop_chance: 1.5,
                ..Default::default()
            },
        );
    }
}

//! In-tree random-number substrate: generator, distributions, and
//! deterministic stream derivation.
//!
//! This workspace builds **fully offline** — no crates.io access — so the
//! randomness machinery lives here instead of in `rand`. Three layers:
//!
//! 1. [`Xoshiro256pp`] — the xoshiro256++ generator (Blackman & Vigna),
//!    seeded from a single `u64` through a SplitMix64 stream (the same
//!    construction `rand` uses for `seed_from_u64`). 256 bits of state,
//!    period 2²⁵⁶−1, passes BigCrush; more than adequate for Monte-Carlo
//!    queueing simulation.
//! 2. [`RngCore`] / [`RngExt`] — the object-safe generator interface,
//!    plus an extension trait with the distributions this codebase
//!    actually samples: uniform `f64` and ranges, Bernoulli, geometric,
//!    exponential, and Poisson.
//! 3. [`SeedSequence`] — reproducible child-stream derivation. Every
//!    stochastic component in an experiment (each traffic source, each
//!    replication, each fault injector) must get an *independent* and
//!    *reproducible* stream, so that (a) experiments are exactly
//!    replayable from a single master seed, and (b) adding a source to a
//!    scenario does not perturb the streams of the others. Child seeds
//!    derive from `(master_seed, label, index)` with SplitMix64
//!    finalization.

/// The object-safe core generator interface.
///
/// Mirrors the shape of `rand::RngCore`. Only [`RngCore::next_u64`] is
/// required; everything else derives from it. Traffic sources (slot
/// sources and the CTMC fluid source) take the concrete [`Xoshiro256pp`]
/// instead, so the generator inlines into the simulation loop.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits (upper half of a `u64` —
    /// xoshiro's low bits are its weakest).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with uniformly distributed bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// The xoshiro256++ generator.
///
/// Reference: D. Blackman and S. Vigna, "Scrambled linear pseudorandom
/// number generators" (2019). The `++` scrambler (rotl(s0+s3, 23) + s0)
/// is the recommended all-purpose variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from one `u64` via a SplitMix64
    /// stream — the standard small-seed expansion, guaranteeing a
    /// well-mixed, never-all-zero state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(sm)
        };
        let s = [next(), next(), next(), next()];
        // The all-zero state is the one fixed point of the linear engine;
        // a SplitMix64 stream cannot realistically produce it, but guard
        // anyway so the type never constructs a degenerate generator.
        if s == [0, 0, 0, 0] {
            return Self {
                s: [0x9E37_79B9_7F4A_7C15, 1, 2, 3],
            };
        }
        Self { s }
    }

    /// The 2¹²⁸-step jump, for partitioning one stream into
    /// non-overlapping substreams. ([`SeedSequence`] is the preferred way
    /// to get independent streams; this exists for completeness and for
    /// cross-checking against the reference implementation.)
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180ec6d33cfd0aba,
            0xd5a61266f0c9392c,
            0xa9582618e03fc9aa,
            0x39abdc4529b1661c,
        ];
        let mut acc = [0u64; 4];
        for word in JUMP {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    for (a, s) in acc.iter_mut().zip(&self.s) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Distribution helpers over any [`RngCore`] (including trait objects).
///
/// Floating-point uniforms use the top 53 bits, the standard
/// `(x >> 11) / 2⁵³` construction.
pub trait RngExt: RngCore {
    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `(0, 1]` — safe to feed to `ln`.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` via the fixed-point multiply method
    /// (bias < 2⁻⁶⁴·n — negligible for any simulation-scale `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to [0, 1]).
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponential with the given `rate` (mean `1/rate`), by inversion.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    #[inline]
    fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        -self.next_f64_open().ln() / rate
    }

    /// Geometric trial count: the number of Bernoulli(`p`) trials up to
    /// and including the first success, so `k >= 1` with
    /// `P(k) = (1-p)^{k-1} p` and mean `1/p`. Computed by inversion.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0,1]");
        if p >= 1.0 {
            return 1;
        }
        let u = self.next_f64_open();
        // ceil(ln u / ln(1-p)) clamped to >= 1.
        let k = (u.ln() / (1.0 - p).ln()).ceil();
        if k < 1.0 {
            1
        } else {
            k as u64
        }
    }

    /// Poisson count with mean `lambda`, by Knuth's product method —
    /// O(λ) per draw, exact, and entirely adequate for the modest per-slot
    /// intensities queueing experiments use. For large `λ` the loop runs
    /// in log space to avoid underflow of `e^{-λ}`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 0` or is non-finite.
    fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "poisson mean must be finite and nonnegative"
        );
        if lambda == 0.0 {
            return 0;
        }
        // Sum of Exp(1) inter-arrivals until they exceed λ — numerically
        // the log-space twin of Knuth's product form, stable for any λ.
        let mut acc = 0.0;
        let mut k = 0u64;
        loop {
            acc += -self.next_f64_open().ln();
            if acc >= lambda {
                return k;
            }
            k += 1;
            assert!(k < 100_000_000, "poisson sampling runaway");
        }
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation. Feeding
/// it the values `seed + γ, seed + 2γ, …` (γ the golden-ratio increment)
/// reproduces the SplitMix64 stream.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the SplitMix64 stream seeded at `z`: advance by the
/// golden-ratio increment, then finalize. `splitmix64(0)` equals the
/// first output of the reference SplitMix64 generator seeded with 0.
fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Derives reproducible child RNGs from a master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the 64-bit child seed for `(label, index)`.
    ///
    /// `label` namespaces component kinds ("source", "fault", ...); `index`
    /// distinguishes instances. The mapping is stationary: the same triple
    /// always yields the same seed.
    pub(crate) fn child_seed(&self, label: &str, index: u64) -> u64 {
        let mut h = self.master ^ 0x51_7C_C1_B7_27_22_0A_95;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ b as u64);
        }
        splitmix64(h ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives a ready-to-use RNG for `(label, index)`.
    pub fn rng(&self, label: &str, index: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(self.child_seed(label, index))
    }

    /// A sub-sequence rooted at the child seed — lets a component derive its
    /// own internal streams without colliding with siblings.
    pub(crate) fn subsequence(&self, label: &str, index: u64) -> SeedSequence {
        SeedSequence::new(self.child_seed(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_stream() {
        // Reference SplitMix64 seeded with 0: the first three outputs.
        // (Steele, Lea & Flood; same vectors as the xoshiro site's
        // seeding helper.)
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        let s1 = 0x9E37_79B9_7F4A_7C15u64;
        assert_eq!(splitmix64(s1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(s1.wrapping_mul(2)), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic() {
        let s = SeedSequence::new(42);
        assert_eq!(s.child_seed("source", 3), s.child_seed("source", 3));
        let mut a = s.rng("source", 3);
        let mut b = s.rng("source", 3);
        let xa: [u64; 4] = [a.next_u64(), a.next_u64(), a.next_u64(), a.next_u64()];
        let xb: [u64; 4] = [b.next_u64(), b.next_u64(), b.next_u64(), b.next_u64()];
        assert_eq!(xa, xb);
    }

    #[test]
    fn distinct_labels_and_indices() {
        let s = SeedSequence::new(42);
        let a = s.child_seed("source", 0);
        let b = s.child_seed("source", 1);
        let c = s.child_seed("fault", 0);
        let d = SeedSequence::new(43).child_seed("source", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(b, c);
    }

    #[test]
    fn subsequence_namespacing() {
        let s = SeedSequence::new(7);
        let sub = s.subsequence("replication", 2);
        // A subsequence child differs from a same-labeled direct child.
        assert_ne!(sub.child_seed("source", 0), s.child_seed("source", 0));
        // And is itself deterministic.
        assert_eq!(
            sub.child_seed("source", 0),
            s.subsequence("replication", 2).child_seed("source", 0)
        );
    }

    #[test]
    fn streams_look_independent() {
        // Crude check: correlation of two derived uniform streams is small.
        let s = SeedSequence::new(1234);
        let mut a = s.rng("x", 0);
        let mut b = s.rng("x", 1);
        let n = 10_000;
        let (mut sa, mut sb, mut sab) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let xa = a.next_f64();
            let xb = b.next_f64();
            sa += xa;
            sb += xb;
            sab += xa * xb;
        }
        let corr_proxy = sab / n as f64 - (sa / n as f64) * (sb / n as f64);
        assert!(corr_proxy.abs() < 0.01, "cov proxy {corr_proxy}");
    }

    #[test]
    fn uniform_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 100_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            s1 += x;
            s2 += x * x;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.003, "var {var}");
    }

    #[test]
    fn bit_balance() {
        // Each of the 64 output bit positions should be ~50% ones.
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let n = 20_000;
        let mut counts = [0u32; 64];
        for _ in 0..n {
            let x = rng.next_u64();
            for (b, c) in counts.iter_mut().enumerate() {
                *c += ((x >> b) & 1) as u32;
            }
        }
        for (b, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.02, "bit {b}: {frac}");
        }
    }

    #[test]
    fn jump_diverges_from_original() {
        let mut a = Xoshiro256pp::seed_from_u64(5);
        let mut b = a.clone();
        b.jump();
        let overlap = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(overlap < 3, "jumped stream should not track the original");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        assert!((total / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn geometric_mean_and_support() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let n = 100_000;
        let mut total = 0u64;
        for _ in 0..n {
            let k = rng.geometric(0.25);
            assert!(k >= 1);
            total += k;
        }
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
        assert_eq!(rng.geometric(1.0), 1);
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let n = 100_000;
        let lambda = 3.7;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let k = rng.poisson(lambda) as f64;
            s1 += k;
            s2 += k * k;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
        assert!((var - lambda).abs() < 0.1, "var {var}");
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f64 / n as f64 - 0.3).abs() < 0.01);
    }

    #[test]
    fn below_is_in_range_and_uniformish() {
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 10_000.0 - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn works_as_trait_object() {
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        let dynrng: &mut dyn RngCore = &mut rng;
        let x = dynrng.next_f64();
        assert!((0.0..1.0).contains(&x));
    }
}

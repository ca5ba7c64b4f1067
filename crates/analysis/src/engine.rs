//! Online admission control with memoized bound certificates — the
//! "millions of users" service the paper's admissible region motivates
//! (ROADMAP item 2).
//!
//! The engine tracks a *mix*: how many sessions of each traffic class
//! (an [`EbbProcess`] plus a [`QosTarget`]) currently hold a slot on a
//! GPS server of rate `R`. Two certificate backends are pluggable behind
//! the same cached interface:
//!
//! * [`CertBackend::Rpps`] — Theorem 10/15: under RPPS weights
//!   (`φ_i = ρ_i`) every session of class `j` is guaranteed
//!   `g_j = ρ_j R / Σ_k n_k ρ_k`, and the mix is admissible when each
//!   active class's Lemma-5 delay bound at its `g_j` meets its `(d, ε)`
//!   target. Decisions re-examine every active class, but the per-class
//!   certificate is a pure function of `(class, g_j)` and is memoized.
//! * [`CertBackend::EffectiveBandwidth`] — the per-flow service-curve
//!   allocation in the spirit of Burchard–Liebeherr: each class has an
//!   *effective bandwidth* `g*_j`, the smallest dedicated rate whose
//!   Lemma-5 delay bound meets the class target, and a mix is admissible
//!   when `Σ_j n_j g*_j <= R` (GPS with weights `φ = g*` then guarantees
//!   every session at least its `g*`). `g*_j` is independent of the mix,
//!   so a warm cache answers admission in O(classes) lookups.
//!
//! # Determinism contract
//!
//! Caching and warm-starting are *pure accelerations*: the cache stores
//! exact `f64` results of pure functions keyed by source fingerprint and
//! rate bits, and warm-start hints only shorten searches whose outcome is
//! provably invariant (grid hill-descent on a convex θ-objective reaches
//! the same probe cell as the full scan; a monotone integer predicate has
//! a unique boundary). Cached, warm-started, and from-scratch decision
//! streams are therefore **bit-identical** — `Decision::line` renders
//! every float as raw bits precisely so tests can pin this.
//!
//! The cache is a bounded LRU keyed by FNV-1a fingerprints (the same
//! scheme `gps-sim`'s checkpoints use), with deterministic recency
//! stamps, so eviction order is a pure function of the request sequence.
//! Capacity comes from `GPS_ADMIT_CACHE_CAP` (default 65 536; 0 disables
//! caching entirely, which is what the cold benchmarks run).

use crate::admission::QosTarget;
use crate::theta_opt::try_optimize_tail_seeded;
use gps_ebb::mgf::optimal_xi;
use gps_ebb::{delta_mgf_log, DeltaTailBound, EbbProcess, TailBound, TimeModel};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Default cache capacity when `GPS_ADMIT_CACHE_CAP` is unset.
pub const DEFAULT_CACHE_CAP: usize = 65_536;

/// Prefactor-overflow guard for the θ-family (log scale), mirroring the
/// Chernoff combiner's ceiling: beyond this the family reports
/// infeasible rather than overflowing `exp`.
const MAX_LOG_PREFACTOR: f64 = 700.0;

// ---------------------------------------------------------------------
// Fingerprints (FNV-1a, the sim::supervise scheme)

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a fingerprint of a traffic class: source parameters, QoS target,
/// and time model, every float by its exact bit pattern.
pub fn fingerprint_class(source: EbbProcess, target: QosTarget, model: TimeModel) -> u64 {
    let mut s = String::from("class;");
    for (label, v) in [
        ("rho", source.rho),
        ("lambda", source.lambda),
        ("alpha", source.alpha),
        ("delay", target.delay),
        ("epsilon", target.epsilon),
    ] {
        s.push_str(label);
        s.push(':');
        s.push_str(&format!("{:016x};", v.to_bits()));
    }
    match model {
        TimeModel::Discrete => s.push_str("model:d;"),
        TimeModel::Continuous { xi } => s.push_str(&format!("model:c{:016x};", xi.to_bits())),
    }
    fnv1a(&s)
}

// ---------------------------------------------------------------------
// The memoization layer

/// What a cache entry holds: either a full delay certificate (with the
/// θ-probe cell that produced it, reusable as a warm-start hint) or a
/// class's effective bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CachedValue {
    Cert { bound: TailBound, seed: usize },
    GStar(f64),
}

/// Cache key: class fingerprint plus the exact bits of the argument the
/// memoized function was evaluated at (`g` for certificates, `R` for
/// effective bandwidths). The kind byte keeps the two key spaces apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct CertKey {
    class_fp: u64,
    arg_bits: u64,
    kind: u8,
}

const KIND_CERT: u8 = 0;
const KIND_GSTAR: u8 = 1;

/// Cumulative cache counters, mirrored to the metrics registry as
/// `admission.cache.{hits,misses,evictions}` by [`AdmissionEngine::publish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (includes every lookup when disabled).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

/// Bounded, seed-deterministic LRU: recency is a logical tick incremented
/// on every touch, the eviction victim is the unique minimum stamp, and
/// both are pure functions of the access sequence — no wall clock, no
/// hasher randomness observable (the stamp index is an ordered map).
#[derive(Debug, Clone, Default)]
struct BoundCache {
    map: HashMap<CertKey, (CachedValue, u64)>,
    by_stamp: BTreeMap<u64, CertKey>,
    cap: usize,
    tick: u64,
    stats: CacheStats,
}

impl BoundCache {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    fn get(&mut self, key: &CertKey) -> Option<CachedValue> {
        if self.cap == 0 {
            self.stats.misses += 1;
            return None;
        }
        match self.map.get_mut(key) {
            Some((value, stamp)) => {
                let v = *value;
                self.by_stamp.remove(stamp);
                self.tick += 1;
                *stamp = self.tick;
                self.by_stamp.insert(self.tick, *key);
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: CertKey, value: CachedValue) {
        if self.cap == 0 {
            return;
        }
        if let Some((_, stamp)) = self.map.remove(&key) {
            self.by_stamp.remove(&stamp);
        }
        while self.map.len() >= self.cap {
            // Deterministic victim: the least-recently-touched entry.
            let (&victim_stamp, &victim_key) = self.by_stamp.iter().next().expect("cap > 0");
            self.by_stamp.remove(&victim_stamp);
            self.map.remove(&victim_key);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        self.by_stamp.insert(self.tick, key);
    }

    fn contains(&self, key: &CertKey) -> bool {
        self.cap > 0 && self.map.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Reads `GPS_ADMIT_CACHE_CAP` (0 disables the cache); defaults to
/// [`DEFAULT_CACHE_CAP`].
pub fn cache_cap_from_env() -> usize {
    std::env::var("GPS_ADMIT_CACHE_CAP")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_CACHE_CAP)
}

// ---------------------------------------------------------------------
// Engine types

/// One traffic class: a named E.B.B. source with a statistical delay
/// target shared by all its sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Label used in metrics and the `/region` document.
    pub name: String,
    /// The per-session arrival envelope.
    pub source: EbbProcess,
    /// The per-session QoS target `(d, ε)`.
    pub target: QosTarget,
}

impl ClassSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, source: EbbProcess, target: QosTarget) -> Self {
        Self {
            name: name.into(),
            source,
            target,
        }
    }
}

/// Which admissibility test backs decisions; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertBackend {
    /// Theorem 10/15 under RPPS weights: per-mix guaranteed rates.
    Rpps,
    /// Per-class effective bandwidth `g*`: mix-independent weights.
    EffectiveBandwidth,
}

/// Construction-time validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// No classes were given.
    NoClasses,
    /// The server rate must be positive and finite.
    InvalidRate(f64),
    /// A class source needs `0 < ρ` (RPPS weights are the `ρ_i`).
    InvalidClassRho {
        /// Offending class index.
        class: usize,
    },
    /// Two classes hash to the same fingerprint (either a genuine
    /// duplicate spec or an FNV collision; both are rejected so cache
    /// keys stay unambiguous).
    DuplicateFingerprint {
        /// First of the colliding class indices.
        first: usize,
        /// Second of the colliding class indices.
        second: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoClasses => write!(f, "admission engine needs at least one class"),
            EngineError::InvalidRate(r) => write!(f, "server rate {r} must be positive finite"),
            EngineError::InvalidClassRho { class } => {
                write!(f, "class {class} has non-positive rho")
            }
            EngineError::DuplicateFingerprint { first, second } => {
                write!(f, "classes {first} and {second} share a fingerprint")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The two request kinds [`AdmissionEngine::admit_batch`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Ask to add one session of the class.
    Admit,
    /// Release one session of the class.
    Depart,
}

/// One batched request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Class index.
    pub class: usize,
    /// Admit or depart.
    pub kind: RequestKind,
}

/// The outcome of one admit/depart request.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Monotone per-engine sequence number.
    pub seq: u64,
    /// Class index the request named.
    pub class: usize,
    /// Request kind.
    pub kind: RequestKind,
    /// Admit granted / depart applied (a depart of an empty class is
    /// refused).
    pub accepted: bool,
    /// Aggregate load `Σ n_j ρ_j` after the decision.
    pub load: f64,
    /// Total sessions after the decision.
    pub sessions: u64,
    /// For granted admits: the class's memoized delay certificate
    /// (`Pr{D > d} <= Λ e^{-θ d}` as a [`TailBound`]).
    pub certificate: Option<TailBound>,
}

impl Decision {
    /// Canonical one-line rendering with every float as exact bits — the
    /// surface the byte-identity tests (cached vs uncached vs
    /// warm-started, across `GPS_PAR_THREADS`) compare.
    pub fn line(&self) -> String {
        let kind = match self.kind {
            RequestKind::Admit => "admit",
            RequestKind::Depart => "depart",
        };
        let cert = match &self.certificate {
            Some(c) => format!("{:016x}:{:016x}", c.prefactor.to_bits(), c.decay.to_bits()),
            None => "-".to_string(),
        };
        format!(
            "{},{},{},{},{:016x},{},{}",
            self.seq,
            self.class,
            kind,
            u8::from(self.accepted),
            self.load.to_bits(),
            self.sessions,
            cert
        )
    }
}

/// One `/region` row: where a class sits inside the admissible region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRow {
    /// Class index.
    pub class: usize,
    /// Class label.
    pub name: String,
    /// Sessions currently admitted.
    pub sessions: u64,
    /// How many more sessions of this class alone the mix could absorb.
    pub headroom: u64,
    /// `sessions / (sessions + headroom)` — 0 when both are 0.
    pub occupancy: f64,
}

/// Cumulative decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total admit/depart requests decided.
    pub decisions: u64,
    /// Admits granted.
    pub admitted: u64,
    /// Admits refused.
    pub rejected: u64,
    /// Departs applied.
    pub departed: u64,
}

// ---------------------------------------------------------------------
// The engine

/// The online admission-control engine. See the module docs for the
/// model and the determinism contract.
#[derive(Debug, Clone)]
pub struct AdmissionEngine {
    classes: Vec<ClassSpec>,
    fps: Vec<u64>,
    counts: Vec<u64>,
    rate: f64,
    model: TimeModel,
    backend: CertBackend,
    cache: BoundCache,
    /// Per-class θ-probe-cell hints; purely an acceleration (see module
    /// docs), cleared when warm-starting is disabled.
    theta_seeds: Vec<Option<usize>>,
    warm_start: bool,
    seq: u64,
    stats: EngineStats,
    /// Counter values already mirrored to a metrics registry, so
    /// [`publish`](Self::publish) can add monotone deltas.
    published: (CacheStats, EngineStats),
}

impl AdmissionEngine {
    /// Builds an engine with the cache capacity from
    /// [`cache_cap_from_env`].
    pub fn new(
        classes: Vec<ClassSpec>,
        rate: f64,
        model: TimeModel,
        backend: CertBackend,
    ) -> Result<Self, EngineError> {
        Self::with_cache_cap(classes, rate, model, backend, cache_cap_from_env())
    }

    /// Builds an engine with an explicit cache capacity (0 disables
    /// memoization — every certificate recomputes from scratch).
    pub fn with_cache_cap(
        classes: Vec<ClassSpec>,
        rate: f64,
        model: TimeModel,
        backend: CertBackend,
        cache_cap: usize,
    ) -> Result<Self, EngineError> {
        if classes.is_empty() {
            return Err(EngineError::NoClasses);
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(EngineError::InvalidRate(rate));
        }
        for (j, c) in classes.iter().enumerate() {
            if !(c.source.rho.is_finite() && c.source.rho > 0.0) {
                return Err(EngineError::InvalidClassRho { class: j });
            }
        }
        let fps: Vec<u64> = classes
            .iter()
            .map(|c| fingerprint_class(c.source, c.target, model))
            .collect();
        for i in 0..fps.len() {
            for k in i + 1..fps.len() {
                if fps[i] == fps[k] {
                    return Err(EngineError::DuplicateFingerprint {
                        first: i,
                        second: k,
                    });
                }
            }
        }
        let n = classes.len();
        Ok(Self {
            classes,
            fps,
            counts: vec![0; n],
            rate,
            model,
            backend,
            cache: BoundCache::new(cache_cap),
            theta_seeds: vec![None; n],
            warm_start: true,
            seq: 0,
            stats: EngineStats::default(),
            published: (CacheStats::default(), EngineStats::default()),
        })
    }

    /// Disables (or re-enables) warm-start hints; decisions are
    /// bit-identical either way, this only changes how much work a cache
    /// miss does.
    pub fn set_warm_start(&mut self, on: bool) {
        self.warm_start = on;
        if !on {
            self.theta_seeds.iter_mut().for_each(|s| *s = None);
        }
    }

    /// The configured server rate `R`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The traffic classes.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Class fingerprints (FNV-1a over source, target, and time model).
    pub fn fingerprints(&self) -> &[u64] {
        &self.fps
    }

    /// Current per-class session counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total admitted sessions.
    pub fn sessions(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Canonical aggregate load `Σ n_j ρ_j`, always recomputed in class
    /// index order so incremental and from-scratch engines agree bitwise.
    pub fn load(&self) -> f64 {
        Self::load_of(&self.classes, &self.counts)
    }

    fn load_of(classes: &[ClassSpec], counts: &[u64]) -> f64 {
        classes
            .iter()
            .zip(counts)
            .map(|(c, &n)| n as f64 * c.source.rho)
            .sum()
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Live cache entry count.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Decision counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Bulk-loads a session mix without admission checks — the trusted
    /// "restore from checkpoint" / benchmark-population path.
    ///
    /// # Panics
    ///
    /// Panics if the count vector length does not match the class list.
    pub fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(counts.len(), self.classes.len());
        self.counts.copy_from_slice(counts);
    }

    // -----------------------------------------------------------------
    // Certificates

    /// The closed-form Lemma-5 delay bound for one session of class `j`
    /// at dedicated rate `g` (discrete form, or continuous at the
    /// Remark-1 optimal `ξ*`). `None` when `g <= ρ_j`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(g > rho)` also rejects NaN
    fn closed_delay(&self, j: usize, g: f64) -> Option<TailBound> {
        let src = self.classes[j].source;
        if !(g > src.rho) {
            return None;
        }
        let dtb = DeltaTailBound::new(src, g);
        let backlog = match self.model {
            TimeModel::Discrete => dtb.discrete(),
            TimeModel::Continuous { .. } => dtb.continuous_optimal(),
        };
        Some(backlog.delay_from_backlog(g))
    }

    /// The θ-optimized Chernoff delay bound: minimizes
    /// `ln E e^{θδ} - θ g d` over `θ ∈ (0, α)` on the Lemma-6 MGF, with
    /// the per-θ Remark-1 optimal `ξ` in continuous time. Returns the
    /// bound in delay space plus the winning probe cell.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(g > rho)` also rejects NaN
    fn theta_opt_delay(&self, j: usize, g: f64, hint: Option<usize>) -> Option<(TailBound, usize)> {
        let src = self.classes[j].source;
        if !(g > src.rho) {
            return None;
        }
        let d = self.classes[j].target.delay;
        let base_model = self.model;
        let family = |theta: f64| {
            if !(theta > 0.0 && theta < src.alpha) {
                return None;
            }
            let fam_model = match base_model {
                TimeModel::Discrete => TimeModel::Discrete,
                TimeModel::Continuous { .. } => {
                    let xi = match optimal_xi(src.rho, g, theta) {
                        Some(x) => x,
                        // ρ = 0 has no finite optimum (prefactor ↓ in ξ);
                        // pick ξ large enough that the denominator is 1.
                        None => 37.0 / (theta * (g - src.rho)),
                    };
                    TimeModel::Continuous { xi }
                }
            };
            let log_pref = delta_mgf_log(&src, g, theta, fam_model);
            if !log_pref.is_finite() || log_pref > MAX_LOG_PREFACTOR {
                return None;
            }
            // Delay space: Pr{D > d} <= e^{log_pref} e^{-θ g d}.
            Some(TailBound::new(log_pref.exp(), theta * g))
        };
        try_optimize_tail_seeded(src.alpha, d, hint, family).ok()
    }

    /// The memoized delay certificate for `(class j, rate g)`: the
    /// tighter of the closed-form and θ-optimized bounds at the class's
    /// delay threshold. `None` when `g <= ρ_j`.
    fn certificate(&mut self, j: usize, g: f64) -> Option<TailBound> {
        let key = CertKey {
            class_fp: self.fps[j],
            arg_bits: g.to_bits(),
            kind: KIND_CERT,
        };
        if let Some(CachedValue::Cert { bound, seed }) = self.cache.get(&key) {
            if self.warm_start {
                self.theta_seeds[j] = Some(seed);
            }
            return Some(bound);
        }
        let hint = if self.warm_start {
            self.theta_seeds[j]
        } else {
            None
        };
        // Cold θ-optimization: the expensive path a slow `/admit` traces
        // to. Tagged with the serving request ID (0 outside a request).
        let _miss = gps_obs::trace::scope(
            gps_obs::TraceKind::RequestDispatch,
            "engine/cert_miss",
            gps_obs::current_request_id().unwrap_or(0),
        );
        let (bound, seed) = self.compute_certificate(j, g, hint)?;
        if self.warm_start {
            self.theta_seeds[j] = Some(seed);
        }
        self.cache.insert(key, CachedValue::Cert { bound, seed });
        Some(bound)
    }

    /// The pure certificate computation (no cache, no hint mutation):
    /// used by both the miss path and the parallel batch prefetch.
    fn compute_certificate(
        &self,
        j: usize,
        g: f64,
        hint: Option<usize>,
    ) -> Option<(TailBound, usize)> {
        let closed = self.closed_delay(j, g)?;
        let d = self.classes[j].target.delay;
        match self.theta_opt_delay(j, g, hint) {
            Some((opt, seed)) => Some((closed.tighter_at(&opt, d), seed)),
            None => Some((closed, 0)),
        }
    }

    /// The memoized effective bandwidth `g*_j`: the smallest dedicated
    /// rate in `(ρ_j, R]` whose closed-form delay bound meets the class
    /// target, or `+∞` when even the full server rate does not. The
    /// bisection keeps the invariant "upper endpoint meets the target",
    /// so the returned rate is always admissible — conservatively
    /// rounded up by at most the tolerance.
    fn gstar(&mut self, j: usize) -> f64 {
        let key = CertKey {
            class_fp: self.fps[j],
            arg_bits: self.rate.to_bits(),
            kind: KIND_GSTAR,
        };
        if let Some(CachedValue::GStar(g)) = self.cache.get(&key) {
            return g;
        }
        let _miss = gps_obs::trace::scope(
            gps_obs::TraceKind::RequestDispatch,
            "engine/gstar_miss",
            gps_obs::current_request_id().unwrap_or(0),
        );
        let g = self.compute_gstar(j);
        self.cache.insert(key, CachedValue::GStar(g));
        g
    }

    /// The pure `g*` computation (no cache).
    fn compute_gstar(&self, j: usize) -> f64 {
        let target = self.classes[j].target;
        let meets = |g: f64| match self.closed_delay(j, g) {
            Some(b) => b.tail(target.delay) <= target.epsilon,
            None => false,
        };
        let rho = self.classes[j].source.rho;
        if !meets(self.rate) {
            return f64::INFINITY;
        }
        let mut lo = rho; // does not meet (bound undefined at ρ)
        let mut hi = self.rate; // meets
        for _ in 0..200 {
            if hi - lo <= 1e-12 * (1.0 + hi.abs()) {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if meets(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    // -----------------------------------------------------------------
    // Admissibility

    /// Whether the hypothetical mix `counts` is admissible under the
    /// configured backend. Exposed for the monotonicity property tests.
    pub fn mix_admissible(&mut self, counts: &[u64]) -> bool {
        assert_eq!(counts.len(), self.classes.len());
        match self.backend {
            CertBackend::Rpps => self.rpps_mix_admissible(counts),
            CertBackend::EffectiveBandwidth => self.eb_mix_admissible(counts),
        }
    }

    fn rpps_mix_admissible(&mut self, counts: &[u64]) -> bool {
        let load = Self::load_of(&self.classes, counts);
        if load == 0.0 {
            return true; // empty mix
        }
        if load >= self.rate || !load.is_finite() {
            return false; // Σρ < r stability is strict
        }
        for (j, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let g = self.classes[j].source.rho * self.rate / load;
            let target = self.classes[j].target;
            match self.certificate(j, g) {
                Some(cert) if cert.tail(target.delay) <= target.epsilon => {}
                _ => return false,
            }
        }
        true
    }

    fn eb_mix_admissible(&mut self, counts: &[u64]) -> bool {
        let mut weight = 0.0;
        for (j, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            weight += n as f64 * self.gstar(j);
        }
        weight <= self.rate
    }

    /// The delay certificate a granted admit reports: the class's bound
    /// at its guaranteed rate under the (new) mix.
    fn decision_certificate(&mut self, j: usize, counts: &[u64]) -> Option<TailBound> {
        match self.backend {
            CertBackend::Rpps => {
                let load = Self::load_of(&self.classes, counts);
                let g = self.classes[j].source.rho * self.rate / load;
                self.certificate(j, g)
            }
            CertBackend::EffectiveBandwidth => {
                let g = self.gstar(j);
                if g.is_finite() {
                    self.certificate(j, g)
                } else {
                    None
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Decisions

    /// Decides one admission request for class `j`.
    pub fn admit(&mut self, j: usize) -> Decision {
        assert!(j < self.classes.len(), "class {j} out of range");
        let rid = gps_obs::current_request_id();
        let _slice = gps_obs::trace::scope(
            gps_obs::TraceKind::RequestDispatch,
            "engine/admit",
            rid.unwrap_or(0),
        );
        let mut candidate = self.counts.clone();
        candidate[j] += 1;
        let ok = self.mix_admissible(&candidate);
        let certificate = if ok {
            self.counts = candidate;
            self.decision_certificate(j, &self.counts.clone())
        } else {
            None
        };
        self.seq += 1;
        self.stats.decisions += 1;
        if ok {
            self.stats.admitted += 1;
        } else {
            self.stats.rejected += 1;
        }
        match rid {
            Some(id) => gps_obs::debug(
                "admission.engine",
                "admit",
                &[
                    ("request_id", id.into()),
                    ("class", (j as u64).into()),
                    ("accepted", ok.into()),
                ],
            ),
            None => gps_obs::debug(
                "admission.engine",
                "admit",
                &[("class", (j as u64).into()), ("accepted", ok.into())],
            ),
        }
        Decision {
            seq: self.seq,
            class: j,
            kind: RequestKind::Admit,
            accepted: ok,
            load: self.load(),
            sessions: self.sessions(),
            certificate,
        }
    }

    /// Releases one session of class `j` (refused when none are held).
    pub fn depart(&mut self, j: usize) -> Decision {
        assert!(j < self.classes.len(), "class {j} out of range");
        let ok = self.counts[j] > 0;
        if ok {
            self.counts[j] -= 1;
            self.stats.departed += 1;
        }
        self.seq += 1;
        self.stats.decisions += 1;
        match gps_obs::current_request_id() {
            Some(id) => gps_obs::debug(
                "admission.engine",
                "depart",
                &[
                    ("request_id", id.into()),
                    ("class", (j as u64).into()),
                    ("accepted", ok.into()),
                ],
            ),
            None => gps_obs::debug(
                "admission.engine",
                "depart",
                &[("class", (j as u64).into()), ("accepted", ok.into())],
            ),
        }
        Decision {
            seq: self.seq,
            class: j,
            kind: RequestKind::Depart,
            accepted: ok,
            load: self.load(),
            sessions: self.sessions(),
            certificate: None,
        }
    }

    /// Decides one request of either kind.
    pub fn decide(&mut self, req: Request) -> Decision {
        match req.kind {
            RequestKind::Admit => self.admit(req.class),
            RequestKind::Depart => self.depart(req.class),
        }
    }

    /// Batched decisions: semantically identical to calling
    /// [`decide`](Self::decide) in order (the sequential fold is the
    /// authority), but cache misses the batch will need are predicted up
    /// front and computed on the `gps_par` chunked pool. The prediction
    /// simulates the optimistic all-admits path; a mispredicted key is
    /// just a cache miss computed serially, so the decision stream is
    /// byte-identical for every `GPS_PAR_THREADS` — and to the unbatched
    /// stream.
    pub fn admit_batch(&mut self, reqs: &[Request]) -> Vec<Decision> {
        self.prefetch(reqs);
        reqs.iter().map(|r| self.decide(*r)).collect()
    }

    /// Speculatively fills the cache with the certificate values the
    /// batch is likely to need, in parallel. Values are pure functions of
    /// their keys, so warming the cache can never change a decision.
    fn prefetch(&mut self, reqs: &[Request]) {
        if self.cache.cap == 0 || reqs.is_empty() {
            return;
        }
        match self.backend {
            CertBackend::EffectiveBandwidth => {
                // g* is mix-independent: warm every class the batch names,
                // then the certificates at those g*.
                let mut classes: BTreeSet<usize> = BTreeSet::new();
                for r in reqs {
                    if r.class < self.classes.len() {
                        classes.insert(r.class);
                    }
                }
                let todo: Vec<usize> = classes
                    .iter()
                    .copied()
                    .filter(|&j| {
                        !self.cache.contains(&CertKey {
                            class_fp: self.fps[j],
                            arg_bits: self.rate.to_bits(),
                            kind: KIND_GSTAR,
                        })
                    })
                    .collect();
                let computed = gps_par::Pool::from_env().map(&todo, |_, &j| self.compute_gstar(j));
                for (&j, g) in todo.iter().zip(computed) {
                    self.cache.insert(
                        CertKey {
                            class_fp: self.fps[j],
                            arg_bits: self.rate.to_bits(),
                            kind: KIND_GSTAR,
                        },
                        CachedValue::GStar(g),
                    );
                }
                let cert_todo: Vec<(usize, f64)> = classes
                    .iter()
                    .filter_map(|&j| {
                        let g = self.gstar(j);
                        (g.is_finite()
                            && !self.cache.contains(&CertKey {
                                class_fp: self.fps[j],
                                arg_bits: g.to_bits(),
                                kind: KIND_CERT,
                            }))
                        .then_some((j, g))
                    })
                    .collect();
                self.prefetch_certs(&cert_todo);
            }
            CertBackend::Rpps => {
                // Walk the optimistic all-admits path to enumerate the
                // (class, g) pairs each step would examine.
                let mut counts = self.counts.clone();
                let mut wanted: BTreeMap<CertKey, (usize, f64)> = BTreeMap::new();
                for r in reqs {
                    if r.class >= self.classes.len() {
                        continue;
                    }
                    match r.kind {
                        RequestKind::Admit => counts[r.class] += 1,
                        RequestKind::Depart => counts[r.class] = counts[r.class].saturating_sub(1),
                    }
                    let load = Self::load_of(&self.classes, &counts);
                    if !(load > 0.0 && load < self.rate) {
                        continue;
                    }
                    for (j, &n) in counts.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        let g = self.classes[j].source.rho * self.rate / load;
                        let key = CertKey {
                            class_fp: self.fps[j],
                            arg_bits: g.to_bits(),
                            kind: KIND_CERT,
                        };
                        if !self.cache.contains(&key) {
                            wanted.insert(key, (j, g));
                        }
                    }
                }
                let todo: Vec<(usize, f64)> = wanted.values().copied().collect();
                self.prefetch_certs(&todo);
            }
        }
    }

    /// Computes certificates for `(class, g)` pairs on the `gps_par` pool
    /// and inserts them in deterministic (input) order.
    fn prefetch_certs(&mut self, todo: &[(usize, f64)]) {
        if todo.is_empty() {
            return;
        }
        let computed =
            gps_par::Pool::from_env().map(todo, |_, &(j, g)| self.compute_certificate(j, g, None));
        for (&(j, g), value) in todo.iter().zip(computed) {
            if let Some((bound, seed)) = value {
                self.cache.insert(
                    CertKey {
                        class_fp: self.fps[j],
                        arg_bits: g.to_bits(),
                        kind: KIND_CERT,
                    },
                    CachedValue::Cert { bound, seed },
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Region

    /// Where each class sits inside the admissible region: its current
    /// count plus how many more sessions of it alone the mix could take
    /// (the unique boundary of a monotone predicate, so warm and cold
    /// engines agree exactly).
    pub fn region(&mut self) -> Vec<RegionRow> {
        (0..self.classes.len())
            .map(|j| {
                let headroom = self.headroom(j);
                let sessions = self.counts[j];
                let denom = sessions + headroom;
                RegionRow {
                    class: j,
                    name: self.classes[j].name.clone(),
                    sessions,
                    headroom,
                    occupancy: if denom == 0 {
                        0.0
                    } else {
                        sessions as f64 / denom as f64
                    },
                }
            })
            .collect()
    }

    /// Max additional sessions of class `j` admissible on top of the
    /// current mix.
    fn headroom(&mut self, j: usize) -> u64 {
        let rho = self.classes[j].source.rho;
        // Stability alone caps the search: load + m·ρ must stay < R.
        let slack = self.rate - self.load();
        if slack <= 0.0 {
            return 0;
        }
        let cap = (slack / rho).ceil() as u64 + 1;
        let ok = |engine: &mut Self, m: u64| {
            let mut counts = engine.counts.clone();
            counts[j] += m;
            engine.mix_admissible(&counts)
        };
        if !ok(self, 1) {
            return 0;
        }
        // Exponential bracket, then binary search on the unique boundary.
        let mut lo = 1u64; // admissible
        let mut hi = 2u64;
        while hi < cap && ok(self, hi) {
            lo = hi;
            hi *= 2;
        }
        hi = hi.min(cap);
        if ok(self, hi) {
            return hi;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if ok(self, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    // -----------------------------------------------------------------
    // Metrics

    /// Mirrors engine state onto a metrics registry: monotone
    /// `admission.cache.*` / `admission.decisions.*` counters and live
    /// `admission.sessions{class}` / `admission.region.*` gauges (the
    /// occupancy gauges the `/metrics` exposition and the dashboard
    /// panel read).
    pub fn publish(&mut self, registry: &gps_obs::metrics::Registry) {
        // Region first: computing headroom touches the cache, and the
        // counters below must mirror the stats *after* those lookups.
        let rows = self.region();
        let cache = self.cache.stats;
        let stats = self.stats;
        let (pc, ps) = self.published;
        registry
            .counter("admission.cache.hits")
            .add(cache.hits - pc.hits);
        registry
            .counter("admission.cache.misses")
            .add(cache.misses - pc.misses);
        registry
            .counter("admission.cache.evictions")
            .add(cache.evictions - pc.evictions);
        registry
            .counter("admission.decisions")
            .add(stats.decisions - ps.decisions);
        registry
            .counter("admission.admitted")
            .add(stats.admitted - ps.admitted);
        registry
            .counter("admission.rejected")
            .add(stats.rejected - ps.rejected);
        registry
            .counter("admission.departed")
            .add(stats.departed - ps.departed);
        self.published = (cache, stats);
        registry.gauge("admission.load").set(self.load());
        registry.gauge("admission.capacity").set(self.rate);
        registry
            .gauge("admission.cache.entries")
            .set(self.cache.len() as f64);
        for row in rows {
            let labels = [("class", row.name.as_str())];
            registry
                .gauge(&gps_obs::metrics::labeled("admission.sessions", &labels))
                .set(row.sessions as f64);
            registry
                .gauge(&gps_obs::metrics::labeled(
                    "admission.region.headroom",
                    &labels,
                ))
                .set(row.headroom as f64);
            registry
                .gauge(&gps_obs::metrics::labeled(
                    "admission.region.occupancy",
                    &labels,
                ))
                .set(row.occupancy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<ClassSpec> {
        vec![
            ClassSpec::new(
                "voice",
                EbbProcess::new(0.02, 1.0, 17.4),
                QosTarget::new(5.0, 1e-6),
            ),
            ClassSpec::new(
                "video",
                EbbProcess::new(0.08, 2.0, 6.0),
                QosTarget::new(10.0, 1e-4),
            ),
            ClassSpec::new(
                "data",
                EbbProcess::new(0.05, 4.0, 3.0),
                QosTarget::new(40.0, 1e-3),
            ),
        ]
    }

    fn engine(backend: CertBackend, cap: usize) -> AdmissionEngine {
        AdmissionEngine::with_cache_cap(classes(), 1.0, TimeModel::Discrete, backend, cap).unwrap()
    }

    fn workload(n: usize) -> Vec<Request> {
        // Deterministic churn touching every class.
        (0..n)
            .map(|i| Request {
                class: i % 3,
                kind: if i % 5 == 3 {
                    RequestKind::Depart
                } else {
                    RequestKind::Admit
                },
            })
            .collect()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            AdmissionEngine::new(vec![], 1.0, TimeModel::Discrete, CertBackend::Rpps),
            Err(EngineError::NoClasses)
        ));
        assert!(matches!(
            AdmissionEngine::new(classes(), 0.0, TimeModel::Discrete, CertBackend::Rpps),
            Err(EngineError::InvalidRate(_))
        ));
        let dup = vec![classes()[0].clone(), classes()[0].clone()];
        assert!(matches!(
            AdmissionEngine::new(dup, 1.0, TimeModel::Discrete, CertBackend::Rpps),
            Err(EngineError::DuplicateFingerprint { .. })
        ));
    }

    #[test]
    fn admits_then_rejects_at_the_boundary() {
        for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
            let mut e = engine(backend, 1 << 16);
            let mut admitted = 0u64;
            loop {
                let d = e.admit(0);
                if !d.accepted {
                    break;
                }
                assert!(d.certificate.is_some(), "granted admit carries a bound");
                admitted += 1;
                assert!(admitted < 1_000_000, "must saturate eventually");
            }
            assert!(admitted > 0, "{backend:?} admitted nothing");
            // Once rejected, identical repeats keep rejecting.
            assert!(!e.admit(0).accepted);
            // A departure opens exactly one slot again.
            assert!(e.depart(0).accepted);
            assert!(e.admit(0).accepted);
            assert!(!e.admit(0).accepted);
        }
    }

    #[test]
    fn depart_of_empty_class_is_refused() {
        let mut e = engine(CertBackend::Rpps, 16);
        let d = e.depart(1);
        assert!(!d.accepted);
        assert_eq!(e.sessions(), 0);
    }

    #[test]
    fn cached_and_uncached_streams_are_bit_identical() {
        let reqs = workload(400);
        let mut cached = engine(CertBackend::Rpps, 1 << 16);
        let mut uncached = engine(CertBackend::Rpps, 0);
        for r in &reqs {
            assert_eq!(cached.decide(*r).line(), uncached.decide(*r).line());
        }
        assert!(cached.cache_stats().hits > 0, "cache saw no hits");
        assert_eq!(uncached.cache_stats().hits, 0);
    }

    #[test]
    fn warm_start_and_scratch_streams_are_bit_identical() {
        let reqs = workload(300);
        for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
            let mut warm = engine(backend, 1 << 16);
            let mut cold = engine(backend, 0);
            cold.set_warm_start(false);
            let warm_lines: Vec<String> = reqs.iter().map(|r| warm.decide(*r).line()).collect();
            let cold_lines: Vec<String> = reqs.iter().map(|r| cold.decide(*r).line()).collect();
            assert_eq!(warm_lines, cold_lines, "{backend:?}");
        }
    }

    #[test]
    fn batch_matches_sequential_stream() {
        let reqs = workload(250);
        for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
            let mut batched = engine(backend, 1 << 16);
            let mut sequential = engine(backend, 1 << 16);
            let b: Vec<String> = batched
                .admit_batch(&reqs)
                .iter()
                .map(Decision::line)
                .collect();
            let s: Vec<String> = reqs.iter().map(|r| sequential.decide(*r).line()).collect();
            assert_eq!(b, s, "{backend:?}");
        }
    }

    #[test]
    fn effective_bandwidth_cache_hits_dominate_warm_replay() {
        let reqs = workload(500);
        let mut e = engine(CertBackend::EffectiveBandwidth, 1 << 16);
        e.admit_batch(&reqs);
        let warm = e.cache_stats();
        // After the first pass everything is memoized: replaying the same
        // load shape again must be essentially all hits.
        let before_hits = warm.hits;
        let before_misses = warm.misses;
        e.admit_batch(&reqs);
        let after = e.cache_stats();
        assert!(after.hits > before_hits);
        assert_eq!(after.misses, before_misses, "warm replay recomputed");
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let mut e = engine(CertBackend::Rpps, 4);
        for r in workload(200) {
            e.decide(r);
        }
        assert!(e.cache_len() <= 4);
        assert!(e.cache_stats().evictions > 0);
    }

    #[test]
    fn region_reports_headroom_and_occupancy() {
        let mut e = engine(CertBackend::EffectiveBandwidth, 1 << 16);
        let empty = e.region();
        assert_eq!(empty.len(), 3);
        for row in &empty {
            assert_eq!(row.sessions, 0);
            assert!(row.headroom > 0, "{}: empty server has headroom", row.name);
            assert_eq!(row.occupancy, 0.0);
        }
        // Admit a few and occupancy must rise but stay in (0, 1].
        for _ in 0..3 {
            assert!(e.admit(0).accepted);
        }
        let rows = e.region();
        assert_eq!(rows[0].sessions, 3);
        assert!(rows[0].occupancy > 0.0 && rows[0].occupancy <= 1.0);
        // Headroom is exact: admitting headroom more of the class works,
        // one more does not.
        let m = rows[0].headroom;
        let mut counts = e.counts().to_vec();
        counts[0] += m;
        assert!(e.mix_admissible(&counts));
        counts[0] += 1;
        assert!(!e.mix_admissible(&counts));
    }

    #[test]
    fn decision_line_is_stable_format() {
        let mut e = engine(CertBackend::Rpps, 16);
        let d = e.admit(2);
        let line = d.line();
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 7);
        assert_eq!(fields[0], "1");
        assert_eq!(fields[1], "2");
        assert_eq!(fields[2], "admit");
        assert_eq!(fields[3], "1");
        assert_eq!(fields[4].len(), 16, "load is 16 hex digits");
    }

    #[test]
    fn publish_exposes_counters_and_gauges() {
        let registry = gps_obs::metrics::Registry::new();
        let mut e = engine(CertBackend::EffectiveBandwidth, 1 << 16);
        for r in workload(50) {
            e.decide(r);
        }
        e.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            registry.counter("admission.cache.hits").get(),
            e.cache_stats().hits,
            "published counter mirrors engine stats"
        );
        assert!(snap
            .gauges
            .iter()
            .any(|(k, _)| k.starts_with("admission.region.occupancy{class=")));
        // Publishing again adds only the delta (region lookups since the
        // last publish), never double-counts the base.
        e.publish(&registry);
        assert_eq!(
            registry.counter("admission.cache.hits").get(),
            e.cache_stats().hits
        );
    }

    #[test]
    fn cache_cap_env_parses() {
        // Only exercises the parser on the current env value; the default
        // path must be the constant.
        if std::env::var("GPS_ADMIT_CACHE_CAP").is_err() {
            assert_eq!(cache_cap_from_env(), DEFAULT_CACHE_CAP);
        }
    }
}

//! The memory-leak fault injector.
//!
//! Section 5.1: "We injected a memory-leak fault by declaring a 32 KB
//! buffer of memory within the Interceptor, and then slowly exhausting the
//! buffer according to a Weibull probability distribution ... At every
//! subsequent 150 ms interval after the onset of the fault, we exhausted
//! chunks of memory according to a Weibull distribution with a scale
//! parameter of 64 and a shape parameter of 2.0."
//!
//! The buffer-based approach (rather than real heap exhaustion) gives "a
//! deterministic fault model ... in a reproducible manner" — which is
//! exactly what a simulation wants, so the substitution is faithful by
//! construction.
//!
//! **Calibration note** (also in `DESIGN.md`): the paper's leak
//! parameters are mutually inconsistent. (a) Weibull(64, 2) samples sum to
//! ~57 *bytes* per 150 ms against a 32 KB buffer — ~86 s to exhaustion,
//! three orders of magnitude away from the reported "one server failure
//! for every 250 client invocations" (~0.45 s at the 1 ms workload
//! cadence), so a chunk cannot be one byte. (b) At ~0.45 s to exhaustion a
//! 150 ms step consumes ~1/3 of the buffer, which would make the 80 %/90 %
//! thresholds of section 3.2 unobservable before the crash — yet the paper
//! demonstrates reliable proactive migration at those thresholds. We
//! therefore preserve the two *behavioural* constants — the Weibull(64, 2)
//! shape of each step and the ≈0.45 s expected time to exhaustion — and
//! scale step interval and chunk unit together ([`LEAK_INTERVAL`] = 15 ms,
//! 19 bytes per Weibull unit by default) so that usage advances ≈3 % per
//! step and threshold crossings are observable, as the paper's mechanism
//! requires. The buffer, interval and distribution are constants; only
//! the chunk unit is a [`LeakConfig`] field.

use rand::Rng;
use simnet::SimDuration;

use crate::weibull::Weibull;

/// Size of the doomed buffer (paper: 32 KB).
pub(crate) const LEAK_BUFFER_BYTES: u64 = 32 * 1024;

/// Interval between leak steps (paper: 150 ms; see the calibration note
/// in the module docs for why it is finer).
pub const LEAK_INTERVAL: SimDuration = SimDuration::from_millis(15);

/// Parameters of the injected leak. The buffer, the step interval and the
/// Weibull(64, 2) chunk distribution are the paper's constants; only the
/// chunk unit is calibrated, and the `adaptive` command varies it.
#[derive(Clone, Debug, PartialEq)]
pub struct LeakConfig {
    /// Bytes per Weibull unit (calibration constant, see module docs).
    pub chunk_unit_bytes: u64,
}

impl Default for LeakConfig {
    fn default() -> Self {
        LeakConfig {
            chunk_unit_bytes: 19,
        }
    }
}

impl LeakConfig {
    /// Expected time from activation to buffer exhaustion.
    pub fn expected_time_to_exhaustion(&self) -> SimDuration {
        let mean_step = Weibull::paper_leak().mean() * self.chunk_unit_bytes as f64;
        let steps = LEAK_BUFFER_BYTES as f64 / mean_step;
        SimDuration::from_nanos((steps * LEAK_INTERVAL.as_nanos() as f64) as u64)
    }
}

/// The state of one injected memory leak.
///
/// The leak's step function: its [`ResourceFault`](crate::ResourceFault)
/// activates it on the server's first client request, then calls
/// [`MemoryLeak::step`] on every [`LEAK_INTERVAL`] tick.
#[derive(Clone, Debug)]
pub struct MemoryLeak {
    cfg: LeakConfig,
    used: u64,
    active: bool,
}

impl MemoryLeak {
    /// Creates an inactive leak.
    pub fn new(cfg: LeakConfig) -> Self {
        MemoryLeak {
            cfg,
            used: 0,
            active: false,
        }
    }

    /// Starts leaking (idempotent). The paper activates on the first client
    /// request at the primary.
    pub fn activate(&mut self) {
        self.active = true;
    }

    /// Whether the leak has been activated.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Consumes one Weibull-distributed chunk. Returns the new usage
    /// fraction. No-op unless active.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if !self.active {
            return self.fraction();
        }
        let units = Weibull::paper_leak().sample(rng);
        let chunk = (units * self.cfg.chunk_unit_bytes as f64).round() as u64;
        self.used = (self.used + chunk).min(LEAK_BUFFER_BYTES);
        self.fraction()
    }

    /// Usage as a fraction of the buffer, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.used as f64 / LEAK_BUFFER_BYTES as f64
    }

    /// `true` once the buffer is fully consumed — the process-crash point.
    pub fn is_exhausted(&self) -> bool {
        self.used >= LEAK_BUFFER_BYTES
    }

    /// Resets to a clean state (what rejuvenation achieves by restarting
    /// the process).
    pub fn reset(&mut self) {
        self.used = 0;
        self.active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn inactive_leak_does_not_grow() {
        let mut leak = MemoryLeak::new(LeakConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            leak.step(&mut rng);
        }
        assert_eq!(leak.fraction(), 0.0);
        assert!(!leak.is_exhausted());
    }

    #[test]
    fn active_leak_grows_monotonically_to_exhaustion() {
        let mut leak = MemoryLeak::new(LeakConfig::default());
        leak.activate();
        let mut rng = StdRng::seed_from_u64(2);
        let mut prev = 0.0;
        let mut steps = 0;
        while !leak.is_exhausted() {
            leak.step(&mut rng);
            assert!(leak.fraction() >= prev);
            prev = leak.fraction();
            steps += 1;
            assert!(steps < 100, "leak should exhaust in a few steps");
        }
        assert_eq!(leak.fraction(), 1.0);
    }

    #[test]
    fn calibrated_exhaustion_time_matches_paper_failure_rate() {
        // ~250 invocations at ~1.77 ms per closed-loop invocation ≈ 0.44 s.
        let cfg = LeakConfig::default();
        let t = cfg.expected_time_to_exhaustion().as_millis_f64();
        assert!(
            (350.0..550.0).contains(&t),
            "expected ≈450 ms to exhaustion, got {t} ms"
        );
    }

    #[test]
    fn empirical_exhaustion_time_matches_expectation() {
        let cfg = LeakConfig::default();
        let expected_steps =
            cfg.expected_time_to_exhaustion().as_nanos() / LEAK_INTERVAL.as_nanos();
        let mut total_steps = 0u64;
        let runs = 200;
        for seed in 0..runs {
            let mut leak = MemoryLeak::new(cfg.clone());
            leak.activate();
            let mut rng = StdRng::seed_from_u64(seed);
            while !leak.is_exhausted() {
                leak.step(&mut rng);
                total_steps += 1;
            }
        }
        let mean_steps = total_steps as f64 / runs as f64;
        // Overshoot on the final step biases upward slightly; allow 25%.
        let rel_err = (mean_steps - expected_steps as f64).abs() / expected_steps as f64;
        assert!(
            rel_err < 0.25,
            "mean {mean_steps} vs expected {expected_steps}"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut leak = MemoryLeak::new(LeakConfig::default());
        leak.activate();
        let mut rng = StdRng::seed_from_u64(3);
        leak.step(&mut rng);
        assert!(leak.fraction() > 0.0);
        leak.reset();
        assert_eq!(leak.fraction(), 0.0);
        assert!(!leak.is_active());
    }
}

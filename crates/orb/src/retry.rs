//! Capped exponential backoff with jitter and a retry budget.
//!
//! The seed's clients retried failed resolves/reconnects on a *fixed*
//! short timer, which hammers a recovering infrastructure and never
//! gives up — under a slow recovery the client fails permanently in all
//! but name. [`RetryState::next_delay`] replaces that with the standard
//! discipline: delays double from [`RETRY_BASE`] up to [`RETRY_CAP`], each
//! draw is jittered uniformly over `[delay/2, delay]` to de-synchronise
//! concurrent clients, and [`RETRY_BUDGET`] caps the number of retries so
//! a truly-dead target surfaces as a typed failure instead of an infinite
//! loop. Forty capped delays sum to several simulated seconds — enough to
//! ride out any recovery the chaos campaign's fault plans allow.

use rand::Rng;
use simnet::SimDuration;

/// First retry delay (before jitter).
pub(crate) const RETRY_BASE: SimDuration = SimDuration::from_millis(5);
/// Upper bound on the un-jittered delay.
pub(crate) const RETRY_CAP: SimDuration = SimDuration::from_millis(160);
/// Maximum number of retries before giving up.
pub(crate) const RETRY_BUDGET: u32 = 40;

/// Mutable per-operation state; reset it when the operation succeeds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetryState {
    attempts: u32,
}

impl RetryState {
    /// A fresh state with no attempts consumed.
    pub fn new() -> RetryState {
        RetryState::default()
    }

    /// Number of retries consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Forgets consumed attempts (call on success).
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// Consumes one attempt and returns the jittered delay before the
    /// next try, or `None` when the budget is exhausted.
    pub fn next_delay<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<SimDuration> {
        if self.attempts >= RETRY_BUDGET {
            return None;
        }
        let exp = RETRY_BASE
            .as_nanos()
            .saturating_mul(2u64.saturating_pow(self.attempts))
            .min(RETRY_CAP.as_nanos());
        self.attempts += 1;
        // Jitter uniformly over [exp/2, exp] — "equal jitter": spreads
        // synchronized clients while keeping a floor on the wait.
        Some(SimDuration::from_nanos(rng.gen_range(exp / 2..=exp)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn delays_grow_to_cap_with_jitter_in_range() {
        let mut st = RetryState::new();
        let mut rng = StdRng::seed_from_u64(3);
        let ceilings = [5u64, 10, 20, 40, 80, 160]
            .into_iter()
            .chain(std::iter::repeat(160));
        for ceil_ms in ceilings.take(RETRY_BUDGET as usize) {
            let d = st.next_delay(&mut rng).expect("within budget");
            let ceil = SimDuration::from_millis(ceil_ms);
            assert!(d <= ceil, "jitter above ceiling: {d} > {ceil}");
            assert!(d >= ceil / 2, "jitter below half-ceiling: {d}");
        }
        assert_eq!(st.next_delay(&mut rng), None, "budget exhausted");
        assert_eq!(st.attempts(), 40);
    }

    #[test]
    fn reset_restores_the_budget_and_the_base_delay() {
        let mut st = RetryState::new();
        let mut rng = StdRng::seed_from_u64(4);
        while st.next_delay(&mut rng).is_some() {}
        assert_eq!(st.attempts(), 40);
        st.reset();
        let d = st.next_delay(&mut rng).expect("budget back");
        assert!(d <= SimDuration::from_millis(5), "delay back at base");
    }

    #[test]
    fn deterministic_under_same_rng_stream() {
        let draw = |seed| {
            let mut st = RetryState::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            while let Some(d) = st.next_delay(&mut rng) {
                out.push(d);
            }
            out
        };
        assert_eq!(draw(9), draw(9));
        assert_eq!(draw(9).len(), 40);
    }
}

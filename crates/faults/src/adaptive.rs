//! Adaptive rejuvenation thresholds — the paper's stated future work:
//! "We also plan to integrate adaptive thresholds into our framework
//! rather than relying on preset thresholds supplied by the user"
//! (section 6).
//!
//! Instead of firing at fixed usage fractions, [`AdaptivePredictor`]
//! estimates the resource-consumption *rate* online (an exponentially
//! weighted moving average over observed usage deltas) and predicts the
//! time remaining until exhaustion. An observation reaches a step when
//! the predicted remaining time drops below safety margins derived from
//! how long replacement launch and client hand-off actually take — so the
//! trigger point self-adjusts to the fault's speed, firing early for fast
//! leaks and late (wasting nothing) for slow ones. This is exactly the
//! "ideal scenario" of section 5.2.4: "delay proactive recovery so that
//! the proactive dependability framework has just enough time to redirect
//! clients". Like the preset [`ResourceMonitor`](crate::ResourceMonitor),
//! it remembers nothing of what already fired: its only state is the rate
//! estimate.

use simnet::{SimDuration, SimTime};

use crate::resource::ThresholdAction;

/// Report [`ThresholdAction::LaunchReplacement`] when the predicted time to
/// exhaustion drops below this: it covers process launch (30 ms) + group
/// join and advertisement (≈ 15 ms) in the reproduction's deployment,
/// with slack.
const LAUNCH_MARGIN: SimDuration = SimDuration::from_millis(120);
/// Report [`ThresholdAction::MigrateClients`] when the predicted time to
/// exhaustion drops below this: it covers redirecting every client plus
/// the drain delay (≈ 10 ms), with slack.
const MIGRATE_MARGIN: SimDuration = SimDuration::from_millis(45);
/// EWMA smoothing factor for the rate estimate, in `(0, 1]`; higher
/// weights the newest observation more.
const RATE_ALPHA: f64 = 0.3;

/// Online estimator of time-to-exhaustion with margin-based steps.
#[derive(Clone, Debug, Default)]
pub struct AdaptivePredictor {
    last: Option<(SimTime, f64)>,
    /// EWMA of usage growth per second (fraction/s).
    rate: Option<f64>,
}

impl AdaptivePredictor {
    /// Creates a predictor that has seen no observation yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current rate estimate, fraction per second (None until two
    /// observations).
    pub fn rate_per_sec(&self) -> Option<f64> {
        self.rate
    }

    /// Predicted time until exhaustion at the current rate.
    pub fn predicted_remaining(&self, fraction: f64) -> Option<SimDuration> {
        let rate = self.rate?;
        if rate <= 0.0 {
            return None; // not growing: no exhaustion in sight
        }
        let secs = ((1.0 - fraction).max(0.0)) / rate;
        Some(SimDuration::from_nanos((secs * 1e9) as u64))
    }

    /// Feeds a fresh usage observation into the rate estimate and returns
    /// the furthest step it has reached: the predicted remaining time
    /// within both margins reports [`ThresholdAction::MigrateClients`].
    pub fn observe(&mut self, now: SimTime, fraction: f64) -> Option<ThresholdAction> {
        if let Some((t0, f0)) = self.last {
            let dt = now.saturating_since(t0).as_secs_f64();
            if dt > 0.0 {
                let inst = ((fraction - f0) / dt).max(0.0);
                self.rate = Some(match self.rate {
                    Some(prev) => prev + RATE_ALPHA * (inst - prev),
                    None => inst,
                });
            }
        }
        self.last = Some((now, fraction));
        let remaining = self.predicted_remaining(fraction)?;
        if remaining <= MIGRATE_MARGIN {
            Some(ThresholdAction::MigrateClients)
        } else if remaining <= LAUNCH_MARGIN {
            Some(ThresholdAction::LaunchReplacement)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a linear leak and returns the distinct steps reached, in the
    /// order they were first reported in a row.
    fn feed_linear(
        p: &mut AdaptivePredictor,
        rate_per_sec: f64,
        steps: u32,
        dt_ms: u64,
    ) -> Vec<ThresholdAction> {
        let mut reached: Vec<ThresholdAction> = Vec::new();
        for i in 0..steps {
            let t = SimTime::from_millis(i as u64 * dt_ms);
            let frac = rate_per_sec * t.as_secs_f64();
            if let Some(step) = p.observe(t, frac.min(1.0)) {
                if reached.last() != Some(&step) {
                    reached.push(step);
                }
            }
        }
        reached
    }

    #[test]
    fn linear_growth_rate_is_estimated() {
        let mut p = AdaptivePredictor::new();
        // 2.0 fraction/s: exhaustion in 0.5 s from empty.
        feed_linear(&mut p, 2.0, 10, 15);
        let rate = p.rate_per_sec().expect("rate estimated");
        assert!((rate - 2.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn reaches_launch_then_migrate_in_order() {
        let mut p = AdaptivePredictor::new();
        let reached = feed_linear(&mut p, 2.0, 40, 15);
        assert_eq!(
            reached,
            vec![
                ThresholdAction::LaunchReplacement,
                ThresholdAction::MigrateClients
            ]
        );
    }

    #[test]
    fn fast_leak_fires_earlier_in_fraction_terms_than_slow_leak() {
        // The whole point of adaptivity: for a fast leak the margin is hit
        // at a lower usage fraction than for a slow one.
        let fire_fraction = |rate: f64| -> f64 {
            let mut p = AdaptivePredictor::new();
            for i in 0..10_000 {
                let t = SimTime::from_millis(i * 5);
                let frac = (rate * t.as_secs_f64()).min(1.0);
                if let Some(ThresholdAction::MigrateClients) = p.observe(t, frac) {
                    return frac;
                }
                if frac >= 1.0 {
                    break;
                }
            }
            panic!("never fired at rate {rate}");
        };
        let fast = fire_fraction(8.0); // exhausts in 125 ms
        let slow = fire_fraction(0.4); // exhausts in 2.5 s
        assert!(
            fast < slow,
            "fast leak must trigger at lower usage: fast {fast} vs slow {slow}"
        );
        assert!(
            slow > 0.9,
            "slow leak should run deep before migrating: {slow}"
        );
    }

    #[test]
    fn flat_usage_never_fires() {
        let mut p = AdaptivePredictor::new();
        for i in 0..100 {
            let t = SimTime::from_millis(i * 15);
            assert_eq!(p.observe(t, 0.5), None, "constant usage is not a fault");
        }
    }

    #[test]
    fn predicted_remaining_tracks_fraction() {
        let mut p = AdaptivePredictor::new();
        p.observe(SimTime::from_millis(0), 0.0);
        p.observe(SimTime::from_millis(100), 0.2); // 2.0/s
        let remaining = p.predicted_remaining(0.5).expect("rate known");
        assert!(
            (remaining.as_millis_f64() - 250.0).abs() < 5.0,
            "{remaining}"
        );
    }
}

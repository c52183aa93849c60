//! Two-step threshold resource monitoring.
//!
//! Section 3.2: "We implemented proactive recovery using a two-step
//! threshold-based scheme similar to the soft hand-off process employed in
//! cellular systems. When a replica's resource usage exceeds our first
//! threshold, e.g. 80 % ..., the Proactive Fault-Tolerance Manager at that
//! replica requests the Recovery Manager to launch a new replica. If the
//! replica's resource usage exceeds our second threshold, e.g. 90 % ...,
//! the Proactive Fault-Tolerance Manager can initiate the migration of all
//! its current clients to the next non-faulty server replica."
//!
//! [`ResourceMonitor`] is a pure estimator: the interceptor feeds it fresh
//! usage fractions (on `writev`, per the paper's design choice against a
//! polling thread) and it reports which step each one has reached. It
//! keeps no memory of what already fired; the interceptor's rejuvenation
//! phase decides whether a step is new.

/// A step of the two-step scheme that an observation has reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThresholdAction {
    /// First threshold: ask the Recovery Manager for a fresh replica.
    LaunchReplacement,
    /// Second threshold: migrate clients to the next non-faulty replica.
    MigrateClients,
}

/// The two thresholds over a resource-usage fraction.
///
/// ```
/// use faults::{ResourceMonitor, ThresholdAction};
///
/// let m = ResourceMonitor { launch: 0.8, migrate: 0.9 };
/// assert_eq!(m.step(0.5), None);
/// assert_eq!(m.step(0.85), Some(ThresholdAction::LaunchReplacement));
/// assert_eq!(m.step(0.95), Some(ThresholdAction::MigrateClients));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceMonitor {
    /// First (launch) threshold, a fraction.
    pub launch: f64,
    /// Second (migrate) threshold, a fraction.
    pub migrate: f64,
}

impl ResourceMonitor {
    /// The furthest step `fraction` has reached: a fraction past both
    /// thresholds reports [`ThresholdAction::MigrateClients`].
    pub fn step(&self, fraction: f64) -> Option<ThresholdAction> {
        if fraction >= self.migrate {
            Some(ThresholdAction::MigrateClients)
        } else if fraction >= self.launch {
            Some(ThresholdAction::LaunchReplacement)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: ResourceMonitor = ResourceMonitor {
        launch: 0.8,
        migrate: 0.9,
    };

    #[test]
    fn reports_the_step_each_fraction_reaches() {
        for (fraction, step) in [
            (0.1, None),
            (0.79, None),
            (0.80, Some(ThresholdAction::LaunchReplacement)),
            (0.85, Some(ThresholdAction::LaunchReplacement)),
            (0.90, Some(ThresholdAction::MigrateClients)),
            (0.99, Some(ThresholdAction::MigrateClients)),
        ] {
            assert_eq!(PAPER.step(fraction), step, "at {fraction}");
        }
    }

    #[test]
    fn jumping_both_thresholds_reports_migrate() {
        assert_eq!(PAPER.step(0.95), Some(ThresholdAction::MigrateClients));
    }

    #[test]
    fn equal_thresholds_fire_migrate_only() {
        let m = ResourceMonitor {
            launch: 0.9,
            migrate: 0.9,
        };
        assert_eq!(m.step(0.89), None);
        assert_eq!(m.step(0.9), Some(ThresholdAction::MigrateClients));
    }
}

//! Typed recovery phases.
//!
//! A [`Phase`] is an instant marker naming one step of the proactive
//! recovery pipeline; the variants cover the full arc the paper
//! measures, from the injected leak being armed to the first reply a
//! client sees from the replacement replica.

use core::fmt;

/// One step of the proactive recovery pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The injected resource leak was armed on a server replica.
    LeakDetected,
    /// A two-step threshold fired: step 1 launches a replacement, step 2
    /// migrates clients (the paper's launch/migrate watermarks).
    ThresholdCrossed {
        /// Which step fired: 1 = launch replacement, 2 = migrate clients.
        step: u8,
    },
    /// The Recovery Manager launched a replacement replica.
    ReplicaLaunch,
    /// A client-side interceptor noticed the server connection die (the
    /// reactive detection that anchors NEEDS_ADDRESSING fail-overs, where
    /// no threshold ever fires).
    FaultDetected,
    /// A fail-over notice was issued: at the server for LOCATION_FORWARD
    /// bodies and piggybacked MEAD frames, at the client when a group
    /// address reply arrives (NEEDS_ADDRESSING).
    FailoverNotice,
    /// The client interceptor finished re-pointing a connection at the
    /// replacement replica (`dup2()`-style redirect complete).
    ClientRedirect,
    /// First GIOP reply delivered to the application after a redirect —
    /// the end of the paper's fail-over window.
    FirstReplyAfterFailover,
}

impl Phase {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            Phase::LeakDetected => "leak_detected",
            Phase::ThresholdCrossed { .. } => "threshold_crossed",
            Phase::ReplicaLaunch => "replica_launch",
            Phase::FaultDetected => "fault_detected",
            Phase::FailoverNotice => "failover_notice",
            Phase::ClientRedirect => "client_redirect",
            Phase::FirstReplyAfterFailover => "first_reply_after_failover",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::ThresholdCrossed { step } => write!(f, "threshold_crossed(step={step})"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::LeakDetected.name(), "leak_detected");
        assert_eq!(
            Phase::ThresholdCrossed { step: 2 }.name(),
            "threshold_crossed"
        );
        assert_eq!(
            Phase::ThresholdCrossed { step: 2 }.to_string(),
            "threshold_crossed(step=2)"
        );
        assert_eq!(
            Phase::FirstReplyAfterFailover.to_string(),
            "first_reply_after_failover"
        );
    }
}

//! Reconstructing the paper's fail-over-time breakdown from a trace.
//!
//! The paper decomposes fail-over into fault **detection**, fault
//! **notification**, **reconnection** and time to the **first successful
//! reply**. In trace terms one episode is the phase chain
//!
//! ```text
//! ThresholdCrossed{step:2} → FailoverNotice → ClientRedirect
//!                          → FirstReplyAfterFailover
//! ```
//!
//! anchored on the migrate decision (step 2 of the two-step threshold),
//! with detection measured from the preceding `LeakDetected` (fault
//! activation) when one is present. NEEDS_ADDRESSING crosses step 1 only
//! (it launches a replacement but migrates nobody) — its episodes are
//! anchored on `FaultDetected` instead, the
//! client-side EOF that starts the group address query, and detection is
//! measured from the crash (`Exit{crashed}`) the client is reacting to.

use crate::event::{EventKind, TraceEvent};
use crate::span::Phase;

/// One reconstructed fail-over episode (all times sim-nanoseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Episode {
    /// When the fault was armed (`LeakDetected`), if observed.
    pub fault_at: Option<u64>,
    /// When the fail-over was decided: the migrate threshold
    /// (`ThresholdCrossed{step:2}`) or the client noticing the dead
    /// connection (`FaultDetected`).
    pub detected_at: u64,
    /// When the fail-over notice reached the client side.
    pub notified_at: Option<u64>,
    /// When the client finished redirecting.
    pub redirected_at: Option<u64>,
    /// When the first post-redirect reply was delivered.
    pub first_reply_at: Option<u64>,
}

impl Episode {
    /// Detection stage: fault activation → migrate decision.
    pub fn detection_ns(&self) -> Option<u64> {
        self.fault_at.map(|f| self.detected_at.saturating_sub(f))
    }

    /// Notification stage: migrate decision → notice at the client.
    pub fn notification_ns(&self) -> Option<u64> {
        self.notified_at.map(|n| n.saturating_sub(self.detected_at))
    }

    /// Reconnection stage: notice → redirect complete.
    pub fn reconnection_ns(&self) -> Option<u64> {
        match (self.notified_at, self.redirected_at) {
            (Some(n), Some(r)) => Some(r.saturating_sub(n)),
            (None, Some(r)) => Some(r.saturating_sub(self.detected_at)),
            _ => None,
        }
    }

    /// First-reply stage: redirect complete → first reply delivered.
    pub fn first_reply_ns(&self) -> Option<u64> {
        match (self.redirected_at, self.first_reply_at) {
            (Some(r), Some(f)) => Some(f.saturating_sub(r)),
            _ => None,
        }
    }

    /// Whole fail-over window: migrate decision → first reply.
    pub fn total_ns(&self) -> Option<u64> {
        self.first_reply_at
            .map(|f| f.saturating_sub(self.detected_at))
    }
}

/// Groups a trace into fail-over episodes.
///
/// A `ThresholdCrossed{step:2}` or `FaultDetected` opens an episode
/// (closing any still-open one); subsequent `FailoverNotice` /
/// `ClientRedirect` / `FirstReplyAfterFailover` phases fill its stages,
/// first occurrence wins. The most recent preceding `LeakDetected`
/// anchors detection.
pub fn episodes(events: &[TraceEvent]) -> Vec<Episode> {
    let mut out = Vec::new();
    let mut open: Option<Episode> = None;
    let mut last_leak: Option<u64> = None;
    let mut last_crash: Option<u64> = None;
    for ev in events {
        let phase = match &ev.kind {
            EventKind::Phase(p) => *p,
            EventKind::Exit { crashed: true } => {
                last_crash = Some(ev.at_ns);
                continue;
            }
            _ => continue,
        };
        match phase {
            Phase::LeakDetected => last_leak = Some(ev.at_ns),
            Phase::ThresholdCrossed { step: 2 } | Phase::FaultDetected => {
                if let Some(ep) = open.take() {
                    out.push(ep);
                }
                let reactive = phase == Phase::FaultDetected;
                open = Some(Episode {
                    // Proactive episodes react to the leak; a reactive
                    // `FaultDetected` reacts to the crash itself.
                    fault_at: if reactive {
                        last_crash.or(last_leak)
                    } else {
                        last_leak
                    },
                    detected_at: ev.at_ns,
                    ..Episode::default()
                });
            }
            Phase::FailoverNotice => {
                if let Some(ep) = open.as_mut() {
                    if ep.notified_at.is_none() {
                        ep.notified_at = Some(ev.at_ns);
                    }
                }
            }
            Phase::ClientRedirect => {
                if let Some(ep) = open.as_mut() {
                    if ep.redirected_at.is_none() {
                        ep.redirected_at = Some(ev.at_ns);
                    }
                }
            }
            Phase::FirstReplyAfterFailover => {
                if let Some(ep) = open.as_mut() {
                    if ep.first_reply_at.is_none() {
                        ep.first_reply_at = Some(ev.at_ns);
                        out.push(open.take().expect("episode is open"));
                    }
                }
            }
            Phase::ThresholdCrossed { .. } | Phase::ReplicaLaunch => {}
        }
    }
    if let Some(ep) = open {
        out.push(ep);
    }
    out
}

/// Mean/min/max over the episodes that observed a given stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Episodes contributing to this stage.
    pub samples: u64,
    /// Integer mean, sim-nanoseconds.
    pub mean_ns: u64,
    /// Minimum, sim-nanoseconds.
    pub min_ns: u64,
    /// Maximum, sim-nanoseconds.
    pub max_ns: u64,
}

impl StageStats {
    fn from_samples(values: impl Iterator<Item = u64>) -> StageStats {
        let mut s = StageStats {
            min_ns: u64::MAX,
            ..StageStats::default()
        };
        let mut sum = 0u128;
        for v in values {
            s.samples += 1;
            sum += v as u128;
            s.min_ns = s.min_ns.min(v);
            s.max_ns = s.max_ns.max(v);
        }
        if s.samples == 0 {
            s.min_ns = 0;
        } else {
            s.mean_ns = (sum / s.samples as u128) as u64;
        }
        s
    }
}

/// The per-stage aggregate table for one trace: `(detection,
/// notification, reconnection, first_reply, total)`.
pub fn stage_table(eps: &[Episode]) -> [StageStats; 5] {
    [
        StageStats::from_samples(eps.iter().filter_map(Episode::detection_ns)),
        StageStats::from_samples(eps.iter().filter_map(Episode::notification_ns)),
        StageStats::from_samples(eps.iter().filter_map(Episode::reconnection_ns)),
        StageStats::from_samples(eps.iter().filter_map(Episode::first_reply_ns)),
        StageStats::from_samples(eps.iter().filter_map(Episode::total_ns)),
    ]
}

/// Names for the rows of [`stage_table`], in order.
pub const STAGE_NAMES: [&str; 5] = [
    "detection",
    "notification",
    "reconnection",
    "first_reply",
    "total",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_ev(seq: u64, at_ns: u64, p: Phase) -> TraceEvent {
        TraceEvent {
            seq,
            at_ns,
            node: 0,
            pid: 0,
            kind: EventKind::Phase(p),
        }
    }

    #[test]
    fn one_full_episode() {
        let tr = vec![
            phase_ev(0, 100, Phase::LeakDetected),
            phase_ev(1, 500, Phase::ThresholdCrossed { step: 1 }),
            phase_ev(2, 1_000, Phase::ThresholdCrossed { step: 2 }),
            phase_ev(3, 1_300, Phase::FailoverNotice),
            phase_ev(4, 2_000, Phase::ClientRedirect),
            phase_ev(5, 2_700, Phase::FirstReplyAfterFailover),
        ];
        let eps = episodes(&tr);
        assert_eq!(eps.len(), 1);
        let e = eps[0];
        assert_eq!(e.detection_ns(), Some(900));
        assert_eq!(e.notification_ns(), Some(300));
        assert_eq!(e.reconnection_ns(), Some(700));
        assert_eq!(e.first_reply_ns(), Some(700));
        assert_eq!(e.total_ns(), Some(1_700));
    }

    #[test]
    fn fault_detected_anchors_a_threshold_free_episode() {
        // NEEDS_ADDRESSING: no threshold ever fires; the client-side EOF
        // opens the episode and the group address reply is the notice.
        // Detection is anchored on the crash, not the leak arming.
        let tr = vec![
            phase_ev(0, 50, Phase::LeakDetected),
            TraceEvent {
                seq: 9,
                at_ns: 100,
                node: 1,
                pid: 3,
                kind: EventKind::Exit { crashed: true },
            },
            phase_ev(1, 2_000, Phase::FaultDetected),
            phase_ev(2, 2_600, Phase::FailoverNotice),
            phase_ev(3, 3_100, Phase::ClientRedirect),
            phase_ev(4, 3_900, Phase::FirstReplyAfterFailover),
        ];
        let eps = episodes(&tr);
        assert_eq!(eps.len(), 1);
        let e = eps[0];
        assert_eq!(e.detection_ns(), Some(1_900));
        assert_eq!(e.notification_ns(), Some(600));
        assert_eq!(e.reconnection_ns(), Some(500));
        assert_eq!(e.first_reply_ns(), Some(800));
        assert_eq!(e.total_ns(), Some(1_900));
    }

    #[test]
    fn missing_notice_folds_into_reconnection() {
        let tr = vec![
            phase_ev(0, 1_000, Phase::ThresholdCrossed { step: 2 }),
            phase_ev(1, 1_900, Phase::ClientRedirect),
            phase_ev(2, 2_400, Phase::FirstReplyAfterFailover),
        ];
        let eps = episodes(&tr);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].notification_ns(), None);
        assert_eq!(eps[0].reconnection_ns(), Some(900));
    }

    #[test]
    fn reopening_threshold_closes_previous_episode() {
        let tr = vec![
            phase_ev(0, 1_000, Phase::ThresholdCrossed { step: 2 }),
            phase_ev(1, 1_500, Phase::FailoverNotice),
            phase_ev(2, 5_000, Phase::ThresholdCrossed { step: 2 }),
            phase_ev(3, 5_400, Phase::FailoverNotice),
            phase_ev(4, 5_900, Phase::ClientRedirect),
            phase_ev(5, 6_300, Phase::FirstReplyAfterFailover),
        ];
        let eps = episodes(&tr);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].first_reply_at, None);
        assert_eq!(eps[1].total_ns(), Some(1_300));
    }

    #[test]
    fn stage_table_aggregates() {
        let tr = vec![
            phase_ev(0, 0, Phase::ThresholdCrossed { step: 2 }),
            phase_ev(1, 100, Phase::FailoverNotice),
            phase_ev(2, 300, Phase::ClientRedirect),
            phase_ev(3, 600, Phase::FirstReplyAfterFailover),
            phase_ev(4, 10_000, Phase::ThresholdCrossed { step: 2 }),
            phase_ev(5, 10_300, Phase::FailoverNotice),
            phase_ev(6, 10_700, Phase::ClientRedirect),
            phase_ev(7, 11_200, Phase::FirstReplyAfterFailover),
        ];
        let table = stage_table(&episodes(&tr));
        // notification: 100 and 300 → mean 200
        assert_eq!(table[1].samples, 2);
        assert_eq!(table[1].mean_ns, 200);
        assert_eq!(table[1].min_ns, 100);
        assert_eq!(table[1].max_ns, 300);
        // total: 600 and 1200 → mean 900
        assert_eq!(table[4].mean_ns, 900);
    }
}

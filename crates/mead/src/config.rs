//! MEAD configuration: recovery scheme selection, thresholds and their
//! trigger.

use faults::{LeakConfig, PressureConfig};
use simnet::SimDuration;

/// The recovery strategy in force, covering the paper's three proactive
/// schemes (section 4) and two reactive baselines (section 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryScheme {
    /// Reactive: the client recovers on its own via the Naming Service
    /// after each `COMM_FAILURE`. The Table 1 baseline.
    ReactiveNoCache,
    /// Reactive: the client pre-resolves all replica references into a
    /// local cache and walks it on failure (stale entries cause
    /// `TRANSIENT` exceptions).
    ReactiveCache,
    /// GIOP `NEEDS_ADDRESSING_MODE` (section 4.2): the *client-side*
    /// interceptor masks abrupt server failures — EOF is suppressed, the
    /// server group is asked for the new primary, the connection is
    /// redirected and a fabricated reply makes the ORB resend.
    NeedsAddressing,
    /// GIOP `LOCATION_FORWARD` (section 4.1): the *server-side*
    /// interceptor, past the migrate threshold, replaces normal replies
    /// with forwards carrying the next replica's IOR.
    LocationForward,
    /// MEAD proactive fail-over messages (section 4.3): piggybacked on
    /// replies, acted on by the client-side interceptor via a
    /// `dup2()`-style connection redirect.
    MeadFailover,
}

impl RecoveryScheme {
    /// All five strategies, in Table 1 order.
    pub const ALL: [RecoveryScheme; 5] = [
        RecoveryScheme::ReactiveNoCache,
        RecoveryScheme::ReactiveCache,
        RecoveryScheme::NeedsAddressing,
        RecoveryScheme::LocationForward,
        RecoveryScheme::MeadFailover,
    ];

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryScheme::ReactiveNoCache => "Reactive Without Cache",
            RecoveryScheme::ReactiveCache => "Reactive With Cache",
            RecoveryScheme::NeedsAddressing => "NEEDS ADDRESSING Mode",
            RecoveryScheme::LocationForward => "LOCATION FORWARD",
            RecoveryScheme::MeadFailover => "MEAD Message",
        }
    }

    /// The one machine spelling of the scheme: scenario files, cell
    /// labels and `--scheme` all use it ([`FromStr`](std::str::FromStr)
    /// is the inverse).
    pub fn key(self) -> &'static str {
        match self {
            RecoveryScheme::ReactiveNoCache => "reactive_no_cache",
            RecoveryScheme::ReactiveCache => "reactive_cache",
            RecoveryScheme::NeedsAddressing => "needs_addressing",
            RecoveryScheme::LocationForward => "location_forward",
            RecoveryScheme::MeadFailover => "mead_failover",
        }
    }

    /// `true` for the paper's three proactive schemes (section 4): each
    /// launches a replacement at the first threshold.
    pub fn is_proactive(self) -> bool {
        !matches!(
            self,
            RecoveryScheme::ReactiveNoCache | RecoveryScheme::ReactiveCache
        )
    }

    /// `true` for the proactive schemes that also migrate clients before
    /// the crash, at the second threshold.
    pub fn is_proactive_migration(self) -> bool {
        matches!(
            self,
            RecoveryScheme::LocationForward | RecoveryScheme::MeadFailover
        )
    }

    /// `true` when a client-side interceptor is deployed.
    pub fn has_client_interceptor(self) -> bool {
        matches!(
            self,
            RecoveryScheme::NeedsAddressing | RecoveryScheme::MeadFailover
        )
    }
}

/// A scheme name that is none of the five [`RecoveryScheme::key`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownScheme(pub String);

impl std::fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d, e] = RecoveryScheme::ALL.map(RecoveryScheme::key);
        write!(
            f,
            "unknown scheme \"{}\" (expected {a}, {b}, {c}, {d} or {e})",
            self.0
        )
    }
}

impl std::error::Error for UnknownScheme {}

impl std::str::FromStr for RecoveryScheme {
    type Err = UnknownScheme;

    fn from_str(name: &str) -> Result<Self, UnknownScheme> {
        RecoveryScheme::ALL
            .into_iter()
            .find(|s| s.key() == name)
            .ok_or_else(|| UnknownScheme(name.to_string()))
    }
}

/// Which trigger checks the resource usage against the two-step
/// thresholds: the one real choice among the Fault-Tolerance Manager's
/// settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// On the write path, against the preset thresholds: "proactive
    /// recovery needs to be triggered only when there are active client
    /// connections" (section 3.1). The paper's choice, and the
    /// builder's.
    OnWrite,
    /// The adaptive rate-estimating predictor (the paper's future work,
    /// section 6), sampled on the leak (or pressure) timer, whose clean
    /// usage deltas its rate estimate needs: steps are reached when the
    /// *predicted time to exhaustion* crosses its safety margins instead
    /// of at fixed usage fractions.
    Adaptive,
}

/// Complete MEAD deployment configuration shared by the interceptors and
/// the Recovery Manager: what a run decides. The calibrated costs and
/// the deployment's fixed names and sizes are constants next to the code
/// that charges them (DESIGN §7).
#[derive(Clone, Debug)]
pub struct MeadConfig {
    /// Strategy in force.
    pub scheme: RecoveryScheme,
    /// Second (migrate) threshold as a fraction, e.g. 0.9. The first
    /// (launch) threshold trails it by the paper's 10-point gap.
    pub migrate_threshold: f64,
    /// Memory-leak fault injected at the primary (section 5.1). `None`
    /// disables fault injection (fault-free runs).
    pub leak: Option<LeakConfig>,
    /// Resource-pressure fault (CPU-exhaustion ramp or fd leak) armed at
    /// an absolute instant; feeds the same two-step thresholds as the
    /// leak. Replicas started *after* the activation instant never arm it
    /// (a fresh replacement does not inherit the runaway). `None` (the
    /// default, and the paper's configuration) disables it.
    pub pressure: Option<PressureConfig>,
    /// Warm-passive checkpoint interval (primary → backups over GCS).
    pub checkpoint_interval: SimDuration,
    /// Use the 16-bit object-key hash for IOR lookups (section 4.1's
    /// optimisation); `false` falls back to byte-wise comparison
    /// (ablation).
    pub use_key_hash: bool,
    /// What checks the thresholds.
    pub trigger: Trigger,
    /// Hold each client reply until the checkpoint covering it has been
    /// self-delivered through the totally-ordered group (commit-before-
    /// ack). Off by default: the paper's warm-passive transfer replies
    /// immediately and tolerates a small state-staleness window, which
    /// is what Table 1 measures. The chaos campaign turns this on to get
    /// exactly-once fail-over semantics.
    pub commit_acks: bool,
    /// Observability verbosity this deployment asks of the simulation
    /// trace ([`obs::TraceLevel`]); the scenario runner applies it to the
    /// kernel recorder before the run starts.
    pub trace_level: obs::TraceLevel,
}

impl MeadConfig {
    /// Starts a builder seeded with the paper's configuration for
    /// `scheme`: the 80 %/90 % threshold pair, the write-path trigger and
    /// the standard memory leak. `MeadConfig::builder(s).build()`
    /// reproduces the Table 1 deployment for scheme `s` exactly.
    pub fn builder(scheme: RecoveryScheme) -> MeadConfigBuilder {
        MeadConfigBuilder {
            cfg: MeadConfig {
                scheme,
                migrate_threshold: 0.9,
                leak: Some(LeakConfig::default()),
                pressure: None,
                checkpoint_interval: SimDuration::from_millis(250),
                use_key_hash: true,
                trigger: Trigger::OnWrite,
                commit_acks: false,
                trace_level: obs::TraceLevel::Recovery,
            },
        }
    }
}

/// Builder returned by [`MeadConfig::builder`]; every field starts at the
/// paper's value, and the one knob an experiment sweeps has a method.
#[derive(Clone, Debug)]
pub struct MeadConfigBuilder {
    cfg: MeadConfig,
}

impl MeadConfigBuilder {
    /// Sets the migrate threshold (the Figure 5 sweep's single knob),
    /// clamped to [0.05, 1]; the launch threshold follows it.
    pub fn migrate_threshold(mut self, threshold: f64) -> Self {
        self.cfg.migrate_threshold = threshold.clamp(0.05, 1.0);
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> MeadConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_match_table1() {
        assert_eq!(
            RecoveryScheme::ReactiveNoCache.name(),
            "Reactive Without Cache"
        );
        assert_eq!(RecoveryScheme::MeadFailover.name(), "MEAD Message");
        assert_eq!(RecoveryScheme::ALL.len(), 5);
    }

    #[test]
    fn scheme_keys_round_trip_and_unknown_names_list_the_five() {
        for scheme in RecoveryScheme::ALL {
            assert_eq!(scheme.key().parse(), Ok(scheme));
        }
        let err = "mead".parse::<RecoveryScheme>().unwrap_err();
        assert_eq!(err, UnknownScheme("mead".to_string()));
        for scheme in RecoveryScheme::ALL {
            assert!(err.to_string().contains(scheme.key()), "{err}");
        }
    }

    #[test]
    fn proactive_predicates() {
        assert!(RecoveryScheme::LocationForward.is_proactive_migration());
        assert!(RecoveryScheme::MeadFailover.is_proactive_migration());
        assert!(!RecoveryScheme::NeedsAddressing.is_proactive_migration());
        assert!(RecoveryScheme::NeedsAddressing.is_proactive());
        assert!(!RecoveryScheme::ReactiveCache.is_proactive());
        assert!(RecoveryScheme::NeedsAddressing.has_client_interceptor());
        assert!(!RecoveryScheme::LocationForward.has_client_interceptor());
        assert!(!RecoveryScheme::ReactiveNoCache.has_client_interceptor());
    }

    #[test]
    fn builder_defaults_match_the_paper() {
        let cfg = MeadConfig::builder(RecoveryScheme::MeadFailover).build();
        assert_eq!(cfg.migrate_threshold, 0.9);
        assert!(cfg.leak.is_some());
        assert!(cfg.use_key_hash);
        // Paper fidelity: replies are immediate unless an experiment opts
        // in to the hardened behaviour.
        assert!(!cfg.commit_acks);
        assert_eq!(cfg.trigger, Trigger::OnWrite);
        assert_eq!(cfg.trace_level, obs::TraceLevel::Recovery);
    }

    #[test]
    fn builder_clamps_the_migrate_threshold() {
        for (asked, set) in [(0.2, 0.2), (0.01, 0.05), (1.5, 1.0)] {
            let cfg = MeadConfig::builder(RecoveryScheme::MeadFailover)
                .migrate_threshold(asked)
                .build();
            assert_eq!(cfg.migrate_threshold, set, "asked {asked}");
        }
    }
}

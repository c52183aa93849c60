//! MEAD configuration: recovery scheme selection, thresholds, and the
//! interceptor cost model.

use faults::{AdaptiveConfig, LeakConfig, PressureConfig};
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

    /// `true` for the proactive schemes that migrate clients before the
    /// crash (thresholds below 100 %).
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

/// Interceptor cost model. These per-message CPU charges are what turn
/// into the "% increase in RTT" column of Table 1; the defaults are
/// calibrated against the paper's 850 MHz testbed (baseline RTT 0.75 ms):
///
/// * `LOCATION_FORWARD` parses every GIOP request *and* reply to track
///   `request_id`s and object keys → ≈90 % overhead;
/// * `NEEDS_ADDRESSING` tracks request ids only (no object keys, no IOR
///   table) → ≈8 %;
/// * MEAD messages need only a frame-header scan → ≈3 %.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Full GIOP header+body parse and table upkeep, per message
    /// (LOCATION_FORWARD scheme; charged on both request and reply paths).
    pub giop_parse_cpu: SimDuration,
    /// Light parse extracting only the request id, plus the reply-path
    /// frame scan (NEEDS_ADDRESSING; charged once per invocation on the
    /// client's request path).
    pub request_track_cpu: SimDuration,
    /// Frame-magic/length scan (MEAD scheme). Charged once per invocation
    /// on the server's reply path; it covers both interceptor halves,
    /// since the client half's work happens between reply arrival and
    /// delivery and is folded here for observability.
    pub frame_scan_cpu: SimDuration,
    /// IOR-table lookup via the 16-bit object-key hash, per forward.
    pub ior_lookup_cpu: SimDuration,
    /// Byte-by-byte object-key comparison (ablation of the 16-bit hash).
    pub ior_bytewise_cpu: SimDuration,
    /// Fabricating a reply / rewriting a message.
    pub fabricate_cpu: SimDuration,
    /// The first-listed replica's work to answer an `AddressQuery`
    /// (section 4.2): consulting the membership listing and re-multicasting
    /// through the group-communication stack.
    pub address_reply_cpu: SimDuration,
    /// Completing a `dup2()`-style connection redirect at the client:
    /// socket teardown/re-pointing plus interceptor bookkeeping. Far
    /// cheaper than an ORB-level reconnect (~6 ms) — this asymmetry is the
    /// source of the MEAD scheme's 73.9 % fail-over win.
    pub redirect_cpu: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            giop_parse_cpu: SimDuration::from_micros(330),
            request_track_cpu: SimDuration::from_micros(60),
            frame_scan_cpu: SimDuration::from_micros(22),
            ior_lookup_cpu: SimDuration::from_micros(15),
            ior_bytewise_cpu: SimDuration::from_micros(60),
            fabricate_cpu: SimDuration::from_micros(80),
            address_reply_cpu: SimDuration::from_micros(700),
            redirect_cpu: SimDuration::from_micros(1250),
        }
    }
}

/// Complete MEAD deployment configuration shared by the interceptors and
/// the Recovery Manager.
#[derive(Clone, Debug)]
pub struct MeadConfig {
    /// Strategy in force.
    pub scheme: RecoveryScheme,
    /// First (launch) threshold as a fraction, e.g. 0.8.
    pub launch_threshold: f64,
    /// Second (migrate) threshold as a fraction, e.g. 0.9.
    pub migrate_threshold: f64,
    /// Interceptor cost model.
    pub costs: CostModel,
    /// Memory-leak fault injected at the primary (section 5.1). `None`
    /// disables fault injection (fault-free runs).
    pub leak: Option<LeakConfig>,
    /// Resource-pressure fault (CPU-exhaustion ramp or fd leak) armed at
    /// an absolute instant; feeds the same two-step thresholds as the
    /// leak. Replicas started *after* the activation instant never arm it
    /// (a fresh replacement does not inherit the runaway). `None` (the
    /// default, and the paper's configuration) disables it.
    pub pressure: Option<PressureConfig>,
    /// Group that replicas and the Recovery Manager join.
    pub server_group: String,
    /// Warm-passive checkpoint interval (primary → backups over GCS).
    pub checkpoint_interval: SimDuration,
    /// Checkpoint payload size (application state size).
    pub checkpoint_bytes: usize,
    /// How long a migrating replica waits after notifying all clients
    /// before exiting gracefully.
    pub drain_delay: SimDuration,
    /// Client-side wait for an `AddressReply` before exposing the failure
    /// (paper: "we used a 10 ms timeout").
    pub address_query_timeout: SimDuration,
    /// Use the 16-bit object-key hash for IOR lookups (section 4.1's
    /// optimisation); `false` falls back to byte-wise comparison
    /// (ablation).
    pub use_key_hash: bool,
    /// Replace the preset two-step thresholds with the adaptive
    /// rate-estimating predictor (the paper's future work, section 6):
    /// actions fire when the *predicted time to exhaustion* crosses the
    /// configured safety margins instead of at fixed usage fractions.
    pub adaptive: Option<AdaptiveConfig>,
    /// Check thresholds from the periodic leak timer instead of on the
    /// write path. The paper rejected timer-driven monitoring ("proactive
    /// recovery needs to be triggered only when there are active client
    /// connections", section 3.1); `true` enables it as an ablation:
    /// crossings are detected at timer granularity rather than at the next
    /// client interaction.
    pub poll_thresholds: bool,
    /// Number of Recovery Manager instances. `1` reproduces the paper's
    /// deliberate single point of failure (DESIGN §6.5); higher values
    /// replicate the RM warm-passively over `groupcomm` with leader
    /// election on view change (chaos-campaign hardening, DESIGN §8).
    pub rm_instances: u32,
    /// Group the Recovery Manager instances join for leader election and
    /// warm-passive state exchange.
    pub manager_group: String,
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
    /// `scheme`: the 80 %/90 % threshold pair, the calibrated cost model
    /// and the standard memory leak. `MeadConfig::builder(s).build()`
    /// reproduces the Table 1 deployment for scheme `s` exactly.
    pub fn builder(scheme: RecoveryScheme) -> MeadConfigBuilder {
        MeadConfigBuilder {
            cfg: MeadConfig {
                scheme,
                launch_threshold: 0.8,
                migrate_threshold: 0.9,
                costs: CostModel::default(),
                leak: Some(LeakConfig::default()),
                pressure: None,
                server_group: "servers".to_string(),
                checkpoint_interval: SimDuration::from_millis(250),
                checkpoint_bytes: 128,
                drain_delay: SimDuration::from_millis(5),
                address_query_timeout: SimDuration::from_millis(10),
                use_key_hash: true,
                adaptive: None,
                poll_thresholds: false,
                rm_instances: 1,
                manager_group: "managers".to_string(),
                commit_acks: false,
                trace_level: obs::TraceLevel::Recovery,
            },
        }
    }
}

/// Builder returned by [`MeadConfig::builder`]; every knob defaults to
/// the paper's values, so experiments state only what they vary.
#[derive(Clone, Debug)]
pub struct MeadConfigBuilder {
    cfg: MeadConfig,
}

impl MeadConfigBuilder {
    /// Sets both two-step thresholds explicitly. Both are clamped to
    /// (0, 1] and `launch` is capped at `migrate` (the launch step can
    /// never follow the migrate step).
    pub fn thresholds(mut self, launch: f64, migrate: f64) -> Self {
        self.cfg.migrate_threshold = migrate.clamp(0.05, 1.0);
        self.cfg.launch_threshold = launch.clamp(0.01, self.cfg.migrate_threshold);
        self
    }

    /// Sets the migrate threshold with the launch threshold trailing it
    /// by the paper's 10-point gap (the Figure 5 sweep's single knob).
    pub fn migrate_threshold(self, threshold: f64) -> Self {
        self.thresholds(threshold - 0.1, threshold)
    }

    /// Replaces the interceptor cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.cfg.costs = costs;
        self
    }

    /// Sets (or, with `None`, disables) the injected memory leak.
    pub fn leak(mut self, leak: Option<LeakConfig>) -> Self {
        self.cfg.leak = leak;
        self
    }

    /// Sets (or, with `None`, disables) the resource-pressure fault.
    pub fn pressure(mut self, pressure: Option<PressureConfig>) -> Self {
        self.cfg.pressure = pressure;
        self
    }

    /// Sets the observability trace verbosity for the deployment.
    pub fn trace_level(mut self, level: obs::TraceLevel) -> Self {
        self.cfg.trace_level = level;
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
        assert!(RecoveryScheme::NeedsAddressing.has_client_interceptor());
        assert!(!RecoveryScheme::LocationForward.has_client_interceptor());
        assert!(!RecoveryScheme::ReactiveNoCache.has_client_interceptor());
    }

    #[test]
    fn builder_defaults_match_the_paper() {
        let cfg = MeadConfig::builder(RecoveryScheme::MeadFailover).build();
        assert_eq!(cfg.launch_threshold, 0.8);
        assert_eq!(cfg.migrate_threshold, 0.9);
        assert!(cfg.leak.is_some());
        assert!(cfg.use_key_hash);
        // Paper fidelity: the RM stays a SPOF and replies are immediate
        // unless an experiment opts in to the hardened behaviour.
        assert_eq!(cfg.rm_instances, 1);
        assert_eq!(cfg.manager_group, "managers");
        assert!(!cfg.commit_acks);
        assert_eq!(cfg.trace_level, obs::TraceLevel::Recovery);
    }

    #[test]
    fn builder_threshold_sweep_keeps_gap_and_bounds() {
        let cfg = MeadConfig::builder(RecoveryScheme::MeadFailover)
            .migrate_threshold(0.2)
            .build();
        assert!((cfg.migrate_threshold - 0.2).abs() < 1e-9);
        assert!((cfg.launch_threshold - 0.1).abs() < 1e-9);
        let cfg = MeadConfig::builder(RecoveryScheme::MeadFailover)
            .migrate_threshold(0.05)
            .build();
        assert!(cfg.launch_threshold <= cfg.migrate_threshold);
        assert!(cfg.launch_threshold > 0.0);
    }

    #[test]
    fn builder_explicit_knobs() {
        let cfg = MeadConfig::builder(RecoveryScheme::LocationForward)
            .thresholds(0.5, 0.7)
            .leak(None)
            .trace_level(obs::TraceLevel::Kernel)
            .build();
        assert_eq!(cfg.scheme, RecoveryScheme::LocationForward);
        assert!((cfg.launch_threshold - 0.5).abs() < 1e-9);
        assert!((cfg.migrate_threshold - 0.7).abs() < 1e-9);
        assert!(cfg.leak.is_none());
        assert_eq!(cfg.trace_level, obs::TraceLevel::Kernel);
        // launch can never trail migrate: it is capped.
        let cfg = MeadConfig::builder(RecoveryScheme::MeadFailover)
            .thresholds(0.9, 0.6)
            .build();
        assert!(cfg.launch_threshold <= cfg.migrate_threshold);
    }
}

//! Fail-over time decomposition (section 5.2.3).
//!
//! The paper explains each scheme's fail-over time as a sum of stages
//! (exception registration, naming resolution, reconnection, request
//! retransmission). This module measures the distribution of episode
//! times per scheme and reports the model-side stage budget for
//! comparison.

use mead::{RecoveryScheme, ADDRESS_REPLY_CPU, FABRICATE_CPU, GIOP_PARSE_CPU, REDIRECT_CPU};
use orb::{COMM_FAILURE_CPU, CONNECT_CPU};

use crate::report::failover_episodes_ms;
use crate::scenario::ScenarioOutcome;
use crate::stats::Summary;

/// Measured fail-over distribution for one scheme.
#[derive(Clone, Debug)]
pub struct FailoverRow {
    /// Strategy.
    pub scheme: RecoveryScheme,
    /// Episode summary (ms).
    pub summary: Option<Summary>,
    /// Number of server-side failures.
    pub server_failures: u64,
    /// Stage budget from the cost model, for the dominant path (ms).
    pub model_budget_ms: f64,
    /// Human-readable stage decomposition.
    pub decomposition: String,
}

/// The model-side stage budget for each scheme's dominant fail-over path,
/// derived from the calibrated cost constants (mirrors the arithmetic of
/// section 5.2.3).
pub fn model_budget(scheme: RecoveryScheme) -> (f64, String) {
    let ms = |d: simnet::SimDuration| d.as_millis_f64();
    // Transport legs at the default latency model (~0.35 ms one way).
    let one_way = 0.35;
    let rtt = 2.0 * one_way + 0.1;
    match scheme {
        RecoveryScheme::ReactiveNoCache => {
            let detect = one_way + ms(COMM_FAILURE_CPU) + 0.7;
            let resolve = rtt + 0.9; // naming round trip + servant cost
            let reconnect = 2.0 * one_way + ms(CONNECT_CPU);
            let retry = rtt;
            (
                detect + resolve + reconnect + retry,
                format!(
                    "detect {detect:.1} + resolve {resolve:.1} + reconnect {reconnect:.1} + retry {retry:.1}"
                ),
            )
        }
        RecoveryScheme::ReactiveCache => {
            let detect = one_way + ms(COMM_FAILURE_CPU);
            let reconnect = 2.0 * one_way + ms(CONNECT_CPU);
            let retry = rtt;
            (
                detect + reconnect + retry,
                format!("detect {detect:.1} + reconnect {reconnect:.1} + retry {retry:.1} (non-stale path)"),
            )
        }
        RecoveryScheme::NeedsAddressing => {
            let detect = one_way;
            let query = 4.0 * one_way + ms(ADDRESS_REPLY_CPU);
            let redirect = 2.0 * one_way + ms(REDIRECT_CPU);
            let resend = rtt;
            (
                detect + query + redirect + resend,
                format!(
                    "detect {detect:.1} + group query {query:.1} + redirect {redirect:.1} + resend {resend:.1} (answered path)"
                ),
            )
        }
        RecoveryScheme::LocationForward => {
            let forward_leg = rtt + ms(GIOP_PARSE_CPU) + ms(FABRICATE_CPU);
            let reconnect = 2.0 * one_way + ms(CONNECT_CPU);
            let resend = rtt;
            (
                forward_leg + reconnect + resend,
                format!(
                    "forward reply {forward_leg:.1} + ORB reconnect {reconnect:.1} + resend {resend:.1}"
                ),
            )
        }
        RecoveryScheme::MeadFailover => {
            let notice_leg = rtt;
            let raw_connect = 2.0 * one_way;
            let redirect = ms(REDIRECT_CPU);
            (
                notice_leg + raw_connect + redirect,
                format!(
                    "piggybacked notice {notice_leg:.1} + raw connect {raw_connect:.1} + dup2 redirect {redirect:.1}"
                ),
            )
        }
    }
}

/// Builds a fail-over row from an existing outcome.
pub fn failover_row_from(scheme: RecoveryScheme, outcome: &ScenarioOutcome) -> FailoverRow {
    let episodes = failover_episodes_ms(outcome, scheme);
    let (model_budget_ms, decomposition) = model_budget(scheme);
    FailoverRow {
        scheme,
        summary: Summary::of(&episodes),
        server_failures: outcome.server_failures(),
        model_budget_ms,
        decomposition,
    }
}

/// Formats the decomposition table.
pub fn format_failover(rows: &[FailoverRow]) -> String {
    let mut out = String::from(
        "Scheme                   | episodes | mean (ms) | p50    | max    | model (ms) | decomposition\n",
    );
    out.push_str(
        "-------------------------+----------+-----------+--------+--------+------------+--------------\n",
    );
    for r in rows {
        let (n, mean, p50, max) = r
            .summary
            .as_ref()
            .map(|s| (s.n, s.mean, s.p50, s.max))
            .unwrap_or((0, f64::NAN, f64::NAN, f64::NAN));
        out.push_str(&format!(
            "{:<24} | {:>8} | {:>9.3} | {:>6.2} | {:>6.2} | {:>10.2} | {}\n",
            r.scheme.name(),
            n,
            mean,
            p50,
            max,
            r.model_budget_ms,
            r.decomposition,
        ));
    }
    out
}

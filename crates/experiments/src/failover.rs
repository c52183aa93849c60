//! Fail-over time decomposition (section 5.2.3).
//!
//! The paper explains each scheme's fail-over time as a sum of stages
//! (exception registration, naming resolution, reconnection, request
//! retransmission). This module measures the distribution of episode
//! times per scheme next to the model-side stage budget, and rebuilds
//! the stages of each episode from the trace.

use mead::{RecoveryScheme, ADDRESS_REPLY_CPU, FABRICATE_CPU, GIOP_PARSE_CPU, REDIRECT_CPU};
use orb::{COMM_FAILURE_CPU, CONNECT_CPU};

use crate::report::failover_episodes_ms;
use crate::scenario::{ScenarioConfig, ScenarioOutcome};
use crate::stats::Summary;

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

/// The episode table of `cells`: each scheme's fail-over episodes,
/// measured from its invocation records, next to its cost-model budget.
pub fn format_failover(cells: &[(&ScenarioConfig, &ScenarioOutcome)]) -> String {
    let mut out = String::from(
        "Scheme                   | episodes | mean (ms) | p50    | max    | model (ms) | decomposition\n\
         -------------------------+----------+-----------+--------+--------+------------+--------------\n",
    );
    for (cfg, outcome) in cells {
        let (n, mean, p50, max) = Summary::of(&failover_episodes_ms(outcome, cfg.scheme))
            .map_or((0, f64::NAN, f64::NAN, f64::NAN), |s| {
                (s.n, s.mean, s.p50, s.max)
            });
        let (budget, decomposition) = model_budget(cfg.scheme);
        out += &format!(
            "{:<24} | {n:>8} | {mean:>9.3} | {p50:>6.2} | {max:>6.2} | {budget:>10.2} | {decomposition}\n",
            cfg.scheme.name(),
        );
    }
    out
}

/// The stage table of each cell's episodes, rebuilt from its trace alone
/// ([`obs::episodes`], [`obs::stage_table`]).
pub fn format_stages(cells: &[(&ScenarioConfig, &ScenarioOutcome)]) -> String {
    let mut out = String::new();
    for (cfg, outcome) in cells {
        let eps = obs::episodes(&outcome.trace);
        out += &format!(
            "{} — {} episodes\n\
             \x20 stage         | samples | mean (ms) |  min (ms) |  max (ms)\n\
             \x20 --------------+---------+-----------+-----------+----------\n",
            cfg.scheme.name(),
            eps.len()
        );
        for (name, s) in obs::STAGE_NAMES.iter().zip(&obs::stage_table(&eps)) {
            let [mean, min, max] = [s.mean_ns, s.min_ns, s.max_ns].map(|ns| ns as f64 / 1e6);
            out += &format!(
                "  {name:<13} | {:>7} | {mean:>9.3} | {min:>9.3} | {max:>9.3}\n",
                s.samples
            );
        }
        out.push('\n');
    }
    out
}

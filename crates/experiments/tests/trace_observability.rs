//! Observability regressions: traces are part of the deterministic
//! outcome, and the phase vocabulary tells the paper's fail-over story.
//!
//! * the JSONL serialisation of every scenario trace must be
//!   byte-identical whether the batch runs on 1 or 4 worker threads
//!   (equal traces ⇔ equal bytes, so this pins event order, timestamps
//!   and sequence numbers, not just a digest);
//! * a LOCATION_FORWARD run must emit the scripted phase chain the
//!   breakdown reconstruction is keyed on: launch threshold → migrate
//!   threshold → fail-over notice → client redirect → first reply;
//! * the Table 1 fail-over episodes the application never sees (a MEAD
//!   redirect, an EOF NEEDS_ADDRESSING suppresses) are found from the
//!   trace alone.

use experiments::{
    failover_episodes_ms, render_trace_sections, run_batch, ScenarioConfig, ScenarioOutcome,
};
use mead::RecoveryScheme;
use obs::{EventKind, Phase};

/// A small cross-scheme batch: every scheme's instrumentation runs.
fn batch() -> Vec<ScenarioConfig> {
    RecoveryScheme::ALL
        .into_iter()
        .map(|scheme| ScenarioConfig::quick(scheme, 400))
        .collect()
}

#[test]
fn trace_jsonl_is_bit_identical_at_1_and_4_threads() {
    let configs = batch();
    let one: Vec<String> = run_batch(&configs, 1)
        .iter()
        .map(|o| o.trace_jsonl())
        .collect();
    let four: Vec<String> = run_batch(&configs, 4)
        .iter()
        .map(|o| o.trace_jsonl())
        .collect();
    for ((config, a), b) in configs.iter().zip(&one).zip(&four) {
        assert!(
            !a.is_empty(),
            "{}: trace must not be empty",
            config.scheme.name()
        );
        assert_eq!(
            a,
            b,
            "{}: trace JSONL diverged between 1 and 4 threads",
            config.scheme.name()
        );
    }
}

#[test]
fn location_forward_trace_follows_the_scripted_phase_sequence() {
    let outcome = &run_batch(
        &[ScenarioConfig::quick(RecoveryScheme::LocationForward, 1500)],
        1,
    )[0];
    let phases: Vec<Phase> = outcome
        .trace
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Phase(p) => Some(p),
            _ => None,
        })
        .collect();
    // The proactive pipeline never uses the reactive anchor.
    assert!(
        !phases.contains(&Phase::FaultDetected),
        "LOCATION_FORWARD must not emit the reactive FaultDetected phase"
    );
    // The full scripted chain appears, in order, as a subsequence.
    let script = [
        Phase::LeakDetected,
        Phase::ThresholdCrossed { step: 1 },
        Phase::ThresholdCrossed { step: 2 },
        Phase::FailoverNotice,
        Phase::ClientRedirect,
        Phase::FirstReplyAfterFailover,
    ];
    let mut want = script.iter();
    let mut next = want.next();
    for p in &phases {
        if Some(p) == next {
            next = want.next();
        }
    }
    assert_eq!(
        next, None,
        "phase chain incomplete; expected subsequence {script:?} in {phases:?}"
    );
    // And the reconstruction closes at least one fully-staged episode.
    let eps = outcome.episodes();
    let full = eps
        .iter()
        .find(|e| e.first_reply_at.is_some())
        .expect("at least one completed fail-over episode");
    assert!(full.detection_ns().is_some());
    assert!(full.reconnection_ns().is_some());
    assert!(full.total_ns().unwrap() > 0);
}

#[test]
fn invisible_failovers_are_found_from_the_trace_alone() {
    let schemes = [
        RecoveryScheme::MeadFailover,
        RecoveryScheme::NeedsAddressing,
    ];
    let configs: Vec<_> = schemes
        .iter()
        .map(|&scheme| ScenarioConfig::quick(scheme, 1200))
        .collect();
    for (scheme, outcome) in schemes.into_iter().zip(run_batch(&configs, 2)) {
        let episodes = failover_episodes_ms(&outcome, scheme);
        assert!(!episodes.is_empty(), "{}: no episodes", scheme.name());
        let trace_only = ScenarioOutcome {
            metrics: Default::default(),
            ..outcome
        };
        assert_eq!(
            failover_episodes_ms(&trace_only, scheme),
            episodes,
            "{}: episodes depend on more than the trace and the records",
            scheme.name()
        );
    }
}

#[test]
fn trace_sections_render_one_header_per_run() {
    let configs = batch();
    let outcomes = run_batch(&configs, 2);
    let sections: Vec<_> = configs
        .iter()
        .zip(&outcomes)
        .map(|(c, o)| (c.scheme.name().to_string(), o.trace.as_slice()))
        .collect();
    let body = render_trace_sections(&sections);
    for (label, events) in &sections {
        let mut header = String::from("{\"run\":");
        obs::jsonl::push_json_str(&mut header, label);
        header.push_str(&format!(",\"events\":{}}}", events.len()));
        assert!(body.contains(&header), "missing section header {header}");
    }
    assert_eq!(
        body.lines().count(),
        sections
            .iter()
            .map(|(_, events)| events.len() + 1)
            .sum::<usize>(),
        "one header line plus one line per event"
    );
}

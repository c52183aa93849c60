//! Panic-freedom and strictness fuzzing for the `decision-trace/1`
//! parser, to the bar of `crates/giop/tests/decode_prop.rs`: whatever
//! the input — arbitrary bytes, arbitrary records under a good header, a
//! truncated or byte-edited recording — [`DecisionTrace::parse`] never
//! panics and yields either a typed [`TraceError`](simnet::sched::TraceError)
//! or a trace that replay can apply exactly as written and whose
//! `to_jsonl` re-parses to itself.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use simnet::sched::{Decision, MAX_CANDIDATES};
use simnet::{DecisionTrace, GateCfg, SimDuration, SimTime};

/// The property every input must satisfy.
fn typed_error_or_replayable(input: &str) -> Result<(), TestCaseError> {
    let Ok(trace) = DecisionTrace::parse(input) else {
        return Ok(());
    };
    for (i, d) in trace.decisions.iter().enumerate() {
        prop_assert_eq!(d.step, i as u64);
        prop_assert!((2..=MAX_CANDIDATES as u64).contains(&d.n), "n = {}", d.n);
        prop_assert!(d.chosen < d.n, "chosen {} of {}", d.chosen, d.n);
    }
    prop_assert_eq!(DecisionTrace::parse(&trace.to_jsonl()), Ok(trace));
    Ok(())
}

/// A trace as a run records it: steps 0, 1, 2, …, pools of
/// 2..=MAX_CANDIDATES, picks inside them.
fn arb_recorded_trace() -> impl Strategy<Value = DecisionTrace> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(
            (any::<u64>(), 2..=MAX_CANDIDATES as u64, any::<u64>()),
            0..12,
        ),
    )
        .prop_map(|((slack, start, end, max_steps), picks)| DecisionTrace {
            gate: GateCfg {
                window_start: SimTime::from_nanos(start),
                window_end: SimTime::from_nanos(end),
                max_steps,
                slack: SimDuration::from_nanos(slack),
            },
            decisions: picks
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, n, pick))| Decision {
                    step: i as u64,
                    at_ns,
                    n,
                    chosen: pick % n,
                })
                .collect(),
        })
}

proptest! {
    /// Arbitrary bytes, decoded lossily (`parse` takes text).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        typed_error_or_replayable(&String::from_utf8_lossy(&bytes))?;
    }

    /// A good header followed by records whose numbers are arbitrary but
    /// small, so that in-range, out-of-range, gapped, repeated and
    /// swapped records all occur: only what replays as written parses.
    #[test]
    fn arbitrary_records_parse_only_when_replayable(
        records in prop::collection::vec((0u64..4, 0u64..11, 0u64..11), 0..4),
    ) {
        let mut text = DecisionTrace::empty(GateCfg::default()).to_jsonl();
        for (step, n, chosen) in &records {
            text.push_str(&format!(
                "{{\"step\":{step},\"at_ns\":7,\"n\":{n},\"chosen\":{chosen}}}\n"
            ));
        }
        typed_error_or_replayable(&text)?;
        let replayable = records.iter().enumerate().all(|(i, &(step, n, chosen))| {
            step == i as u64 && (2..=MAX_CANDIDATES as u64).contains(&n) && chosen < n
        });
        prop_assert_eq!(DecisionTrace::parse(&text).is_ok(), replayable);
    }

    /// Every prefix of a recording: a cut at a line boundary is a valid
    /// shorter schedule, a cut anywhere else a typed error or a trace
    /// that still replays as written.
    #[test]
    fn truncation_at_every_length_never_panics(trace in arb_recorded_trace()) {
        let text = trace.to_jsonl();
        prop_assert_eq!(DecisionTrace::parse(&text), Ok(trace));
        for cut in 0..text.len() {
            typed_error_or_replayable(&text[..cut])?;
        }
    }

    /// Any single-byte edit of a recording.
    #[test]
    fn single_byte_edit_never_panics(
        trace in arb_recorded_trace(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = trace.to_jsonl().into_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        typed_error_or_replayable(&String::from_utf8_lossy(&bytes))?;
    }
}

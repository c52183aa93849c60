//! Hand-rolled JSON-lines encoding of a trace.
//!
//! The build environment is fully offline (no serde); every event encodes
//! to exactly one `\n`-terminated line with keys in a fixed order, so two
//! traces are equal iff their JSONL bytes are equal. That property is what
//! the `--threads 1/4` bit-identity test leans on.

use crate::event::{EventKind, TraceEvent};
use crate::span::Phase;

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the single JSONL line for `ev` (newline included).
pub fn push_event_line(out: &mut String, ev: &TraceEvent) {
    use core::fmt::Write;
    let _ = write!(
        out,
        "{{\"seq\":{},\"at\":{},\"node\":{},\"pid\":{},\"ev\":",
        ev.seq, ev.at_ns, ev.node, ev.pid
    );
    push_json_str(out, ev.kind.name());
    match &ev.kind {
        EventKind::Phase(p) => {
            if let Phase::ThresholdCrossed { step } = p {
                let _ = write!(out, ",\"step\":{step}");
            }
        }
        EventKind::ConnectAttempt { to_node, port } => {
            let _ = write!(out, ",\"to_node\":{to_node},\"port\":{}", port);
        }
        EventKind::ConnectOutcome { to_node, port, ok } => {
            let _ = write!(out, ",\"to_node\":{to_node},\"port\":{port},\"ok\":{ok}");
        }
        EventKind::Partition { a, b } | EventKind::Heal { a, b } => {
            let _ = write!(out, ",\"a\":{a},\"b\":{b}");
        }
        EventKind::PartitionOneway { from, to } | EventKind::HealOneway { from, to } => {
            let _ = write!(out, ",\"from\":{from},\"to\":{to}");
        }
        EventKind::LinkJitter { a, b, bound_ns } => {
            let _ = write!(out, ",\"a\":{a},\"b\":{b},\"bound\":{bound_ns}");
        }
        EventKind::FaultInjected { fault } => {
            out.push_str(",\"fault\":");
            push_json_str(out, fault);
        }
        EventKind::ResourcePressure { resource, permille } => {
            out.push_str(",\"resource\":");
            push_json_str(out, resource);
            let _ = write!(out, ",\"permille\":{permille}");
        }
        EventKind::Spawn { node, label } => {
            let _ = write!(out, ",\"on\":{node},\"label\":");
            push_json_str(out, label);
        }
        EventKind::Exit { crashed } => {
            let _ = write!(out, ",\"crashed\":{crashed}");
        }
        EventKind::Dispatch { action } => {
            out.push_str(",\"action\":");
            push_json_str(out, action);
        }
        EventKind::Retry { attempt, delay_ns } => {
            let _ = write!(out, ",\"attempt\":{attempt},\"delay\":{delay_ns}");
        }
        EventKind::ProtocolError(what) => {
            out.push_str(",\"what\":");
            push_json_str(out, what);
        }
    }
    out.push_str("}\n");
}

/// Serialises a whole trace; equal traces produce equal bytes.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        push_event_line(&mut out, ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn one_line_per_event_fixed_keys() {
        let ev = TraceEvent {
            seq: 3,
            at_ns: 1_500_000,
            node: 2,
            pid: 7,
            kind: EventKind::Phase(Phase::ThresholdCrossed { step: 2 }),
        };
        let rejected = TraceEvent {
            seq: 4,
            kind: EventKind::ProtocolError("gcs.protocol_error"),
            ..ev.clone()
        };
        let lines = to_jsonl(&[ev, rejected]);
        assert_eq!(
            lines,
            "{\"seq\":3,\"at\":1500000,\"node\":2,\"pid\":7,\"ev\":\"threshold_crossed\",\"step\":2}\n\
             {\"seq\":4,\"at\":1500000,\"node\":2,\"pid\":7,\"ev\":\"protocol_error\",\"what\":\"gcs.protocol_error\"}\n"
        );
    }
}

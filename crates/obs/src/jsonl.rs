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

/// Appends `v` in decimal, as `write!` would, at a fraction of its cost:
/// a trace fold formats every event.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends `,"key":v`.
fn push_field(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_u64(out, v);
}

/// Appends `,"key":true` or `,"key":false`.
fn push_bool(out: &mut String, key: &str, v: bool) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str(if v { "\":true" } else { "\":false" });
}

/// Appends `,"key":"s"`.
fn push_str_field(out: &mut String, key: &str, s: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_json_str(out, s);
}

/// Appends the single JSONL line for `ev` (newline included).
pub fn push_event_line(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"seq\":");
    push_u64(out, ev.seq);
    push_field(out, "at", ev.at_ns);
    push_field(out, "node", u64::from(ev.node));
    push_field(out, "pid", ev.pid);
    push_str_field(out, "ev", ev.kind.name());
    match &ev.kind {
        EventKind::Phase(p) => {
            if let Phase::ThresholdCrossed { step } = p {
                push_field(out, "step", u64::from(*step));
            }
        }
        EventKind::ConnectAttempt { to_node, port } => {
            push_field(out, "to_node", u64::from(*to_node));
            push_field(out, "port", u64::from(*port));
        }
        EventKind::ConnectOutcome { to_node, port, ok } => {
            push_field(out, "to_node", u64::from(*to_node));
            push_field(out, "port", u64::from(*port));
            push_bool(out, "ok", *ok);
        }
        EventKind::Partition { a, b } | EventKind::Heal { a, b } => {
            push_field(out, "a", u64::from(*a));
            push_field(out, "b", u64::from(*b));
        }
        EventKind::PartitionOneway { from, to } | EventKind::HealOneway { from, to } => {
            push_field(out, "from", u64::from(*from));
            push_field(out, "to", u64::from(*to));
        }
        EventKind::LinkJitter { a, b, bound_ns } => {
            push_field(out, "a", u64::from(*a));
            push_field(out, "b", u64::from(*b));
            push_field(out, "bound", *bound_ns);
        }
        EventKind::FaultInjected { fault } => push_str_field(out, "fault", fault),
        EventKind::ResourcePressure { resource, permille } => {
            push_str_field(out, "resource", resource);
            push_field(out, "permille", u64::from(*permille));
        }
        EventKind::Spawn { node, label } => {
            push_field(out, "on", u64::from(*node));
            push_str_field(out, "label", label);
        }
        EventKind::Exit { crashed } => push_bool(out, "crashed", *crashed),
        EventKind::Dispatch { action } => push_str_field(out, "action", action),
        EventKind::Retry { attempt, delay_ns } => {
            push_field(out, "attempt", u64::from(*attempt));
            push_field(out, "delay", *delay_ns);
        }
        EventKind::ProtocolError(what) => push_str_field(out, "what", what),
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
    fn integers_print_as_display_does() {
        for v in [0, 7, 10, 99, 1_500_000, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
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

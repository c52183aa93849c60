//! Loader for the `conflict-relation/1` artifact detlint's effect
//! analysis emits (`mead-repro lint --conflict-report`).
//!
//! The artifact refines the explorer's syntactic conflict test with
//! statically proven independence: an entry `{a, b, when}` declares
//! that two *simultaneous* candidates (equal dispatch time) whose
//! `kind:class` keys match the unordered pair `{a, b}` commute when the
//! qualifier holds, so the explorer need not branch on their order.
//! Distinct-time pairs are never independent — picking the later
//! candidate models late delivery and the clock advance is itself an
//! observable effect — so the scheduler applies entries only to
//! same-instant pairs regardless of what the artifact says.
//!
//! The parser is a hand-rolled subset-of-JSON reader (objects, arrays,
//! strings) in the same spirit as the decision-trace loader: no
//! external dependencies, strict about the schema tag, tolerant of
//! unknown keys so the artifact can grow.

use simnet::Candidate;

/// Schema tag every artifact must carry.
pub const RELATION_SCHEMA: &str = "conflict-relation/1";

/// Qualifier under which a declared pair is independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum When {
    /// Independent whenever simultaneous.
    Always,
    /// Independent only when both candidates touch the same connection
    /// (the idempotent re-drain case: the second wake-up finds the
    /// queue already drained and no-ops).
    SameTouchConn,
    /// Independent only when the candidates touch distinct connections.
    DistinctTouchConn,
}

impl When {
    fn parse(s: &str) -> Option<When> {
        match s {
            "always" => Some(When::Always),
            "same_touch_conn" => Some(When::SameTouchConn),
            "distinct_touch_conn" => Some(When::DistinctTouchConn),
            _ => None,
        }
    }

    /// Stable artifact spelling.
    pub fn name(self) -> &'static str {
        match self {
            When::Always => "always",
            When::SameTouchConn => "same_touch_conn",
            When::DistinctTouchConn => "distinct_touch_conn",
        }
    }
}

/// One declared-independent unordered pair of `kind:class` keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndependentPair {
    /// First key, e.g. `"notify:data_readable"`.
    pub a: String,
    /// Second key (may equal `a` for self-pairs).
    pub b: String,
    /// Qualifier gating the independence claim.
    pub when: When,
}

/// A parsed `conflict-relation/1` artifact.
#[derive(Clone, Debug, Default)]
pub struct ConflictRelation {
    /// Declared-independent pairs, in artifact order.
    pub independent: Vec<IndependentPair>,
}

/// Why an artifact failed to load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationError(pub String);

impl std::fmt::Display for RelationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conflict-relation: {}", self.0)
    }
}

impl ConflictRelation {
    /// Parses an artifact from its JSON text.
    pub fn parse(src: &str) -> Result<ConflictRelation, RelationError> {
        let schema = str_field(src, "schema")
            .ok_or_else(|| RelationError("missing \"schema\" field".into()))?;
        if schema != RELATION_SCHEMA {
            return Err(RelationError(format!(
                "unsupported schema {schema:?} (want {RELATION_SCHEMA:?})"
            )));
        }
        let mut independent = Vec::new();
        for obj in array_objects(src, "independent")? {
            let a = str_field(&obj, "a")
                .ok_or_else(|| RelationError("independent entry missing \"a\"".into()))?;
            let b = str_field(&obj, "b")
                .ok_or_else(|| RelationError("independent entry missing \"b\"".into()))?;
            let when_raw = str_field(&obj, "when")
                .ok_or_else(|| RelationError("independent entry missing \"when\"".into()))?;
            let when = When::parse(&when_raw)
                .ok_or_else(|| RelationError(format!("unknown \"when\" qualifier {when_raw:?}")))?;
            independent.push(IndependentPair { a, b, when });
        }
        Ok(ConflictRelation { independent })
    }

    /// Whether the artifact declares two *simultaneous* same-target
    /// candidates independent. Callers must have already established
    /// simultaneity and same-target; this only consults the declared
    /// pairs and their qualifiers.
    pub fn independent(&self, a: &Candidate, b: &Candidate) -> bool {
        let ka = format!("{}:{}", a.kind.name(), a.class);
        let kb = format!("{}:{}", b.kind.name(), b.class);
        self.independent.iter().any(|p| {
            let keys_match = (p.a == ka && p.b == kb) || (p.a == kb && p.b == ka);
            keys_match
                && match p.when {
                    When::Always => true,
                    When::SameTouchConn => a.touch_conn.is_some() && a.touch_conn == b.touch_conn,
                    When::DistinctTouchConn => {
                        a.touch_conn.is_some()
                            && b.touch_conn.is_some()
                            && a.touch_conn != b.touch_conn
                    }
                }
        })
    }
}

/// Extracts `"name": "value"` from `src` (first occurrence, any depth —
/// the artifact nests only one level and field names do not repeat
/// across levels).
fn str_field(src: &str, name: &str) -> Option<String> {
    let needle = format!("\"{name}\"");
    let at = src.find(&needle)?;
    let rest = &src[at + needle.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Splits the array field `name` of `src` into the raw text of its
/// object elements. Returns an empty vec when the field is absent.
fn array_objects(src: &str, name: &str) -> Result<Vec<String>, RelationError> {
    let needle = format!("\"{name}\"");
    let Some(at) = src.find(&needle) else {
        return Ok(Vec::new());
    };
    let rest = &src[at + needle.len()..];
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or_else(|| RelationError(format!("malformed \"{name}\" field")))?
        .trim_start();
    let rest = rest
        .strip_prefix('[')
        .ok_or_else(|| RelationError(format!("\"{name}\" is not an array")))?;
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in rest.char_indices() {
        if in_str {
            match ch {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_str = false,
                _ => escaped = false,
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        objects.push(rest[s..=i].to_string());
                    }
                }
            }
            ']' if depth == 0 => return Ok(objects),
            _ => {}
        }
    }
    Err(RelationError(format!("unterminated \"{name}\" array")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::sched::CandidateKind;
    use simnet::testkit::candidate;
    use simnet::SimTime;

    fn art(independent: &str) -> String {
        format!(
            "{{\n  \"schema\": \"conflict-relation/1\",\n  \"independent\": [{independent}]\n}}\n"
        )
    }

    fn notify_dr(touch: Option<u64>) -> Candidate {
        candidate(
            SimTime::from_nanos(500),
            1,
            CandidateKind::Notify,
            "data_readable",
            Some(4),
            None,
            touch,
            true,
        )
    }

    #[test]
    fn parses_and_matches_same_touch_conn_pairs() {
        let rel = ConflictRelation::parse(&art(
            "{\"a\": \"notify:data_readable\", \"b\": \"notify:data_readable\", \"when\": \"same_touch_conn\"}",
        ))
        .unwrap();
        assert_eq!(rel.independent.len(), 1);
        assert!(rel.independent(&notify_dr(Some(7)), &notify_dr(Some(7))));
        assert!(!rel.independent(&notify_dr(Some(7)), &notify_dr(Some(8))));
        assert!(!rel.independent(&notify_dr(None), &notify_dr(None)));
    }

    #[test]
    fn unordered_key_match_and_distinct_qualifier() {
        let rel = ConflictRelation::parse(&art(
            "{\"a\": \"timer_fire:timer_fired\", \"b\": \"notify:data_readable\", \"when\": \"distinct_touch_conn\"}",
        ))
        .unwrap();
        let timer = candidate(
            SimTime::from_nanos(500),
            2,
            CandidateKind::TimerFire,
            "timer_fired",
            Some(4),
            None,
            Some(9),
            true,
        );
        assert!(rel.independent(&timer, &notify_dr(Some(7))));
        assert!(rel.independent(&notify_dr(Some(7)), &timer));
        assert!(!rel.independent(&notify_dr(Some(9)), &timer));
    }

    #[test]
    fn rejects_wrong_schema_and_bad_qualifier() {
        let err = ConflictRelation::parse("{\"schema\": \"conflict-relation/2\"}").unwrap_err();
        assert!(err.0.contains("unsupported schema"));
        let err = ConflictRelation::parse(&art(
            "{\"a\": \"x\", \"b\": \"y\", \"when\": \"sometimes\"}",
        ))
        .unwrap_err();
        assert!(err.0.contains("unknown \"when\""));
        assert!(ConflictRelation::parse("{\"independent\": []}").is_err());
    }

    #[test]
    fn empty_or_absent_independent_list_is_fine() {
        let rel = ConflictRelation::parse("{\"schema\": \"conflict-relation/1\"}").unwrap();
        assert!(rel.independent.is_empty());
        assert!(!rel.independent(&notify_dr(Some(7)), &notify_dr(Some(7))));
    }
}

//! Hostile input for the `conflict-relation/1` loader, to the bar of
//! `vendor/tomlite/tests/hostile.rs`: on arbitrary bytes and on truncated
//! or byte-flipped copies of the artifact `mead-repro lint
//! --conflict-report` writes, [`ConflictRelation::parse`] returns `Ok` or
//! a typed [`RelationError`](explore::relation::RelationError) and never
//! panics; and a truncated artifact is an error, never a shorter relation.

use proptest::prelude::*;

use explore::ConflictRelation;

/// The artifact `mead-repro lint --conflict-report` writes for this tree,
/// byte for byte, inlined so the test does not depend on a generated file.
const ARTIFACT: &str = r#"{
  "schema": "conflict-relation/1",
  "independent": [
    {"a": "notify:data_readable", "b": "notify:data_readable", "when": "same_touch_conn", "why": "every role's data-readable path drains the socket fully (read(conn, usize::MAX)); a re-delivered wake-up for the same process and connection finds no residual bytes and commutes with its twin"}
  ]
}
"#;

/// The byte offset of the character containing byte `at`.
fn floor_char(src: &str, at: usize) -> usize {
    (0..=at.min(src.len()))
        .rev()
        .find(|i| src.is_char_boundary(*i))
        .unwrap_or(0)
}

#[test]
fn the_artifact_parses_to_its_one_pair() {
    let relation = ConflictRelation::parse(ARTIFACT).expect("the lint artifact");
    assert_eq!(relation.independent.len(), 1);
}

#[test]
fn every_strict_prefix_is_an_error() {
    let whole = ARTIFACT.trim_end();
    for cut in 0..whole.len() {
        let prefix = &whole[..floor_char(whole, cut)];
        assert!(
            ConflictRelation::parse(prefix).is_err(),
            "a {}-byte prefix parsed",
            prefix.len()
        );
    }
}

/// The characters the loader turns on, so that random strings form
/// objects, arrays, keys and strings.
const ALPHABET: &[u8] = b"{}[]:,\"\\ ab\nschema/1-independentwhy";

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = ConflictRelation::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_shaped_strings_never_panic(
        picks in prop::collection::vec(0usize..ALPHABET.len(), 0..160),
    ) {
        let src: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        let _ = ConflictRelation::parse(&src);
        let _ = ConflictRelation::parse(&format!("{{\"schema\": \"conflict-relation/1\", {src}}}"));
    }

    #[test]
    fn truncated_artifacts_never_panic(cut in 0usize..ARTIFACT.len()) {
        let _ = ConflictRelation::parse(&ARTIFACT[..floor_char(ARTIFACT, cut)]);
    }

    #[test]
    fn artifacts_with_one_byte_flipped_never_panic(
        at in 0usize..ARTIFACT.len(),
        with in any::<u8>(),
    ) {
        let mut bytes = ARTIFACT.as_bytes().to_vec();
        bytes[at] = with;
        let _ = ConflictRelation::parse(&String::from_utf8_lossy(&bytes));
    }
}

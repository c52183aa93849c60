//! Hostile input for the two TOML schemas detlint reads, to the bar of
//! `vendor/tomlite/tests/hostile.rs`: on arbitrary bytes and on truncated
//! or byte-flipped copies of `specs/recovery-protocol.toml` and
//! `lint-allow.toml`, [`lint::fsm::parse_spec`] and
//! [`lint::AllowList::parse`] return `Ok` or a [`TomlError`] whose line
//! lies inside the input, and never panic.

use proptest::prelude::*;

use lint::fsm::parse_spec;
use lint::AllowList;
use tomlite::TomlError;

/// The checked-in documents to truncate and mutate.
const REAL: [&str; 2] = [
    include_str!("../../../specs/recovery-protocol.toml"),
    include_str!("../../../lint-allow.toml"),
];

/// The property, for one input and both readers.
fn check(src: &str) -> Result<(), String> {
    let lines = src.lines().count().max(1);
    for verdict in [parse_spec(src).map(drop), AllowList::parse(src).map(drop)] {
        if let Err(TomlError { line, msg }) = verdict {
            if !(1..=lines).contains(&(line as usize)) {
                return Err(format!("error `{msg}` at line {line} of {lines}"));
            }
        }
    }
    Ok(())
}

/// The byte offset of the character containing byte `at`.
fn floor_char(src: &str, at: usize) -> usize {
    (0..=at.min(src.len()))
        .rev()
        .find(|i| src.is_char_boundary(*i))
        .unwrap_or(0)
}

#[test]
fn the_checked_in_files_parse() {
    parse_spec(REAL[0]).expect("the protocol spec");
    AllowList::parse(REAL[1]).expect("the allowlist");
}

#[test]
fn every_line_prefix_is_ok_or_an_error_inside_it() {
    for src in REAL {
        let mut cut = 0;
        for line in src.split_inclusive('\n') {
            cut += line.len();
            let verdict = check(&src[..cut]);
            assert!(verdict.is_ok(), "prefix of {cut} bytes: {verdict:?}");
        }
    }
}

/// The characters the grammar turns on, so that random strings reach
/// past the first line.
const ALPHABET: &[u8] = b"ab1_.=#\"\\[], \n-";

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let verdict = check(&String::from_utf8_lossy(&bytes));
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn toml_shaped_strings_never_panic(
        picks in prop::collection::vec(0usize..ALPHABET.len(), 0..120),
    ) {
        let src: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        let verdict = check(&src);
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn truncated_files_never_panic(file in 0usize..2, cut in 0usize..16_000) {
        let src = REAL[file];
        let verdict = check(&src[..floor_char(src, cut % (src.len() + 1))]);
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn files_with_one_byte_flipped_never_panic(
        file in 0usize..2,
        at in 0usize..16_000,
        with in any::<u8>(),
    ) {
        let mut bytes = REAL[file].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = with;
        let verdict = check(&String::from_utf8_lossy(&bytes));
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }
}

//! Lexer equivalence pins. The constants below were taken with the
//! `String`-owning, `Vec<char>`-walking lexer and must hold for any
//! lexer that replaces it: the `{:?}` dump of every fixture plus a
//! torture string (every literal form, nested comments, raw identifiers,
//! lifetimes vs chars, number shapes, non-ASCII text, CRLF), and the
//! exact error — span and message — for every unterminated form.

use std::path::{Path, PathBuf};

use synlite::{parse_file, Span, Tok, TokenTree};

/// Every literal and trivia form the lexer distinguishes, with a trailing
/// line that has no newline.
const TORTURE: &str = concat!(
    "let a = r\"raw\"; let b = r#\"one \"quoted\" #\"#; let c = r##\"two \"# in\"##;\r\n",
    "let d = r###\"three \"## \"# \"###; let e = br#\"bytes \"x\" \"#; let f = br\"b\";\r\n",
    "let g = b\"by\\\"tes\\\\\"; let h = b'\\''; let i = b'x'; let j = b'\\\\';\n",
    "let k = '\\u{1F600}'; let l = 'é'; let m = '\\n'; let n = '\\''; let o = '\"';\n",
    "/* outer /* inner /* innermost */ still */ done */ let p = \"esc \\\" \\\\ \\n\";\n",
    "fn r#match<'a, 'static_, '_x>(x: &'a str, r#type: u8) -> &'a str { 'lbl: loop { break 'lbl; } }\n",
    "let q = ['a', 'b']; let r: &'a [u8] = &[]; let s = 'a'; let t = '\\x41';\n",
    "for i in 0..10 { a[i] = 1.5; } let u = 1.5.3; let v = 1_000u64; let w = 0x_ff;\n",
    "let x = 0..=n; let y = 1e10; let z = 2.5e-3; let aa = 1.max(2); let ab = 0b1010_1010u8;\n",
    "let naïve = \"ünï\"; let 変数 = 'λ'; let\u{a0}nbsp\u{2003}=\u{3000}1; // trailing — comment\n",
    "// line comment with \" quote and ' tick and /* opener\n",
    "x.y::<Vec<u8>>(); a <<= 1; b >>= 2; c => d; e -> f; #![inner] #[outer(test)] $ @ ~ ` \\\n",
    "tuple.0.1; r; b; br; rb\"x\"; r#abc; br#\"\"#; r\"\"; \"\"; b\"\";\n",
    "last_line_without_newline(())"
);

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("fixture dir is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn fixture_and_torture_dump_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut files = Vec::new();
    rs_files_under(&root, &mut files);
    files.sort();
    assert_eq!(files.len(), 21, "a fixture was added or removed: re-pin");

    let mut hash = FNV_OFFSET;
    let mut bytes = 0usize;
    let mut fold = |name: &str, src: &str| {
        let trees = parse_file(src).unwrap_or_else(|e| panic!("lexing {name}: {e}"));
        let dump = format!("{name}\n{trees:?}\n");
        bytes += dump.len();
        hash = fnv1a(hash, dump.as_bytes());
    };
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .expect("under the fixture root")
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file).expect("fixture is UTF-8");
        fold(&rel, &src);
    }
    fold("<torture>", TORTURE);
    assert_eq!(
        (bytes, format!("{hash:016x}")),
        (PINNED_DUMP_BYTES, PINNED_DUMP_FNV.to_string()),
        "the token dump moved"
    );
}

const PINNED_DUMP_BYTES: usize = 173_806;
const PINNED_DUMP_FNV: &str = "dea7149b2d69f94e";

/// Leaves in source order as `(span, kind-tagged text)`.
fn leaves(trees: &[TokenTree], out: &mut Vec<(Span, String)>) {
    for t in trees {
        match &t.tok {
            Tok::Ident(s) => out.push((t.span, format!("ident {s}"))),
            Tok::Lifetime(s) => out.push((t.span, format!("lifetime {s}"))),
            Tok::Lit(s) => out.push((t.span, format!("lit {s}"))),
            Tok::Punct(c) => out.push((t.span, format!("punct {c}"))),
            Tok::Group(_, inner) => leaves(inner, out),
        }
    }
}

/// A few tokens whose text and span the dump digest would only show as
/// "moved": spelled out so a failure says what broke.
#[test]
fn torture_tokens_read_as_written() {
    let trees = parse_file(TORTURE).expect("the torture string lexes");
    let mut all = Vec::new();
    leaves(&trees, &mut all);
    let texts: Vec<&str> = all.iter().map(|(_, s)| s.as_str()).collect();
    for want in [
        "lit r\"raw\"",
        "lit r#\"one \"quoted\" #\"#",
        "lit r##\"two \"# in\"##",
        "lit r###\"three \"## \"# \"###",
        "lit br#\"bytes \"x\" \"#",
        "lit br\"b\"",
        "lit b\"by\\\"tes\\\\\"",
        "lit b'\\''",
        "lit b'\\\\'",
        "lit '\\u{1F600}'",
        "lit 'é'",
        "lit '\\''",
        "lit '\"'",
        "lit \"esc \\\" \\\\ \\n\"",
        "ident match",
        "ident type",
        "ident abc",
        "lifetime static_",
        "lifetime _x",
        "lifetime lbl",
        "lit 1.5",
        "lit 1_000u64",
        "lit 0x_ff",
        "lit 1e10",
        "lit 2.5e",
        "lit 0b1010_1010u8",
        "ident naïve",
        "lit \"ünï\"",
        "ident 変数",
        "lit 'λ'",
        "ident nbsp",
        "ident rb",
        "lit br#\"\"#",
        "lit r\"\"",
        "lit \"\"",
        "lit b\"\"",
        "punct $",
        "punct \\",
        "ident last_line_without_newline",
    ] {
        assert!(
            texts.contains(&want),
            "no `{want}` among the torture leaves"
        );
    }
    let at = |line, col, text: &str| {
        assert!(
            all.contains(&(Span { line, col }, text.to_string())),
            "no `{text}` at {line}:{col}"
        );
    };
    // `1.5.3` is `1.5` `.` `3`; `0..10` keeps both range dots.
    at(8, 40, "lit 1.5");
    at(8, 43, "punct .");
    at(8, 44, "lit 3");
    at(8, 10, "lit 0");
    at(8, 11, "punct .");
    at(8, 12, "punct .");
    at(8, 13, "lit 10");
    // Columns count characters, not bytes: `変数` is two columns wide,
    // and the no-break / em / ideographic spaces are whitespace.
    at(10, 24, "ident 変数");
    at(10, 27, "punct =");
    at(10, 38, "ident nbsp");
    at(10, 43, "punct =");
    at(10, 45, "lit 1");
    // CRLF: the `\r` is whitespace and the line ends at the `\n`.
    at(2, 1, "ident let");
    at(3, 1, "ident let");
    at(14, 1, "ident last_line_without_newline");
}

#[test]
fn every_unterminated_form_has_its_exact_error() {
    let at = |line, col| Span { line, col };
    let cases: &[(&str, Span, &str)] = &[
        ("let s = \"abc", at(1, 9), "unterminated string literal"),
        ("\n  \"tail\\", at(2, 3), "unterminated string literal"),
        ("é = b\"abc", at(1, 5), "unterminated string literal"),
        ("x r\"abc", at(1, 3), "unterminated raw string"),
        ("x r#\"abc\"", at(1, 3), "unterminated raw string"),
        ("x\n r##\"abc\"#", at(2, 2), "unterminated raw string"),
        ("br#\"abc\"", at(1, 1), "unterminated raw string"),
        ("r##x", at(1, 1), "malformed raw string"),
        ("a br#x", at(1, 3), "malformed raw string"),
        ("let c = '1", at(1, 9), "unterminated char literal"),
        ("'\\", at(1, 1), "unterminated char literal"),
        ("'", at(1, 1), "unterminated char literal"),
        ("ü 'ab' x", at(1, 6), "unterminated char literal"),
        ("x = b'a", at(1, 5), "unterminated byte literal"),
        ("b'\\", at(1, 1), "unterminated byte literal"),
        (
            "ok();\n /* open /* nested */ still open",
            at(2, 2),
            "unterminated block comment",
        ),
        ("/*/", at(1, 1), "unterminated block comment"),
        ("fn f( {", at(1, 8), "unclosed delimiter, expected `}`"),
        ("a [ b", at(1, 6), "unclosed delimiter, expected `]`"),
        ("f(\n  x,\n", at(3, 1), "unclosed delimiter, expected `)`"),
        ("fn f) ", at(1, 5), "unbalanced `)`"),
        ("( ]", at(1, 3), "unbalanced `]`"),
        ("{ ( } )", at(1, 5), "unbalanced `}`"),
        ("é}", at(1, 2), "unbalanced `}`"),
    ];
    for (src, span, message) in cases {
        let err = parse_file(src).expect_err(src);
        assert_eq!(
            (err.span, err.message.as_str()),
            (*span, *message),
            "for {src:?}"
        );
    }
    // `r#` alone is a raw-identifier prefix with nothing after it: the
    // `r` is an identifier, `#` punctuation.
    assert!(parse_file("r# x").is_ok());
    // A lifetime needs no closing quote.
    assert!(parse_file("'a").is_ok());
}

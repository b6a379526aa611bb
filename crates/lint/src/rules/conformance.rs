//! Rule `model_conformance`: the O(log 𝔫)-bit word budget has exactly one
//! source of truth.
//!
//! The paper's bandwidth claim is only checkable if every width and
//! bandwidth bound in the codebase flows from
//! `cc_runtime::message::word_bits_limit` and the model constructors in
//! `cc-sim` — a hard-coded `16` next to a `bits_limit` variable silently
//! forks the model. This rule flags integer literals that sit in the same
//! expression as a width/bandwidth-named identifier, anywhere outside the
//! designated constants modules, `#[cfg(test)]` bodies, and test/bench/
//! example trees (test code pins concrete numbers on purpose).

use crate::lexer::TokenKind;
use crate::report::{Finding, Rule};
use crate::rules::{push, FileContext};

/// Files allowed to define numeric width/bandwidth bounds: the model's
/// single sources of truth.
const CONSTANTS_MODULES: [&str; 3] = [
    "crates/runtime/src/message.rs",
    "crates/sim/src/constants.rs",
    "crates/sim/src/model.rs",
];

/// Identifier fragments that mark a *message*-width/bandwidth-bound
/// expression. Deliberately specific: plenty of honest identifiers
/// mention bits (`chunk_bits` seed chunking over the 2⁶¹−1 field,
/// `priority_bits`, table column `widths`) without bounding a message.
const NEEDLES: [&str; 6] = [
    "bits_limit",
    "word_bits",
    "width_mask",
    "bandwidth",
    "message_width",
    "too_wide",
];

/// Directory components whose files pin concrete numbers on purpose.
const EXEMPT_DIRS: [&str; 3] = ["tests", "examples", "fixtures"];

/// How far around a literal the rule looks for a needle identifier,
/// without crossing a statement or block boundary.
const LOOK_BACK: usize = 6;
const LOOK_AHEAD: usize = 3;

pub(crate) fn run(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if CONSTANTS_MODULES.iter().any(|m| ctx.path.ends_with(m)) || in_exempt_dir(ctx.path) {
        return;
    }
    let tokens = &ctx.lexed.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let TokenKind::Int(value) = token.kind else {
            continue;
        };
        // 0 and 1 are initializers and offsets everywhere; a bound they
        // are not.
        if value < 2 || ctx.in_test_code(token.line) {
            continue;
        }
        let start = i.saturating_sub(LOOK_BACK);
        let end = (i + LOOK_AHEAD + 1).min(tokens.len());
        let backward = (start..i).rev();
        let forward = i + 1..end;
        let mut needle = None;
        'directions: for direction in [backward.collect::<Vec<_>>(), forward.collect()] {
            for j in direction {
                match &tokens[j].kind {
                    // Statement/block boundary: the expression ends here.
                    TokenKind::Punct(';' | '{' | '}') => break,
                    TokenKind::Ident(name) => {
                        let lower = name.to_ascii_lowercase();
                        if NEEDLES.iter().any(|n| lower.contains(n)) {
                            needle = Some(name.clone());
                            break 'directions;
                        }
                    }
                    _ => {}
                }
            }
        }
        if let Some(name) = needle {
            push(
                out,
                Rule::ModelConformance,
                ctx,
                token.line,
                format!(
                    "integer literal {value} near `{name}` hard-codes a width/bandwidth \
                     bound; derive it from `word_bits_limit` or the model constants"
                ),
            );
        }
    }
}

fn in_exempt_dir(path: &str) -> bool {
    path.split('/')
        .any(|component| EXEMPT_DIRS.contains(&component))
}

#[cfg(test)]
mod tests {
    use crate::report::Rule;
    use crate::rules::scan_source;

    fn conformance(path: &str, src: &str) -> Vec<String> {
        scan_source(path, src)
            .findings
            .iter()
            .filter(|f| f.rule == Rule::ModelConformance)
            .map(|f| f.message.clone())
            .collect()
    }

    const SRC_FILE: &str = "crates/runtime/src/engine.rs";

    #[test]
    fn hard_coded_width_bounds_are_flagged() {
        let cases = [
            "fn f() { let bits_limit = 16; }\n",
            "fn f(w: u32) -> bool { w > some_width_mask(24) }\n",
            "fn f() { seal(round, my_bandwidth * 32); }\n",
            "fn f(b: u32) -> bool { too_wide(b, 26) }\n",
        ];
        for src in cases {
            assert_eq!(conformance(SRC_FILE, src).len(), 1, "{src}");
        }
    }

    #[test]
    fn derived_bounds_and_unrelated_literals_pass() {
        let cases = [
            "fn f(n: usize) { let bits_limit = word_bits_limit(n); }\n",
            "fn f() { let chunk = 16; let total = 64; }\n",
            "fn f(bits: u32) -> u64 { (1u64 << bits) - 1 }\n",
            "fn f() { let bits_limit = 0; }\n",
            // Honest bit-counts that are not message bounds.
            "fn f() { let chunk_bits = 61; let priority_bits = 63; }\n",
            "fn f() { let widths = [2, 8]; }\n",
        ];
        for src in cases {
            assert_eq!(conformance(SRC_FILE, src).len(), 0, "{src}");
        }
    }

    #[test]
    fn constants_modules_and_test_code_are_exempt() {
        let src = "fn f() { let bits_limit = 16; }\n";
        assert!(conformance("crates/runtime/src/message.rs", src).is_empty());
        assert!(conformance("crates/sim/src/constants.rs", src).is_empty());
        assert!(conformance("crates/runtime/tests/fixture.rs", src).is_empty());
        let in_test_mod = "\
#[cfg(test)]
mod tests {
    fn f() { let bits_limit = 16; }
}
";
        assert!(conformance(SRC_FILE, in_test_mod).is_empty());
    }

    #[test]
    fn statement_boundaries_stop_the_search() {
        // The needle in the previous statement must not taint the literal.
        let src = "fn f() { let bits_limit = limit(); let chunks = 16; }\n";
        assert!(conformance(SRC_FILE, src).is_empty());
    }
}

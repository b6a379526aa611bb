//! Rule `determinism`: nondeterminism sources where the model's
//! reproducibility claim is load-bearing.
//!
//! The engine's contract (PR 2/3) is that results, reports, and ledger
//! digests are byte-identical for any worker-thread count. That property
//! dies the moment node-program code or the message plane consults a hash
//! map's iteration order, the wall clock, thread identity, or an address.
//! This rule flags those sources inside `NodeProgram` impl bodies (in any
//! file) and everywhere in the runtime's hot modules. Dynamic checks (the
//! ledger digest diff at 1 vs 4 threads) catch a violation only on the
//! inputs CI happens to run; this rule catches the source of one on any
//! input, at review time.

use crate::lexer::{Token, TokenKind};
use crate::report::{Finding, Rule};
use crate::rules::{push, FileContext};

/// Modules in which *all* code is held to the determinism rule (the
/// message plane and the send path into it, the round loop and the engine
/// driver, the trace plane's hot path — recording must never introduce a
/// result-visible determinism source — and the fault plane: injected
/// faults must be a pure function of model coordinates, never of wall
/// clock or thread timing — and the batching service, whose scheduling
/// decisions must depend only on submission order and round state).
const HOT_MODULES: [&str; 9] = [
    "crates/runtime/src/router.rs",
    "crates/runtime/src/columns.rs",
    "crates/runtime/src/env.rs",
    "crates/runtime/src/instance.rs",
    "crates/runtime/src/engine.rs",
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/service.rs",
    "crates/trace/src/ring.rs",
    "crates/fault/src/plan.rs",
];

/// Hash-order-dependent collections and hashers.
const HASH_ORDER: [&str; 4] = ["HashMap", "HashSet", "RandomState", "DefaultHasher"];

/// Wall-clock types.
const WALL_CLOCK: [&str; 2] = ["Instant", "SystemTime"];

/// Integer types a pointer can be cast to.
const INT_TYPES: [&str; 8] = ["usize", "isize", "u64", "i64", "u32", "i32", "u128", "i128"];

pub(crate) fn run(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let hot_file = HOT_MODULES.iter().any(|m| ctx.path.ends_with(m));
    let in_scope = |line: u32| hot_file || ctx.in_node_program(line);
    let tokens = &ctx.lexed.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if !in_scope(token.line) {
            continue;
        }
        let Some(name) = token.ident() else { continue };
        if HASH_ORDER.contains(&name) {
            push(
                out,
                Rule::Determinism,
                ctx,
                token.line,
                format!(
                    "`{name}` iteration/hashing order is nondeterministic; \
                     use a sorted or index-keyed structure"
                ),
            );
        } else if WALL_CLOCK.contains(&name) {
            push(
                out,
                Rule::Determinism,
                ctx,
                token.line,
                format!("wall clock (`{name}`) read in determinism-critical code"),
            );
        } else if path_is(tokens, i, "std", "time") {
            push(
                out,
                Rule::Determinism,
                ctx,
                token.line,
                "wall clock (`std::time`) read in determinism-critical code".to_string(),
            );
        } else if path_is(tokens, i, "thread", "current") {
            push(
                out,
                Rule::Determinism,
                ctx,
                token.line,
                "thread identity (`thread::current()`) is scheduling-dependent".to_string(),
            );
        } else if name == "as" && casts_pointer_to_int(tokens, i) {
            push(
                out,
                Rule::Determinism,
                ctx,
                token.line,
                "pointer-to-integer cast: addresses vary across runs (ASLR) and threads"
                    .to_string(),
            );
        }
    }
}

/// Whether token `i` starts the path `first::second`.
fn path_is(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    tokens[i].is_ident(first)
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident(second))
}

/// Whether the `as` at `i` casts a pointer-typed value to an integer type:
/// `expr.as_ptr() as usize`, `ptr as u64`, `&x as *const T as usize`.
/// Lexical heuristic: an integer type follows, and a pointer producer
/// (`as_ptr`/`as_mut_ptr`) or a raw-pointer type (`*const`/`*mut`) appears
/// shortly before, within the same expression.
fn casts_pointer_to_int(tokens: &[Token], i: usize) -> bool {
    let next_is_int = tokens
        .get(i + 1)
        .and_then(Token::ident)
        .is_some_and(|name| INT_TYPES.contains(&name));
    if !next_is_int {
        return false;
    }
    let window_start = i.saturating_sub(8);
    for j in (window_start..i).rev() {
        match &tokens[j].kind {
            TokenKind::Punct(';' | '{' | '}') => return false,
            TokenKind::Ident(name) if name == "as_ptr" || name == "as_mut_ptr" => return true,
            TokenKind::Punct('*')
                if tokens
                    .get(j + 1)
                    .is_some_and(|t| t.is_ident("const") || t.is_ident("mut")) =>
            {
                return true
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::rules::scan_source;

    const HOT: &str = "crates/runtime/src/router.rs";

    fn messages(path: &str, src: &str) -> Vec<String> {
        scan_source(path, src)
            .findings
            .iter()
            .filter(|f| f.rule == crate::report::Rule::Determinism)
            .map(|f| f.message.clone())
            .collect()
    }

    #[test]
    fn hash_collections_flagged_in_hot_modules_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(messages(HOT, src).len(), 1);
        assert!(messages("crates/graph/src/csr.rs", src).is_empty());
    }

    #[test]
    fn node_program_impls_are_in_scope_anywhere() {
        let src = "\
use std::collections::HashSet;
impl NodeProgram for P {
    fn on_round(&mut self) { let s: HashSet<u32> = HashSet::default(); let _ = s; }
}
";
        let found = messages("crates/anything/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("HashSet"));
    }

    #[test]
    fn clocks_threads_and_pointer_casts_flagged() {
        let src = "\
fn a() { let t = std::time::Instant::now(); }
fn b() { let id = std::thread::current().id(); }
fn c(v: &[u8]) -> usize { v.as_ptr() as usize }
fn d(x: &u32) -> u64 { x as *const u32 as u64 }
";
        let found = messages(HOT, src);
        assert_eq!(found.len(), 4, "{found:?}");
        assert!(found[0].contains("wall clock"));
        assert!(found[1].contains("thread identity"));
        assert!(found[2].contains("pointer-to-integer"));
    }

    #[test]
    fn ordinary_as_casts_are_fine() {
        let src = "fn f(x: u32) -> usize { x as usize }\n";
        assert!(messages(HOT, src).is_empty());
    }

    #[test]
    fn allow_pragma_suppresses_with_reason() {
        let src = "use std::time::Instant; // cc-lint: allow(determinism) — diagnostics only\n";
        let scan = scan_source(HOT, src);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.suppressed.len(), 1);
    }
}

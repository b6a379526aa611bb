//! A small, self-contained Rust lexer that is exact about what the rules
//! care about: which text is *code* and which text is comment or literal.
//!
//! The rule engine never wants to see inside a string, a raw string, a
//! byte/C string, a char literal, or a comment — a `HashMap` mentioned in a
//! doc comment is not a nondeterminism source. The lexer therefore splits a
//! source file into a token stream (identifiers, integer/float literals,
//! lifetimes, punctuation, and opaque string/char tokens) and a parallel
//! comment stream (kept verbatim, because pragmas and `SAFETY:`
//! justifications live in comments). It handles nested block comments,
//! escapes, raw strings with arbitrary `#` fences, and the `'a`-lifetime vs
//! `'a'`-char ambiguity. Malformed input (say, an unterminated string) is
//! consumed to end of file rather than panicking: a lint pass must survive
//! any bytes it is pointed at.

/// One code token. Strings, chars, and numbers are opaque: the rules only
/// need to know they are *not* identifiers (except integer literals, whose
/// value the model-conformance rule inspects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `Vec`, `collect`, …).
    Ident(String),
    /// An integer literal and its value (saturating at `u128::MAX`;
    /// base prefixes, `_` separators, and type suffixes are handled).
    Int(u128),
    /// A float literal (value irrelevant to every rule).
    Float,
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// One comment, verbatim (without the `//` / `/* */` markers trimmed — the
/// raw text including markers is kept so pragma parsing can be exact about
/// what it accepts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Full comment text including the `//` or `/* */` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs only for block comments).
    pub end_line: u32,
    /// Whether this is a `/* … */` block comment.
    pub block: bool,
}

/// The lexed form of one source file: code tokens and comments, each in
/// source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if pred(c) {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and comments. Never panics; malformed
/// constructs are consumed as far as they reach.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    while let Some(c) = cur.peek() {
        let line = cur.line;
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek_at(1) == Some('/') => {
                let text = cur.eat_while(|c| c != '\n');
                out.comments.push(Comment {
                    text,
                    line,
                    end_line: line,
                    block: false,
                });
            }
            '/' if cur.peek_at(1) == Some('*') => {
                let text = eat_block_comment(&mut cur);
                out.comments.push(Comment {
                    text,
                    line,
                    end_line: cur.line,
                    block: true,
                });
            }
            '"' => {
                eat_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                });
            }
            '\'' => {
                let kind = eat_char_or_lifetime(&mut cur);
                out.tokens.push(Token { kind, line });
            }
            _ if c.is_ascii_digit() => {
                let kind = eat_number(&mut cur);
                out.tokens.push(Token { kind, line });
            }
            _ if is_ident_start(c) => {
                let name = cur.eat_while(is_ident_continue);
                let kind = match string_prefix(&name, &cur) {
                    Some(true) => {
                        if eat_raw_string(&mut cur) {
                            TokenKind::Str
                        } else {
                            // `r#ident` (raw identifier): the fence was
                            // consumed, but the prefix is still an ident.
                            TokenKind::Ident(name)
                        }
                    }
                    Some(false) => {
                        if cur.peek() == Some('"') {
                            eat_string(&mut cur);
                            TokenKind::Str
                        } else {
                            // `b'x'` byte char.
                            eat_char_or_lifetime(&mut cur);
                            TokenKind::Char
                        }
                    }
                    None => TokenKind::Ident(name),
                };
                out.tokens.push(Token { kind, line });
            }
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
            }
        }
    }
    out
}

/// If the identifier just lexed is a string/char prefix (`r`, `b`, `c`,
/// `br`, `cr`) immediately followed by its literal, says so: `Some(true)`
/// for raw flavors, `Some(false)` for escaped flavors.
fn string_prefix(name: &str, cur: &Cursor) -> Option<bool> {
    let next = cur.peek();
    match name {
        "r" | "br" | "cr" if next == Some('"') || next == Some('#') => Some(true),
        "b" | "c" if next == Some('"') => Some(false),
        "b" if next == Some('\'') => Some(false),
        _ => None,
    }
}

/// Consumes a (possibly nested) block comment, `/*` already peeked.
fn eat_block_comment(cur: &mut Cursor) -> String {
    let mut text = String::new();
    let mut depth = 0usize;
    while let Some(c) = cur.peek() {
        if c == '/' && cur.peek_at(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if c == '*' && cur.peek_at(1) == Some('/') {
            depth -= 1;
            text.push_str("*/");
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            text.push(c);
            cur.bump();
        }
    }
    text
}

/// Consumes an escaped string literal, opening `"` still pending.
fn eat_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string literal: zero or more `#`, a `"`, then text until
/// `"` followed by the same number of `#`. Returns false if no string
/// actually starts here (e.g. the `r#` of a raw identifier).
fn eat_raw_string(cur: &mut Cursor) -> bool {
    let mut fences = 0usize;
    while cur.peek() == Some('#') {
        fences += 1;
        cur.bump();
    }
    if cur.peek() != Some('"') {
        return false; // not a raw string (e.g. `r#ident`); fence is gone
    }
    cur.bump();
    'scan: while let Some(c) = cur.bump() {
        if c == '"' {
            for ahead in 0..fences {
                if cur.peek_at(ahead) != Some('#') {
                    continue 'scan;
                }
            }
            for _ in 0..fences {
                cur.bump();
            }
            break;
        }
    }
    true
}

/// Disambiguates `'a'` (char) from `'a` (lifetime), opening `'` pending.
fn eat_char_or_lifetime(cur: &mut Cursor) -> TokenKind {
    cur.bump(); // the quote
    let first = cur.peek();
    if let Some(c) = first {
        if is_ident_start(c) && cur.peek_at(1) != Some('\'') {
            cur.eat_while(is_ident_continue);
            return TokenKind::Lifetime;
        }
    }
    // A char literal: one escaped or plain character, then the close quote.
    if cur.bump() == Some('\\') {
        // Escape: may be `\u{…}` with several chars.
        if cur.peek() == Some('u') {
            cur.bump();
            if cur.peek() == Some('{') {
                while let Some(c) = cur.bump() {
                    if c == '}' {
                        break;
                    }
                }
            }
        } else {
            cur.bump();
        }
    }
    if cur.peek() == Some('\'') {
        cur.bump();
    }
    TokenKind::Char
}

/// Consumes a numeric literal, classifying int vs float and computing the
/// integer value (saturating).
fn eat_number(cur: &mut Cursor) -> TokenKind {
    let first = cur.bump().unwrap_or('0');
    let mut digits = String::new();
    digits.push(first);
    let radix: u32 = if first == '0' {
        match cur.peek() {
            Some('x' | 'X') => {
                cur.bump();
                digits.clear();
                16
            }
            Some('o' | 'O') => {
                cur.bump();
                digits.clear();
                8
            }
            Some('b' | 'B') => {
                cur.bump();
                digits.clear();
                2
            }
            _ => 10,
        }
    } else {
        10
    };
    let mut float = false;
    while let Some(c) = cur.peek() {
        if c == '_' {
            cur.bump();
        } else if c.is_digit(radix) || (radix == 16 && c.is_ascii_hexdigit()) {
            digits.push(c);
            cur.bump();
        } else if radix == 10 && c == '.' {
            // `1..n` is a range, not a float; `1.max(2)` is a method call.
            match cur.peek_at(1) {
                Some(next) if next.is_ascii_digit() => {
                    float = true;
                    cur.bump();
                }
                _ => break,
            }
        } else if radix == 10 && (c == 'e' || c == 'E') {
            // Exponent only if followed by a digit or a sign.
            match cur.peek_at(1) {
                Some(next) if next.is_ascii_digit() || next == '+' || next == '-' => {
                    float = true;
                    cur.bump();
                    cur.bump();
                }
                _ => break,
            }
        } else if is_ident_continue(c) {
            // Type suffix (`u32`, `usize`, `f64`) — consume, classify by it.
            let suffix = cur.eat_while(is_ident_continue);
            if suffix.starts_with('f') {
                float = true;
            }
            break;
        } else {
            break;
        }
    }
    if float {
        return TokenKind::Float;
    }
    let mut value: u128 = 0;
    for d in digits.chars() {
        let digit = d
            .to_digit(if radix == 16 { 16 } else { radix })
            .unwrap_or(0);
        value = value
            .saturating_mul(u128::from(radix))
            .saturating_add(u128::from(digit));
    }
    TokenKind::Int(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn idents_and_puncts_tokenize_with_lines() {
        let lexed = lex("fn main() {\n    x::y\n}\n");
        assert_eq!(
            idents("fn main() {\n    x::y\n}\n"),
            ["fn", "main", "x", "y"]
        );
        let x = lexed.tokens.iter().find(|t| t.is_ident("x")).unwrap();
        assert_eq!(x.line, 2);
        assert!(lexed.tokens.iter().any(|t| t.is_punct(':')));
    }

    #[test]
    fn comments_are_not_tokens() {
        let lexed = lex("// HashMap here\n/* and /* nested */ here */ code\n");
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[1].block);
        assert_eq!(lexed.comments[1].end_line, 2);
        assert_eq!(
            lexed.tokens.iter().filter_map(|t| t.ident()).next(),
            Some("code")
        );
    }

    #[test]
    fn strings_of_every_flavor_are_opaque() {
        let src = r####"let a = "HashMap \" escaped"; let b = r#"raw "HashMap" here"#;
let c = b"bytes"; let d = br##"raw bytes"##; let e = 'x'; let f = b'\n';"####;
        let lexed = lex(src);
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Str)
                .count(),
            4
        );
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'static str { 'q' ; x }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 1);
    }

    #[test]
    fn numbers_parse_values_and_classify_floats() {
        let lexed = lex("16 0x10 0b1_0000 0o20 1_000usize 2.5 1e9 1.0f64 0..n 1.max(2)");
        let ints: Vec<u128> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Int(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(ints, [16, 16, 16, 16, 1000, 0, 1, 2]);
        let floats = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Float)
            .count();
        assert_eq!(floats, 3);
        // `0..n`: the range survives as two `.` puncts.
        assert!(lexed.tokens.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        lex("let s = \"never closed");
        lex("/* never closed");
        lex("let r = r#\"never closed");
        lex("'");
    }

    #[test]
    fn raw_identifier_fence_without_quote_is_left_alone() {
        // `r#ident` (a raw identifier) must not be eaten as a string.
        let lexed = lex("let r#type = 1;");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("r")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("type")));
    }
}

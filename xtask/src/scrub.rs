//! Source scrubbing: turn Rust source into a same-length shadow text in
//! which comment bodies and string/char-literal contents are blanked.
//!
//! Pattern rules (see [`crate::rules`]) match against the scrubbed text,
//! so `panic!` in a doc comment or `"Instant::now"` in a string literal
//! never produces a false positive — while every byte offset and line
//! number in the scrubbed text maps 1:1 onto the original source.

/// A parsed source file ready for rule checks.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// The original text.
    pub raw: String,
    /// Same length as `raw`; comments and literal contents blanked.
    pub scrubbed: String,
    /// `test_mask[i]` is true when line `i` (0-based) lies inside
    /// `#[cfg(test)]`-gated code.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Parse `raw` as the contents of `rel_path`.
    pub fn new(rel_path: impl Into<String>, raw: impl Into<String>) -> Self {
        let raw = raw.into();
        let scrubbed = scrub(&raw);
        let test_mask = test_mask(&scrubbed);
        SourceFile {
            rel_path: rel_path.into(),
            raw,
            scrubbed,
            test_mask,
        }
    }

    /// 1-based line number of byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.raw[..offset].bytes().filter(|&b| b == b'\n').count() + 1
    }

    /// True when byte `offset` lies inside `#[cfg(test)]`-gated code.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_mask
            .get(self.line_of(offset) - 1)
            .copied()
            .unwrap_or(false)
    }

    /// The raw text of the (1-based) line containing `offset`, trimmed.
    pub fn excerpt(&self, offset: usize) -> &str {
        let start = self.raw[..offset].rfind('\n').map_or(0, |p| p + 1);
        let end = self.raw[offset..]
            .find('\n')
            .map_or(self.raw.len(), |p| offset + p);
        self.raw[start..end].trim()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
}

/// Blank comment bodies and literal contents, preserving length, line
/// structure, and all delimiter characters (`"` stays so literals remain
/// visibly literals; their contents become spaces).
pub fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match state {
            State::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'"' {
                    state = State::Str { raw_hashes: None };
                    out.push(b'"');
                    i += 1;
                } else if (c == b'r' || c == b'b') && is_raw_string_start(b, i) {
                    // r"..."  r#"..."#  br#"..."#  b"..."
                    let mut j = i;
                    while b[j] == b'r' || b[j] == b'b' {
                        out.push(b[j]);
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&b'#') {
                        out.push(b'#');
                        hashes += 1;
                        j += 1;
                    }
                    // is_raw_string_start guarantees a quote here.
                    out.push(b'"');
                    let is_raw = src[i..j].contains('r');
                    state = State::Str {
                        raw_hashes: is_raw.then_some(hashes),
                    };
                    i = j + 1;
                } else if c == b'\'' {
                    if let Some(end) = char_literal_end(b, i) {
                        out.push(b'\'');
                        for &cc in &b[i + 1..end] {
                            out.push(if cc == b'\n' { b'\n' } else { b' ' });
                        }
                        out.push(b'\'');
                        i = end + 1;
                        state = State::Code;
                    } else {
                        // A lifetime tick; leave it.
                        out.push(c);
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                if c == b'\n' {
                    out.push(b'\n');
                    state = State::Code;
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if c == b'"' {
                        out.push(b'"');
                        i += 1;
                        state = State::Code;
                    } else {
                        out.push(if c == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
                Some(h) => {
                    if c == b'"' && closes_raw_string(b, i, h) {
                        out.push(b'"');
                        out.extend(std::iter::repeat_n(b'#', h as usize));
                        i += 1 + h as usize;
                        state = State::Code;
                    } else {
                        out.push(if c == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            },
        }
    }
    // Length preservation is what lets offsets be shared with `raw`.
    debug_assert_eq!(
        out.len(),
        b.len(),
        "scrubbed text must preserve source length"
    );
    String::from_utf8(out).unwrap_or_default()
}

/// Does a raw/byte string literal start at `i` (`r"`, `r#"`, `br"`, `b"`)?
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // Reject identifier contexts like `for b in ..` / `var["key"]` by
    // requiring the previous char to not be part of an identifier.
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    let mut prefix = 0;
    while j < b.len() && (b[j] == b'r' || b[j] == b'b') && prefix < 2 {
        j += 1;
        prefix += 1;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Does the quote at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw_string(b: &[u8], i: usize, hashes: u32) -> bool {
    let h = hashes as usize;
    i + h < b.len() && b[i + 1..=i + h].iter().all(|&c| c == b'#')
}

/// If a char literal starts at `i` (which holds `'`), return the index of
/// its closing quote; `None` when this tick is a lifetime.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let next = *b.get(i + 1)?;
    if next == b'\\' {
        // Escaped: scan to the closing quote.
        let mut j = i + 2;
        while j < b.len() {
            if b[j] == b'\'' {
                return Some(j);
            }
            j += 1;
            if j > i + 12 {
                break; // longest escape is \u{10FFFF}
            }
        }
        None
    } else {
        // Unescaped: `'x'` where x is one char (possibly multibyte).
        let mut j = i + 2;
        while j < b.len() && j <= i + 5 {
            if b[j] == b'\'' {
                return (j == i + 2 || b[i + 1] >= 0x80).then_some(j);
            }
            if b[j] < 0x80 {
                break;
            }
            j += 1;
        }
        None
    }
}

/// Mark the lines covered by `#[cfg(test)]`-gated items.
fn test_mask(scrubbed: &str) -> Vec<bool> {
    let lines = scrubbed.lines().count() + 1;
    let mut mask = vec![false; lines];
    let b = scrubbed.as_bytes();
    let mut search = 0;
    while let Some(found) = scrubbed[search..].find("#[cfg(") {
        let attr = search + found;
        search = attr + 6;
        let close = match scrubbed[attr..].find(']') {
            Some(c) => attr + c,
            None => continue,
        };
        let inside = &scrubbed[attr + 6..close];
        let gated = inside.starts_with("test)")
            || inside.starts_with("all(test")
            || inside.starts_with("any(test");
        if !gated {
            continue;
        }
        // The gated item runs until its closing brace (or `;` for
        // brace-free items like gated `use`). A gated field or
        // struct-literal field runs until its enclosing block closes,
        // and ends on its own last line.
        let mut j = close + 1;
        let mut depth = 0usize;
        let mut item_end = scrubbed.len();
        while j < b.len() {
            match b[j] {
                b'{' => depth += 1,
                b'}' if depth == 0 => {
                    item_end = scrubbed[..j].trim_end().len();
                    break;
                }
                b'}' => {
                    if depth == 1 {
                        item_end = j;
                        break;
                    }
                    depth -= 1;
                }
                b';' if depth == 0 => {
                    item_end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let first = scrubbed[..attr].bytes().filter(|&c| c == b'\n').count();
        let last = scrubbed[..item_end].bytes().filter(|&c| c == b'\n').count();
        for line in mask.iter_mut().take(last + 1).skip(first) {
            *line = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = r#"
// panic!("in a comment")
/// doc .unwrap()
fn f() {
    let s = "panic!(inside string)";
    let c = 'x';
    let t = 'a' as u32; // lifetime-free
}
"#;
        let out = scrub(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("panic!"));
        assert!(!out.contains("unwrap"));
        assert!(out.contains("fn f()"));
        assert!(out.contains("let s = \""));
        assert!(out.contains("as u32"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = r##"let a = r#"Instant::now() " quote"#; let b = "esc \" Instant::now";"##;
        let out = scrub(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("Instant::now"));
        assert!(out.contains("let b ="));
    }

    #[test]
    fn lifetimes_survive_char_literal_detection() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = '\\n'; x }";
        let out = scrub(src);
        assert_eq!(out.len(), src.len());
        assert!(out.contains("fn f<'a>(x: &'a str)"));
        assert!(!out.contains("\\n"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner panic!() */ still comment */ fn g() {}";
        let out = scrub(src);
        assert!(!out.contains("panic!"));
        assert!(out.contains("fn g()"));
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = "\
fn live() { x.unwrap(); }

#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
}

fn also_live() {}
";
        let f = SourceFile::new("a.rs", src);
        let live = f.raw.find("x.unwrap").expect("fixture");
        let test = f.raw.find("y.unwrap").expect("fixture");
        let tail = f.raw.find("also_live").expect("fixture");
        assert!(!f.in_test_code(live));
        assert!(f.in_test_code(test));
        assert!(!f.in_test_code(tail));
    }

    #[test]
    fn test_mask_handles_cfg_all_and_item_forms() {
        let src = "\
#[cfg(all(test, feature = \"x\"))]
mod gated { fn a() {} }
#[cfg(test)]
use std::fmt;
fn live() {}
";
        let f = SourceFile::new("a.rs", src);
        assert!(f.in_test_code(f.raw.find("fn a").expect("fixture")));
        assert!(f.in_test_code(f.raw.find("use std").expect("fixture")));
        assert!(!f.in_test_code(f.raw.find("fn live").expect("fixture")));
    }

    #[test]
    fn test_mask_ends_a_gated_field_on_its_own_line() {
        let src = "struct S {\n    #[cfg(test)]\n    hits: u64,\n}\nfn live() {}\n";
        let f = SourceFile::new("a.rs", src);
        assert_eq!(f.test_mask[..5], [false, true, true, false, false]);
    }
}

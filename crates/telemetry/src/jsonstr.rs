//! JSON string-literal escaping and unescaping: the lexer under
//! [`crate::json`], the workspace's one JSON reader and writer.
//!
//! Writers escape `"`, `\`, `\n`, `\r`, `\t` and all other control
//! characters (as `\uXXXX`); the reader additionally accepts the standard
//! `\/`, `\b`, `\f` and `\uXXXX` escapes so any conforming document parses
//! back.

use std::fmt::Write as _;

/// Append `s` to `out` as a quoted JSON string literal.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a quoted JSON string literal from `bytes` starting at `*pos`
/// (which must point at the opening `"`), advancing `*pos` past the
/// closing quote.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error
/// (missing opening quote, unterminated literal, bad escape).
pub fn unescape(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // The writers only escape control characters; no
                        // surrogate pairs to handle.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the plain run up to the next quote or backslash in
                // one step. Both are ASCII, so the run ends on a character
                // boundary and only the run itself is validated (checking
                // the rest of the document per character made a parse
                // quadratic in the document size).
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |i| *pos + i);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| "invalid utf-8".to_owned())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> String {
        let mut lit = String::new();
        escape_into(&mut lit, s);
        let mut pos = 0;
        let back = unescape(lit.as_bytes(), &mut pos).unwrap();
        assert_eq!(pos, lit.len(), "literal fully consumed");
        back
    }

    #[test]
    fn escapes_roundtrip() {
        for s in [
            "",
            "plain",
            "a\"b\\c\nd\re\tf",
            "control \u{1}\u{1f} bytes",
            "unicode é ☃ 𝄞",
        ] {
            assert_eq!(roundtrip(s), s);
        }
    }

    #[test]
    fn accepts_foreign_escapes() {
        let mut pos = 0;
        let s = unescape(br#""a\/b\u0041\b\f""#, &mut pos).unwrap();
        assert_eq!(s, "a/bA\u{8}\u{c}");
    }

    #[test]
    fn rejects_malformed_literals() {
        for bad in [
            &b"no quote"[..],
            b"\"unterminated",
            b"\"bad \\q\"",
            b"\"\\u00",
        ] {
            let mut pos = 0;
            assert!(unescape(bad, &mut pos).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn invalid_utf8_inside_a_literal_is_rejected() {
        let mut pos = 0;
        assert!(unescape(b"\"a\xff\"", &mut pos).is_err());
        // Bytes after the literal are not the literal's business.
        let mut pos = 0;
        assert_eq!(unescape(b"\"ok\" \xff", &mut pos).unwrap(), "ok");
    }

    #[test]
    fn position_advances_past_the_literal_only() {
        let doc = br#"{"k": "v"}"#;
        let mut pos = 1;
        assert_eq!(unescape(doc, &mut pos).unwrap(), "k");
        assert_eq!(pos, 4);
    }
}

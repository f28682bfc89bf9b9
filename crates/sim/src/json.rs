//! JSON string escaping shared by every JSON producer in the workspace
//! (the Chrome-trace exporter and the bench reports), so a name or
//! path from outside the program can never break a document.

use std::fmt::Write as _;

/// `s` as a JSON string literal, quotes included. Escapes `"`, `\`
/// and every control character (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`); everything else passes through unchanged.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escaping() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("nl\n"), "\"nl\\n\"");
        assert_eq!(quote("\r\t"), "\"\\r\\t\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("µs → ok"), "\"µs → ok\"");
    }
}

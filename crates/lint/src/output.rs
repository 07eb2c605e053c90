//! Machine-readable output.
//!
//! Three formats:
//!
//! * `text` — `file:line: rule: message` (grep-friendly, the default)
//! * `json` — a findings document for artifacts and tooling
//! * `github` — `::error file=…,line=…::…` workflow annotations, so CI
//!   failures land on the offending line of the PR diff
//!
//! A finding is fixed or waived where it stands; nothing suppresses it from
//! outside the tree. The crate is std-only, so JSON is written by hand.

use crate::rules::Finding;

/// Escape a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The findings document (`--format=json`, and the `--out` artifact).
pub fn findings_json(findings: &[Finding], files_linted: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"tool\": \"detlint\",\n");
    s.push_str("  \"schema\": 3,\n");
    s.push_str(&format!("  \"files_linted\": {files_linted},\n"));
    s.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\", \"snippet\": \"{}\"}}{}\n",
            esc(&f.file),
            f.line,
            esc(f.rule),
            esc(&f.message),
            esc(&f.snippet),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// GitHub Actions workflow annotations (one `::error` line per finding).
pub fn findings_github(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        // Annotation message text must keep to one line; %0A is the escaped
        // newline but we never need it.
        s.push_str(&format!(
            "::error file={},line={},title=detlint({})::{}\n",
            f.file,
            f.line,
            f.rule,
            f.message.replace('\n', " ")
        ));
    }
    s
}

/// Plain text (default format).
pub fn findings_text(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&format!("{f}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    /// The fields of the findings document the tests read back.
    #[derive(Deserialize)]
    struct Doc {
        findings: Vec<Entry>,
    }

    #[derive(Deserialize)]
    struct Entry {
        rule: String,
        snippet: String,
    }

    fn finding(file: &str, line: u32, rule: &'static str, snippet: &str) -> Finding {
        Finding {
            file: file.into(),
            line,
            rule,
            message: format!("msg for {rule}"),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn json_formats_carry_file_and_line() {
        let f = finding("crates/x/src/lib.rs", 17, "lock-order", "a.lock();");
        let j = findings_json(std::slice::from_ref(&f), 1);
        assert!(j.contains("\"file\": \"crates/x/src/lib.rs\""));
        assert!(j.contains("\"line\": 17"));
        let parsed: Doc = serde_json::from_str(&j).unwrap();
        assert_eq!(parsed.findings[0].rule, "lock-order");
        let gh = findings_github(&[f]);
        assert!(gh.contains("::error file=crates/x/src/lib.rs,line=17,title=detlint(lock-order)::"));
    }

    #[test]
    fn json_escapes_special_chars() {
        let f = finding("a.rs", 1, "hashmap", "let s = \"x\\y\";\t");
        let j = findings_json(&[f], 1);
        let parsed: Doc = serde_json::from_str(&j).unwrap();
        assert_eq!(parsed.findings[0].snippet, "let s = \"x\\y\";\t");
    }
}

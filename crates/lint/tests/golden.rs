//! Fixture-driven golden tests: each fixture under `tests/fixtures/` marks
//! every expected finding with a `// expect: rule[, rule…]` comment on the
//! line the finding must land on. The test compares the exact multiset of
//! `(line, rule)` pairs — nothing extra may fire, nothing marked may be
//! missed — so both false positives and false negatives fail loudly.

/// Parse the `expect:` markers out of a fixture.
fn expected(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        if let Some(i) = line.find("expect: ") {
            for rule in line[i + "expect: ".len()..].split(',') {
                let rule = rule.split_whitespace().next().unwrap_or("");
                if !rule.is_empty() {
                    out.push((idx as u32 + 1, rule.to_string()));
                }
            }
        }
    }
    out.sort();
    out
}

fn check(name: &str, src: &str) {
    let report = lint::lint_sources(&[(name.to_string(), src.to_string())]);
    let mut got: Vec<(u32, String)> =
        report.findings.iter().map(|f| (f.line, f.rule.to_string())).collect();
    got.sort();
    assert_eq!(got, expected(src), "fixture {name}: findings were {:#?}", report.findings);
}

#[test]
fn determinism_family() {
    check("determinism.rs", include_str!("fixtures/determinism.rs"));
}

#[test]
fn blocking_family() {
    check("blocking.rs", include_str!("fixtures/blocking.rs"));
}

#[test]
fn panic_in_actor_family() {
    check("panic_actor.rs", include_str!("fixtures/panic_actor.rs"));
}

#[test]
fn commit_point_family() {
    check("commit_point.rs", include_str!("fixtures/commit_point.rs"));
}

#[test]
fn lock_order_family() {
    check("lock_order.rs", include_str!("fixtures/lock_order.rs"));
}

#[test]
fn waiver_audit_family() {
    check("waivers.rs", include_str!("fixtures/waivers.rs"));
}

/// Regression for the old substring lint's blind spot: a char (or byte-char)
/// literal containing `"` used to flip its line-classifier into "inside a
/// string" state, silencing every rule for the rest of the file.
#[test]
fn char_literal_quote_blind_spot_is_gone() {
    let src = r#"fn f() {
    let _q = b'"';
    let _c = '"';
    let _t = Instant::now();
}
"#;
    let r = lint::lint_sources(&[("x.rs".to_string(), src.to_string())]);
    assert!(
        r.findings.iter().any(|f| f.rule == "ambient-time" && f.line == 4),
        "Instant::now after quote char literals must still be seen: {:?}",
        r.findings
    );
}

/// The fields of the findings document the seeded check reads back.
#[derive(serde::Deserialize)]
struct Doc {
    findings: Vec<DocFinding>,
}

#[derive(serde::Deserialize)]
struct DocFinding {
    file: String,
    line: u32,
    rule: String,
}

/// Acceptance check: a seeded violation of each family renders with the
/// correct file:line in both the JSON document and the GitHub annotations.
#[test]
fn seeded_violations_render_in_json_and_github() {
    let fixtures = [
        ("fix/determinism.rs", include_str!("fixtures/determinism.rs")),
        ("fix/blocking.rs", include_str!("fixtures/blocking.rs")),
        ("fix/panic_actor.rs", include_str!("fixtures/panic_actor.rs")),
        ("fix/commit_point.rs", include_str!("fixtures/commit_point.rs")),
        ("fix/lock_order.rs", include_str!("fixtures/lock_order.rs")),
        ("fix/waivers.rs", include_str!("fixtures/waivers.rs")),
    ];
    let sources: Vec<(String, String)> =
        fixtures.iter().map(|(n, s)| (n.to_string(), s.to_string())).collect();
    let report = lint::lint_sources(&sources);

    // Every rule family is represented.
    for rule in [
        "ambient-time",
        "ambient-env",
        "rng",
        "hashmap",
        "blocking-in-des",
        "panic-in-actor",
        "commit-point-order",
        "lock-order",
        "stale-waiver",
        "bad-waiver",
    ] {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "no seeded {rule} finding in the fixture set"
        );
    }

    let json = lint::output::findings_json(&report.findings, report.files_linted);
    let github = lint::output::findings_github(&report.findings);
    for f in &report.findings {
        assert!(
            json.contains(&format!(
                "\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\"",
                f.file, f.line, f.rule
            )),
            "json missing {}:{} {}",
            f.file,
            f.line,
            f.rule
        );
        assert!(
            github.contains(&format!(
                "::error file={},line={},title=detlint({})::",
                f.file, f.line, f.rule
            )),
            "github annotations missing {}:{} {}",
            f.file,
            f.line,
            f.rule
        );
    }
    // And the JSON parses back to the same findings.
    let parsed: Doc = serde_json::from_str(&json).expect("emitted JSON parses");
    let got: Vec<(String, u32, String)> =
        parsed.findings.into_iter().map(|f| (f.file, f.line, f.rule)).collect();
    let want: Vec<(String, u32, String)> =
        report.findings.iter().map(|f| (f.file.clone(), f.line, f.rule.to_string())).collect();
    assert_eq!(got, want);
}

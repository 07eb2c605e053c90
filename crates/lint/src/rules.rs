//! The rule families, evaluated over the token stream of one file.
//!
//! Rules never see comment or literal text (the lexer classifies those), and
//! the function scanner gives scope-aware families (`panic-in-actor`,
//! `commit-point-order`, `lock-order`) a real notion of "inside this
//! function". `#[cfg(test)] mod …` bodies are excluded: test code may panic,
//! sleep, and use `HashMap` freely.
//!
//! # Families
//!
//! Determinism (waived wholesale by `detlint: skip-file`):
//!
//! * `ambient-time` (alias `wallclock`) — `SystemTime::now`, `Instant::now`
//! * `ambient-env` — `env::var` / `vars` / `var_os`
//! * `rng` — `thread_rng`, `from_entropy`, `rand::random`
//! * `hashmap` — `HashMap` / `HashSet` (iteration order varies run to run)
//! * `blocking-in-des` — `thread::sleep`, `thread::park`, blocking
//!   `.recv()` / `.recv_timeout()` inside the DES envelope
//!
//! Structural (run even in `skip-file`d files — a real-thread transport may
//! keep wall clocks, but its commit ordering and lock ordering still carry
//! the crash-consistency guarantees):
//!
//! * `panic-in-actor` — `.unwrap()` / `.expect()` / `panic!` /
//!   `unreachable!` / `todo!` inside actor handlers (`fn on_event`,
//!   `fn on_message`, `fn step`): crash-loop fodder for the supervisor
//! * `commit-point-order` — in functions annotated `// lint: commit-point`,
//!   a journal append/flush token must appear, and must precede the first
//!   ack/reply send token. Token sets are overridable per site:
//!   `// lint: commit-point(commit=handle_put, ack=send)`
//! * `lock-order` — nested `.lock()` acquisitions build a cross-file edge
//!   graph; cycles (and re-entrant relocks) are reported as potential
//!   deadlocks
//!
//! Meta:
//!
//! * `stale-waiver` — a `detlint: allow(...)` that suppressed nothing
//! * `bad-waiver` — an `allow(...)` naming an unknown rule

use crate::lexer::{lex, Tok, TokKind};

/// Rule names (stable identifiers: waivers, baselines, and CI reference
/// them).
pub const AMBIENT_TIME: &str = "ambient-time";
pub const AMBIENT_ENV: &str = "ambient-env";
pub const RNG: &str = "rng";
pub const HASHMAP: &str = "hashmap";
pub const BLOCKING_IN_DES: &str = "blocking-in-des";
pub const PANIC_IN_ACTOR: &str = "panic-in-actor";
pub const COMMIT_POINT_ORDER: &str = "commit-point-order";
pub const LOCK_ORDER: &str = "lock-order";
pub const STALE_WAIVER: &str = "stale-waiver";
pub const BAD_WAIVER: &str = "bad-waiver";

/// Every real (waivable) rule.
pub const ALL_RULES: &[&str] = &[
    AMBIENT_TIME,
    AMBIENT_ENV,
    RNG,
    HASHMAP,
    BLOCKING_IN_DES,
    PANIC_IN_ACTOR,
    COMMIT_POINT_ORDER,
    LOCK_ORDER,
];

/// Rules waived by a file-level `detlint: skip-file` (the determinism
/// envelope proper). Structural rules still run.
const SKIP_FILE_RULES: &[&str] = &[AMBIENT_TIME, AMBIENT_ENV, RNG, HASHMAP, BLOCKING_IN_DES];

/// Actor handler names whose bodies `panic-in-actor` polices.
const ACTOR_FNS: &[&str] = &["on_event", "on_message", "step"];

/// Default commit-side tokens for `commit-point-order`.
const COMMIT_TOKENS: &[&str] = &[
    "append",
    "append_batch",
    "append_parts",
    "flush",
    "flush_journal",
    "record",
    "journal_record",
    "hand_off",
];

/// Default ack-side tokens for `commit-point-order`.
const ACK_TOKENS: &[&str] = &["send", "send_now", "reply", "respond", "ack"];

/// One finding, pre- or post-waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`analyze`] (workspace-relative in CLI use).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    /// The full source line, trimmed (also the baseline key).
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// A nested lock acquisition: `to` was acquired while a guard on `from` was
/// (heuristically) live. Receivers are the dotted token path before
/// `.lock()` with a leading `self.` stripped, so the same field nested in
/// two functions unifies into one graph node.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub func: String,
}

/// A per-site waiver comment.
#[derive(Debug, Clone)]
struct Waiver {
    line: u32,
    rule: String,
    used: bool,
}

/// Everything extracted from one file. Lock-order needs the whole-workspace
/// graph, so per-file analysis returns edges; [`crate::lint_sources`] turns
/// cycles into findings and routes them back through this file's waivers.
#[derive(Debug)]
pub struct FileLint {
    pub file: String,
    /// Pre-waiver findings from the per-file families.
    findings: Vec<Finding>,
    pub lock_edges: Vec<LockEdge>,
    pub skip_file: bool,
    waivers: Vec<Waiver>,
    lines: Vec<String>,
}

impl FileLint {
    /// Append a finding produced after per-file analysis (lock-order cycle
    /// edges); still subject to this file's waivers.
    pub fn push_late(&mut self, line: u32, rule: &'static str, message: String) {
        let snippet = self.snippet(line);
        self.findings.push(Finding { file: self.file.clone(), line, rule, message, snippet });
    }

    fn snippet(&self, line: u32) -> String {
        self.lines.get(line as usize - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    }

    /// Apply waivers: drop waived findings, then report stale waivers (an
    /// `allow` that suppressed nothing) and unknown-rule waivers. In a
    /// `skip-file`d file, waivers for determinism rules are not audited —
    /// the file-level waiver already subsumes them.
    pub fn resolve(mut self) -> Vec<Finding> {
        let mut kept = Vec::new();
        for f in std::mem::take(&mut self.findings) {
            let mut waived = false;
            for w in self.waivers.iter_mut() {
                if w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line) {
                    w.used = true;
                    waived = true;
                }
            }
            if !waived {
                kept.push(f);
            }
        }
        for w in &self.waivers {
            if !ALL_RULES.contains(&w.rule.as_str()) {
                kept.push(Finding {
                    file: self.file.clone(),
                    line: w.line,
                    rule: BAD_WAIVER,
                    message: format!("waiver names unknown rule `{}`", w.rule),
                    snippet: self.snippet(w.line),
                });
            } else if !(w.used || (self.skip_file && SKIP_FILE_RULES.contains(&w.rule.as_str()))) {
                kept.push(Finding {
                    file: self.file.clone(),
                    line: w.line,
                    rule: STALE_WAIVER,
                    message: format!(
                        "`detlint: allow({})` suppresses nothing on this or the next line — delete it",
                        w.rule
                    ),
                    snippet: self.snippet(w.line),
                });
            }
        }
        kept.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        kept
    }
}

/// Normalize waiver rule aliases (the pre-lexer lint called `ambient-time`
/// `wallclock`; existing waivers keep working).
fn canonical_rule(name: &str) -> String {
    match name {
        "wallclock" => AMBIENT_TIME.to_string(),
        other => other.to_string(),
    }
}

/// Analyze one file. `file` is the reporting label (workspace-relative).
pub fn analyze(file: &str, src: &str) -> FileLint {
    let toks = lex(src);
    let lines: Vec<String> = src.lines().map(str::to_string).collect();
    let snippet =
        |line: u32| lines.get(line as usize - 1).map(|l| l.trim().to_string()).unwrap_or_default();

    // --- Waivers and directives from comment tokens -------------------------
    let mut waivers = Vec::new();
    let mut skip_file = false;
    let mut directives: Vec<(u32, String)> = Vec::new(); // `lint:` annotations
    for t in toks.iter().filter(|t| t.kind.is_comment()) {
        let text = t.text(src);
        if text.contains("detlint: skip-file") {
            skip_file = true;
        }
        let mut rest = text;
        while let Some(i) = rest.find("detlint: allow(") {
            rest = &rest[i + "detlint: allow(".len()..];
            if let Some(j) = rest.find(')') {
                waivers.push(Waiver {
                    line: t.line,
                    rule: canonical_rule(rest[..j].trim()),
                    used: false,
                });
                rest = &rest[j..];
            } else {
                break;
            }
        }
        if let Some(i) = text.find("lint: commit-point") {
            directives.push((t.line, text[i..].to_string()));
        }
    }

    // --- Code token view ----------------------------------------------------
    let code: Vec<Tok> = toks.iter().copied().filter(|t| t.kind.is_code()).collect();
    let in_test = test_mod_mask(src, &code);
    let txt = |i: usize| code[i].text(src);
    let is_p = |i: usize, p: &str| code[i].kind == TokKind::Punct && txt(i) == p;
    let is_id = |i: usize, name: &str| code[i].kind == TokKind::Ident && txt(i) == name;
    let path2 = |i: usize, a: &str, b: &str| {
        i + 3 < code.len() && is_id(i, a) && is_p(i + 1, ":") && is_p(i + 2, ":") && is_id(i + 3, b)
    };
    let method = |i: usize, name: &str| {
        i >= 1 && i + 1 < code.len() && is_p(i - 1, ".") && is_id(i, name) && is_p(i + 1, "(")
    };

    let mut findings = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            snippet: snippet(line),
        });
    };

    // --- Determinism families ----------------------------------------------
    if !skip_file {
        for i in 0..code.len() {
            if in_test[i] {
                continue;
            }
            let line = code[i].line;
            if path2(i, "SystemTime", "now") || path2(i, "Instant", "now") {
                push(
                    line,
                    AMBIENT_TIME,
                    format!("ambient wall-clock read `{}::now` in the deterministic envelope — route time through the engine clock", txt(i)),
                );
            }
            if is_id(i, "env")
                && i + 3 < code.len()
                && is_p(i + 1, ":")
                && is_p(i + 2, ":")
                && matches!(txt(i + 3), "var" | "vars" | "var_os" | "vars_os")
            {
                push(
                    line,
                    AMBIENT_ENV,
                    format!("ambient environment read `env::{}` in the deterministic envelope — thread configuration through the run config", txt(i + 3)),
                );
            }
            if is_id(i, "thread_rng") || is_id(i, "from_entropy") || path2(i, "rand", "random") {
                push(
                    line,
                    RNG,
                    "ambient RNG in the deterministic envelope — use the engine's seeded stream"
                        .to_string(),
                );
            }
            if (is_id(i, "HashMap") || is_id(i, "HashSet")) && code[i].kind == TokKind::Ident {
                push(
                    line,
                    HASHMAP,
                    format!("`{}` iteration order varies run to run — use BTreeMap/BTreeSet, or waive with a fixed-key-hasher justification", txt(i)),
                );
            }
            if path2(i, "thread", "sleep") || path2(i, "thread", "park") {
                push(
                    line,
                    BLOCKING_IN_DES,
                    format!(
                        "blocking `thread::{}` in a DES crate — model delays as engine timers",
                        txt(i + 3)
                    ),
                );
            }
            if method(i, "recv") || method(i, "recv_timeout") {
                push(
                    line,
                    BLOCKING_IN_DES,
                    format!("blocking channel `.{}()` in a DES crate — DES actors receive via events, never by blocking", txt(i)),
                );
            }
        }
    }

    // --- Function-scoped families ------------------------------------------
    let fns = scan_fns(src, &code);
    let mut lock_edges = Vec::new();
    for f in &fns {
        if f.body.is_none() || in_test[f.kw_idx] {
            continue;
        }
        let (body_start, body_end) = f.body.unwrap();

        if ACTOR_FNS.contains(&f.name.as_str()) && !skip_file {
            for i in body_start..body_end {
                if in_test[i] {
                    continue;
                }
                let line = code[i].line;
                if method(i, "unwrap") || method(i, "expect") {
                    push(
                        line,
                        PANIC_IN_ACTOR,
                        format!("`.{}()` inside actor handler `fn {}` — a poisoned message becomes a crash loop; return/shed instead", txt(i), f.name),
                    );
                } else if (is_id(i, "panic") || is_id(i, "unreachable") || is_id(i, "todo"))
                    && i + 1 < code.len()
                    && is_p(i + 1, "!")
                {
                    push(
                        line,
                        PANIC_IN_ACTOR,
                        format!("`{}!` inside actor handler `fn {}` — crash-loop fodder for the supervisor", txt(i), f.name),
                    );
                }
            }
        }

        // commit-point-order: only for annotated functions.
        let directive = directives
            .iter()
            .find(|(dl, _)| *dl == f.kw_line || *dl + 1 == f.kw_line)
            .map(|(_, d)| d.clone());
        if let Some(d) = directive {
            let (commit_set, ack_set) = commit_point_sets(&d);
            let mut first_commit: Option<u32> = None;
            let mut first_ack: Option<u32> = None;
            for (i, tok) in code.iter().enumerate().take(body_end).skip(body_start) {
                let t = txt(i);
                if tok.kind == TokKind::Ident {
                    if first_commit.is_none() && commit_set.iter().any(|c| c == t) {
                        first_commit = Some(tok.line);
                    }
                    if first_ack.is_none() && ack_set.iter().any(|a| a == t) {
                        first_ack = Some(code[i].line);
                    }
                }
            }
            match (first_commit, first_ack) {
                (None, _) => push(
                    f.kw_line,
                    COMMIT_POINT_ORDER,
                    format!(
                        "`fn {}` is annotated `lint: commit-point` but contains no journal append/flush token ({})",
                        f.name,
                        commit_set.join("/")
                    ),
                ),
                (Some(c), Some(a)) if a < c => push(
                    a,
                    COMMIT_POINT_ORDER,
                    format!(
                        "ack/reply send (line {a}) precedes the journal append/flush (line {c}) in commit-point `fn {}` — a crash between them acks un-journaled state",
                        f.name
                    ),
                ),
                _ => {}
            }
        }

        // lock-order: collect nested-acquisition edges.
        collect_lock_edges(file, src, &code, f, body_start, body_end, &mut lock_edges, &mut push);
    }

    FileLint { file: file.to_string(), findings, lock_edges, skip_file, waivers, lines }
}

/// Parse `lint: commit-point(commit=a|b, ack=c)` overrides; defaults
/// otherwise.
fn commit_point_sets(directive: &str) -> (Vec<String>, Vec<String>) {
    let mut commit: Vec<String> = COMMIT_TOKENS.iter().map(|s| s.to_string()).collect();
    let mut ack: Vec<String> = ACK_TOKENS.iter().map(|s| s.to_string()).collect();
    if let Some(open) = directive.find('(') {
        if let Some(close) = directive[open..].find(')') {
            for kv in directive[open + 1..open + close].split(',') {
                if let Some((k, v)) = kv.split_once('=') {
                    let vals: Vec<String> = v
                        .split('|')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    match k.trim() {
                        "commit" => commit = vals,
                        "ack" => ack = vals,
                        _ => {}
                    }
                }
            }
        }
    }
    (commit, ack)
}

/// A scanned function: `fn` keyword token index/line, name, and the code
/// token range of its body (exclusive of the braces), if it has one.
struct FnScan {
    name: String,
    kw_idx: usize,
    kw_line: u32,
    body: Option<(usize, usize)>,
}

/// Find every `fn` item/method with its body token range. Heuristic (token
/// level, no full parse): the body is the first `{` after the signature at
/// zero paren/bracket depth; `;` at zero depth first means no body (trait
/// method declaration).
fn scan_fns(src: &str, code: &[Tok]) -> Vec<FnScan> {
    let mut out = Vec::new();
    let txt = |i: usize| code[i].text(src);
    let mut i = 0;
    while i < code.len() {
        if code[i].kind == TokKind::Ident && txt(i) == "fn" && i + 1 < code.len() {
            let name = if code[i + 1].kind == TokKind::Ident {
                txt(i + 1).to_string()
            } else {
                i += 1;
                continue; // `fn` in a fn-pointer type `fn(...)`: skip
            };
            let kw_idx = i;
            let kw_line = code[i].line;
            let mut depth = (0i32, 0i32); // (paren, bracket)
            let mut j = i + 2;
            let mut body = None;
            while j < code.len() {
                match (code[j].kind, txt(j)) {
                    (TokKind::Punct, "(") => depth.0 += 1,
                    (TokKind::Punct, ")") => depth.0 -= 1,
                    (TokKind::Punct, "[") => depth.1 += 1,
                    (TokKind::Punct, "]") => depth.1 -= 1,
                    (TokKind::Punct, ";") if depth == (0, 0) => break,
                    (TokKind::Punct, "{") if depth == (0, 0) => {
                        let start = j + 1;
                        let mut braces = 1i32;
                        let mut k = start;
                        while k < code.len() && braces > 0 {
                            match (code[k].kind, txt(k)) {
                                (TokKind::Punct, "{") => braces += 1,
                                (TokKind::Punct, "}") => braces -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        body = Some((start, k.saturating_sub(1)));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push(FnScan { name, kw_idx, kw_line, body });
        }
        i += 1;
    }
    out
}

/// Mark code-token indices inside `#[cfg(test)] mod … { … }` bodies (and the
/// attribute/mod header itself). Rules and envelope inference skip them.
pub(crate) fn test_mod_mask(src: &str, code: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let txt = |i: usize| code[i].text(src);
    let is_p = |i: usize, p: &str| code[i].kind == TokKind::Punct && txt(i) == p;
    let is_id = |i: usize, name: &str| code[i].kind == TokKind::Ident && txt(i) == name;
    let mut i = 0;
    while i + 6 < code.len() {
        // #[cfg(test)]  (also matches #[cfg(test)] inside larger attrs — good
        // enough: the codebase convention is a bare cfg(test) on the mod).
        if is_p(i, "#")
            && is_p(i + 1, "[")
            && is_id(i + 2, "cfg")
            && is_p(i + 3, "(")
            && is_id(i + 4, "test")
            && is_p(i + 5, ")")
            && is_p(i + 6, "]")
        {
            let attr_start = i;
            let mut j = i + 7;
            // Skip any further attributes between cfg(test) and the item.
            while j + 1 < code.len() && is_p(j, "#") && is_p(j + 1, "[") {
                let mut depth = 0i32;
                j += 1;
                while j < code.len() {
                    if is_p(j, "[") {
                        depth += 1;
                    } else if is_p(j, "]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // pub / pub(crate) etc.
            if j < code.len() && is_id(j, "pub") {
                j += 1;
                if j < code.len() && is_p(j, "(") {
                    while j < code.len() && !is_p(j, ")") {
                        j += 1;
                    }
                    j += 1;
                }
            }
            if j + 1 < code.len() && is_id(j, "mod") {
                // Find the `{` (inline mod) or `;` (outline mod).
                let mut k = j + 1;
                while k < code.len() && !is_p(k, "{") && !is_p(k, ";") {
                    k += 1;
                }
                if k < code.len() && is_p(k, "{") {
                    let mut braces = 1i32;
                    let mut m = k + 1;
                    while m < code.len() && braces > 0 {
                        if is_p(m, "{") {
                            braces += 1;
                        } else if is_p(m, "}") {
                            braces -= 1;
                        }
                        m += 1;
                    }
                    for slot in mask.iter_mut().take(m).skip(attr_start) {
                        *slot = true;
                    }
                    i = m;
                    continue;
                }
                // Outline `#[cfg(test)] mod foo;` — mask the declaration so
                // envelope inference skips the file.
                for slot in mask.iter_mut().take(k + 1).skip(attr_start) {
                    *slot = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Track heuristic guard liveness inside one function body and emit nested
/// acquisition edges. A `let`-bound (incl. `if let`) guard lives until brace
/// depth drops below its acquisition depth; a temporary guard dies at the
/// next `;` at or below its depth. Re-entrant relocks of the same receiver
/// are reported immediately.
#[allow(clippy::too_many_arguments)]
fn collect_lock_edges(
    file: &str,
    src: &str,
    code: &[Tok],
    f: &FnScan,
    body_start: usize,
    body_end: usize,
    edges: &mut Vec<LockEdge>,
    push: &mut impl FnMut(u32, &'static str, String),
) {
    let txt = |i: usize| code[i].text(src);
    let is_p = |i: usize, p: &str| code[i].kind == TokKind::Punct && txt(i) == p;
    struct Guard {
        recv: String,
        depth: i32,
        let_bound: bool,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = body_start;
    for i in body_start..body_end {
        if is_p(i, "{") {
            depth += 1;
        } else if is_p(i, "}") {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            stmt_start = i + 1;
        } else if is_p(i, ";") {
            guards.retain(|g| g.let_bound || g.depth < depth);
            stmt_start = i + 1;
        } else if code[i].kind == TokKind::Ident
            && txt(i) == "lock"
            && i >= 1
            && is_p(i - 1, ".")
            && i + 2 < code.len()
            && is_p(i + 1, "(")
            && is_p(i + 2, ")")
        {
            // Walk the receiver path backwards: idents joined by `.` / `::`.
            let mut parts: Vec<&str> = Vec::new();
            let mut j = i - 1; // at the `.`
            while j > 0 {
                let p = j - 1;
                if code[p].kind == TokKind::Ident {
                    parts.push(txt(p));
                    if p >= 2 && (is_p(p - 1, ".") || (is_p(p - 1, ":") && is_p(p - 2, ":"))) {
                        j = if is_p(p - 1, ".") { p - 1 } else { p - 2 };
                        continue;
                    }
                }
                break;
            }
            parts.reverse();
            if parts.is_empty() {
                continue; // e.g. `(expr).lock()` — unnameable receiver
            }
            let recv = {
                let dotted = parts.join(".");
                dotted.strip_prefix("self.").unwrap_or(&dotted).to_string()
            };
            let line = code[i].line;
            for g in &guards {
                if g.recv == recv {
                    push(
                        line,
                        LOCK_ORDER,
                        format!(
                            "re-entrant `.lock()` of `{recv}` while its guard is live in `fn {}` — self-deadlock",
                            f.name
                        ),
                    );
                } else {
                    edges.push(LockEdge {
                        from: g.recv.clone(),
                        to: recv.clone(),
                        file: file.to_string(),
                        line,
                        func: f.name.clone(),
                    });
                }
            }
            let let_bound = stmt_start < code.len()
                && code[stmt_start].kind == TokKind::Ident
                && matches!(txt(stmt_start), "let" | "if" | "while");
            guards.push(Guard { recv, depth, let_bound });
        }
    }
}

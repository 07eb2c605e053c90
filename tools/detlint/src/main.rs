#![forbid(unsafe_code)]

//! detlint — CLI over the `lint` crate (wflint).
//!
//! With no path arguments the deterministic envelope is *inferred*: workspace
//! members whose `Cargo.toml` carries `[package.metadata.detlint]
//! envelope = true` are walked from their crate root through `mod`
//! declarations (see `lint::envelope`). Explicit paths (files or directories,
//! recursed) override inference.
//!
//! ```text
//! detlint [paths…] [--format=text|json|github] [--out FILE] [--root DIR] [--list]
//! ```
//!
//! * `--format=github` emits `::error` workflow annotations (CI).
//! * `--out FILE` additionally writes the JSON findings document (uploaded
//!   as a CI artifact on failure).
//! * `--list` prints the inferred envelope and exits (debugging).
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/I-O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    paths: Vec<PathBuf>,
    format: String,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { paths: Vec::new(), format: "text".to_string(), out: None, root: None, list: false };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<PathBuf, String> {
            it.next().map(PathBuf::from).ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--list" => args.list = true,
            "--out" => args.out = Some(take("--out")?),
            "--root" => args.root = Some(take("--root")?),
            a if a.starts_with("--format=") => {
                args.format = a["--format=".len()..].to_string();
                if !matches!(args.format.as_str(), "text" | "json" | "github") {
                    return Err(format!("unknown format `{}`", args.format));
                }
            }
            a if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

/// Collect `.rs` files under `path` (file or directory, recursed), sorted.
fn collect_rs(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(path)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for entry in entries {
        collect_rs(&entry, out)?;
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = match &args.root {
        Some(r) => r.clone(),
        None => lint::envelope::find_workspace_root(&cwd)
            .ok_or("no workspace root found (run inside the workspace or pass --root)")?,
    };

    // Target set: explicit paths, or the inferred envelope.
    let files: Vec<PathBuf> = if args.paths.is_empty() {
        lint::envelope::infer(&root).map_err(|e| format!("envelope inference: {e}"))?
    } else {
        let mut abs = Vec::new();
        for p in &args.paths {
            let full = if p.is_absolute() { p.clone() } else { cwd.join(p) };
            collect_rs(&full, &mut abs).map_err(|e| format!("{}: {e}", p.display()))?;
        }
        abs.iter()
            .map(|f| f.strip_prefix(&root).map(Path::to_path_buf).unwrap_or_else(|_| f.clone()))
            .collect()
    };

    if args.list {
        for f in &files {
            println!("{}", f.display());
        }
        eprintln!("detlint: {} files in the envelope", files.len());
        return Ok(ExitCode::SUCCESS);
    }

    let report = lint::lint_files(&root, &files).map_err(|e| format!("lint: {e}"))?;

    let findings = &report.findings;
    let rendered = match args.format.as_str() {
        "json" => lint::output::findings_json(findings, report.files_linted),
        "github" => lint::output::findings_github(findings),
        _ => lint::output::findings_text(findings),
    };
    print!("{rendered}");

    if let Some(path) = &args.out {
        std::fs::write(path, lint::output::findings_json(findings, report.files_linted))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    if !findings.is_empty() {
        eprintln!("detlint: {} finding(s) in {} files", findings.len(), report.files_linted);
        Ok(ExitCode::FAILURE)
    } else {
        eprintln!("detlint: {} files clean", report.files_linted);
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("detlint: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_paths() {
        let a =
            parse_args(&argv(&["crates/staging/src", "--format=json", "--out", "f.json"])).unwrap();
        assert_eq!(a.paths, vec![PathBuf::from("crates/staging/src")]);
        assert_eq!(a.format, "json");
        assert_eq!(a.out, Some(PathBuf::from("f.json")));
    }

    #[test]
    fn rejects_unknown_flag_and_format() {
        // The deleted baseline flags are unknown like any other.
        let removed = ["baseline", "write-baseline"].map(|name| format!("--{name}"));
        let mut inputs = vec![argv(&["--what"]), argv(&["--format=yaml"])];
        inputs.extend(removed.iter().map(|flag| argv(&[flag, "x"])));
        for bad in inputs {
            let err = parse_args(&bad).err();
            assert!(err.is_some_and(|e| e.starts_with("unknown")), "{bad:?}");
        }
    }
}

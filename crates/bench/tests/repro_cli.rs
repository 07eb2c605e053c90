//! `repro`'s argument handling: a run that would print nothing is an error.
//! And the gate on the paper: what `repro` prints and writes for Fig. 9, the
//! two tables, the ablations and the checkpoint-period sweep is `results/`,
//! byte for byte (ROADMAP item 12; `fig10`, 8 s optimised, is gated in CI's
//! `metrics-gate` job).

use std::path::Path;
use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn unknown_or_missing_experiment_is_rejected_with_the_valid_list() {
    for args in [&["--exp", "fig99"][..], &["--exp"][..]] {
        let (code, stdout, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
        assert!(stderr.contains("fig9a") && stderr.contains("ablations"), "{args:?}: {stderr}");
    }
    let (code, stdout, _) = repro(&["--exp", "table2"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("Table II"));
}

fn committed(file: &str) -> String {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::read_to_string(results.join(file)).expect(file)
}

#[test]
fn fig9_tables_and_json_reproduce_results_byte_for_byte() {
    for exp in ["fig9a", "fig9b", "fig9e"] {
        let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro_{exp}.json"));
        let (code, stdout, _) = repro(&["--exp", exp, "--json", json.to_str().expect("utf-8")]);
        assert_eq!(code, Some(0), "{exp}");
        assert!(stdout == committed(&format!("{exp}.txt")), "{exp} table differs from results/");
        let written = std::fs::read_to_string(&json).expect("repro wrote the file");
        assert!(written == committed(&format!("{exp}.json")), "{exp} JSON differs from results/");
    }
}

/// The results that are only a printed table: `tables.txt` is `table2`'s
/// output followed by `table3`'s.
#[test]
fn tables_ablations_and_period_sweep_reproduce_results_byte_for_byte() {
    for (file, exps) in [
        ("tables.txt", &["table2", "table3"][..]),
        ("ablations.txt", &["ablations"][..]),
        ("period_sweep.txt", &["period_sweep"][..]),
    ] {
        let mut stdout = String::new();
        for exp in exps {
            let (code, out, _) = repro(&["--exp", exp]);
            assert_eq!(code, Some(0), "{exp}");
            stdout.push_str(&out);
        }
        assert!(stdout == committed(file), "{exps:?} output differs from results/{file}");
    }
}

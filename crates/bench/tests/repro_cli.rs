//! `repro`'s argument handling: a run that would print nothing is an error.

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

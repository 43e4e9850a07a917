//! End-to-end tests of the `amosql --strategy` flag: accepted spellings
//! start the shell under the chosen strategy, rejected ones exit 2 with
//! a caret diagnostic pointing at the offending slice.

use std::io::Write;
use std::process::{Command, Stdio};

/// Run `amosql` with the given args and empty stdin; return
/// (exit code, stdout, stderr).
fn run_amosql(args: &[&str]) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_amosql"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn amosql");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"")
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait amosql");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn valid_strategies_start_the_shell() {
    for strategy in ["serial", "parallel"] {
        let (code, stdout, stderr) = run_amosql(&["--strategy", strategy]);
        assert_eq!(code, 0, "--strategy {strategy} failed: {stderr}");
        assert!(
            stdout.contains("amos-pdiff interactive shell"),
            "banner missing for {strategy}: {stdout}"
        );
    }
}

#[test]
fn unknown_strategy_gets_a_spanned_diagnostic() {
    let (code, _, stderr) = run_amosql(&["--strategy", "turbo"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown strategy `turbo`"), "{stderr}");
    // The caret line points at the whole bad token.
    assert!(stderr.contains("--strategy turbo"), "{stderr}");
    assert!(stderr.contains("^^^^^"), "{stderr}");
}

/// An unknown head stays unknown whatever `:argument` follows it: the
/// caret spans the head alone.
#[test]
fn unknown_strategy_with_an_argument_points_at_the_head() {
    for spelling in ["pooled:4", "pooled:0", "pooled:"] {
        let (code, _, stderr) = run_amosql(&["--strategy", spelling]);
        assert_eq!(code, 2, "--strategy {spelling}: {stderr}");
        assert!(
            stderr.contains("unknown strategy `pooled`; expected serial or parallel"),
            "{stderr}"
        );
        let caret_line = stderr
            .lines()
            .find(|l| l.trim_start().starts_with('^'))
            .unwrap_or_else(|| panic!("no caret line in {stderr}"));
        // "  --strategy " is 13 chars; the carets sit under `pooled`.
        assert_eq!(caret_line.find('^'), Some(13), "{stderr}");
        assert_eq!(caret_line.trim_start(), "^^^^^^", "{stderr}");
    }
}

#[test]
fn missing_strategy_value_is_rejected() {
    let (code, _, stderr) = run_amosql(&["--strategy"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("--strategy requires a value"), "{stderr}");
}

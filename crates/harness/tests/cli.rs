//! The `newtop-exp` command line as a process: exit codes and output
//! streams of the paths that end before any work starts.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_newtop-exp"))
        .args(args)
        .output()
        .expect("spawn newtop-exp")
}

#[test]
fn help_exits_zero_and_lists_the_flags_on_stdout() {
    let cases: [(&[&str], &[&str]); 7] = [
        (
            &["--help"],
            &["--quick", "--list", "chaos", "proxy", "e1", "e10"],
        ),
        (&["-h"], &["--quick", "--list"]),
        (
            &["chaos", "--help"],
            &["--seeds", "--replay", "--pin", "--jobs", "--wan"],
        ),
        (
            &["load", "--help"],
            &["--nodes", "--host", "--secs", "--supervise", "--port-base"],
        ),
        (
            &["mc", "--help"],
            &["--nodes", "--max-msgs", "--strategy", "--big-omega-us"],
        ),
        (
            &["serve", "--help"],
            &["--nodes", "--peers", "--ctrl", "--me", "--rejoin"],
        ),
        (
            &["proxy", "--help"],
            &["--route", "--drop-pct", "--rate-kbps", "--secs"],
        ),
    ];
    for (args, flags) in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?} wrote to stderr");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: newtop-exp"),
            "{args:?}: {stdout}"
        );
        for flag in flags {
            assert!(stdout.contains(flag), "{args:?} does not list {flag}");
        }
    }
}

#[test]
fn usage_errors_exit_two_without_panicking() {
    let cases: [(&[&str], &str); 5] = [
        (&["--quik", "e1"], "unknown argument '--quik'"),
        (&["load", "--bogus"], "unknown argument '--bogus'"),
        (
            &["mc", "--nodes", "3", "--nodes", "4"],
            "--nodes given twice",
        ),
        (&["load", "--nodes"], "--nodes needs a value"),
        (&["serve", "--nodes", "3"], "peer and ctrl address lists"),
    ];
    for (args, reason) in cases {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: newtop-exp"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

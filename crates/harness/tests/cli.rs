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
            &["--nodes", "--max-msgs", "--max-wakes", "--big-omega-us"],
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

/// With `--host tcp` the serve processes decide the group config and the
/// shards, so `load` refuses those flags (exit 2, naming the flag) before
/// it tries to connect, instead of ignoring them.
#[test]
fn tcp_load_refuses_the_flags_the_serves_decide() {
    for flag in [&["--accrual"][..], &["--mode", "asym"], &["--shards", "2"]] {
        let args = [&["load", "--host", "tcp", "--peers", "127.0.0.1:1"], flag].concat();
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag[0]), "{args:?}: {stderr}");
        assert!(!stderr.contains("connect"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {stderr}");
    }
}

/// The auto depth bound of the largest budgets saturates instead of
/// overflowing; a zero wall-clock budget then stops before any state is
/// checked, which is the inconclusive exit.
#[test]
fn mc_largest_budgets_exit_inconclusive_without_panicking() {
    let out = run(&["mc", "--max-msgs", "4294967295", "--budget-secs", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inconclusive"), "{stdout}");
}

/// Every malformed replay script fails in the parser — exit 2, the
/// offending line quoted on stderr — instead of panicking the engine,
/// being silently ignored, or replaying to a misleading verdict.
#[test]
fn malformed_replay_scripts_exit_two_quoting_the_line() {
    const HEAD: &str = "newtop-chaos v1\nseed 1\nn 3\nhorizon-us 100000\n\
                        group 1 symmetric omega-us 5000 big-omega-us 60000 members 1,2,3\n";
    const WAN: &str = "wan reorder-pm 0 hold-us 500\n";
    // (extra lines after HEAD, the line that must be quoted, the reason)
    let cases: [(&str, &str, &str); 29] = [
        (
            "",
            "group 2 symmetric omega-us 5000 big-omega-us 60000 members 1,4",
            "process 4 outside 1..=3",
        ),
        (
            "",
            "group 1 asymmetric omega-us 5000 big-omega-us 60000 members 1,2",
            "group 1 declared twice",
        ),
        (
            "",
            "group 2 symmetric omega-us 5000 big-omega-us 4000 members 1,2",
            "must exceed",
        ),
        ("", "send 5000 4 1 0", "process 4 outside 1..=3"),
        ("", "send 5000 1 7 0", "undeclared group 7"),
        ("", "fault 5000 crash 0", "process 0 outside 1..=3"),
        ("", "fault 5000 depart 5 1", "process 5 outside 1..=3"),
        ("", "fault 5000 depart 1 2", "undeclared group 2"),
        (
            "",
            "fault 5000 partition loss 1,2|4",
            "process 4 outside 1..=3",
        ),
        ("", "mc-step deliver 1 4", "process 4 outside 1..=3"),
        ("", "mc-step wake 9", "process 9 outside 1..=3"),
        ("", "mc-step crash 4", "process 4 outside 1..=3"),
        ("", "mc-step send 1 3 0", "undeclared group 3"),
        (WAN, "wan-node 4 0 64000", "process 4 outside 1..=3"),
        ("", "n 2", "`n` given twice"),
        ("", "seed 2", "`seed` given twice"),
        ("", "horizon-us 5", "`horizon-us` given twice"),
        (WAN, WAN.trim_end(), "`wan` given twice"),
        (
            "",
            "fault 5000 partition delay 1,2|2,3",
            "process 2 listed twice",
        ),
        ("", "fault 5000 wan-link 0 1 5000 9000 64000", "before wan"),
        ("", "fault 5000 wan-uplink 1 64000", "before wan"),
        ("send 5000 1 1 0\n", "mc-step wake 1", "cannot be mixed"),
        ("fault 5000 heal\n", "mc-step wake 1", "cannot be mixed"),
        ("mc-step wake 1\n", "send 5000 1 1 0", "cannot be mixed"),
        ("mc-step wake 1\n", "fault 5000 heal", "cannot be mixed"),
        (WAN, "mc-step wake 1", "cannot be mixed"),
        ("mc-step wake 1\n", WAN.trim_end(), "cannot be mixed"),
        ("send 5000 1 1 0\n", "send 6000 2 1 0", "mid 0 sent twice"),
        (
            "mc-step send 1 1 3\n",
            "mc-step send 2 1 3",
            "mid 3 sent twice",
        ),
    ];
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (k, (extra, line, reason)) in cases.iter().enumerate() {
        let path = dir.join(format!("malformed-{k}.chaos"));
        std::fs::write(&path, format!("{HEAD}{extra}{line}\n")).expect("write script");
        let out = run(&["chaos", "--replay", path.to_str().expect("utf-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} replayed: {stderr}");
        assert!(stderr.contains(&format!("`{line}`")), "{line}: {stderr}");
        assert!(stderr.contains(reason), "{line}: {stderr}");
    }
}

/// A pinned script replays green through the CLI in every family: `chaos
/// --pin SEED --out F` then `chaos --replay F`.
#[test]
fn pinned_scripts_replay_green_in_every_family() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for family in [&[][..], &["--churn"], &["--wan"]] {
        let path = dir.join(format!("pinned{}.chaos", family.join("")));
        let path = path.to_str().expect("utf-8 path");
        let pin = run(&[&["chaos", "--pin", "7", "--out", path], family].concat());
        assert_eq!(pin.status.code(), Some(0), "{family:?}: {pin:?}");
        let replay = run(&["chaos", "--replay", path]);
        let stdout = String::from_utf8_lossy(&replay.stdout);
        assert_eq!(replay.status.code(), Some(0), "{family:?}: {replay:?}");
        assert!(stdout.contains("green"), "{family:?}: {stdout}");
    }
}

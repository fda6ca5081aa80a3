//! Replays every committed chaos-corpus script exactly.
//!
//! Each `tests/corpus/*.chaos` entry is a fully materialised fault
//! schedule (see `newtop_harness::chaos`) pinned by `newtop-exp chaos
//! --pin <seed>`: regression seeds that once exposed protocol bugs, plus
//! coverage seeds over diverse fault mixes. For every entry this test
//! asserts (1) bit-exact determinism — the recorded `expect-hash` matches
//! a fresh run — and (2) that the full checker passes.
//!
//! If a deliberate protocol change alters histories, regenerate with:
//! `cargo run --release -p newtop-harness --bin newtop-exp -- chaos --pin
//! <seed> --out tests/corpus/seed-<seed>.chaos` (keep the leading `#`
//! provenance comment).

use newtop_harness::chaos::{delivery_count, ChaosPlan};
use newtop_harness::{check_all, history_hash};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_is_nonempty_and_has_regressions() {
    let entries: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "chaos"))
        .collect();
    assert!(
        entries.len() >= 10,
        "corpus unexpectedly small: {} entries",
        entries.len()
    );
    let regressions = entries
        .iter()
        .filter(|e| {
            std::fs::read_to_string(e.path())
                .unwrap_or_default()
                .starts_with("# regression")
        })
        .count();
    assert!(
        regressions >= 5,
        "expected pinned regression seeds, found {regressions}"
    );
}

#[test]
fn every_corpus_entry_replays_exactly_and_passes_the_checker() {
    let mut checked = 0usize;
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "chaos"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let (plan, expect_hash) =
            ChaosPlan::parse_script(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let expect_hash = expect_hash.unwrap_or_else(|| panic!("{name}: missing expect-hash"));
        let history = plan.run().history();
        let got = history_hash(&history);
        assert_eq!(
            got, expect_hash,
            "{name}: replay diverged (expected {expect_hash:016x}, got {got:016x}) — \
             same seed must reproduce the identical history"
        );
        assert!(
            delivery_count(&history) > 0,
            "{name}: run delivered nothing tagged"
        );
        let violations = check_all(&history, &plan.check_options());
        assert!(violations.is_empty(), "{name}: {violations:?}");
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} corpus entries ran");
}

/// Each script re-emitted by the one-list writer parses back to the same
/// plan and replays to the file's `expect-hash`: the writer keeps file
/// order, so same-instant inputs keep taking effect as the file ordered
/// them.
#[test]
fn every_corpus_entry_roundtrips_through_the_writer() {
    let mut checked = 0usize;
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|x| x != "chaos") {
            continue;
        }
        let name = path.display();
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let (plan, expect_hash) =
            ChaosPlan::parse_script(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let script = plan.to_script(expect_hash);
        let (again, again_hash) =
            ChaosPlan::parse_script(&script).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(again, plan, "{name}");
        assert_eq!(again_hash, expect_hash, "{name}");
        let got = history_hash(&again.run().history());
        assert_eq!(Some(got), expect_hash, "{name}: re-emitted plan diverged");
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} corpus entries ran");
}

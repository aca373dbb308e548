//! The `verify` CLI refuses bad arguments with exit 2 before it replays
//! any corpus entry: nothing runs, and stdout carries no `corpus:` line.

#[test]
fn argv_errors_exit_2_before_any_corpus_replay() {
    for (args, want) in [
        (&["--bogus"][..], "unknown argument \"--bogus\""),
        (&["--seed", "twelve"][..], "not an integer: \"twelve\""),
        (&["--oracle", "no-such-oracle"][..], "unknown oracle"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_verify"))
            .args(args)
            .output()
            .expect("verify runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stdout.contains("corpus:"), "{args:?}: {stdout}");
    }
}

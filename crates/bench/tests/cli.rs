//! `cj-bench` usage errors exit 2 with the usage text, before any work.

use std::process::Command;

#[test]
fn unknown_modes_and_flags_exit_2_with_usage() {
    for args in [
        &[][..],
        &["bogus"],
        &["fig8", "--bogus"],
        &["engines", "--clients", "5"],
        &["fig8", "--quick"],
        &["fig8", "--out", "fig8.json"],
        &["fig9", "--quick"],
        &["fig9", "--out", "fig9.json"],
        &["daemon", "--quick"],
        &["daemon", "--think-ms", "5"],
        &["daemon", "--rate", "5"],
        &["daemon", "--workers", "2"],
        &["daemon", "--no-hold"],
        &["daemon", "--clients", "0"],
        &["daemon", "--addr", "nowhere"],
        &["extents", "--out"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cj-bench"))
            .args(args)
            .output()
            .expect("run cj-bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: cj-bench fig8|fig9"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

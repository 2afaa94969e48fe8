//! `repro`'s exit codes, on the built binary: a rejected command line
//! exits 2 with the usage line on stderr and nothing on stdout — no
//! experiment has started.

use std::process::Command;

#[test]
fn rejected_command_lines_exit_2_with_the_usage_line_before_any_experiment() {
    for args in [
        &["--scale", "0"][..],
        &["--sources", "0"],
        &["fig9", "--scale", "x"],
        &["fig9", "--scale"],
        &["all", "nosuch"],
        &["--bogus"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn list_names_every_experiment_and_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in emogi_bench::experiments::ALL_IDS {
        assert!(stdout.contains(id), "{id} missing from `repro list`");
    }
}

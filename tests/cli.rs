//! The `knl` front door, driven as a process: a subcommand that takes no
//! arguments refuses a stray one with a usage error (exit 2), as the tools
//! do, instead of ignoring it.

use std::process::{Command, Output};

fn knl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_knl"))
        .args(args)
        .output()
        .expect("knl runs")
}

#[test]
fn list_and_help_refuse_stray_arguments() {
    let list = knl(&["list"]);
    assert_eq!(list.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&list.stdout).lines().count(), 14);
    assert_eq!(knl(&["--help"]).status.code(), Some(0));
    for args in [["list", "extra"], ["--help", "extra"]] {
        let out = knl(&args);
        assert_eq!(out.status.code(), Some(2), "knl {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("unknown argument: extra"), "{stderr}");
    }
}

//! The `icnoc` binary's stderr contract for `sim`: a degraded run names
//! itself there, and stdout stays the bytes the library renders.

use std::process::{Command, Output};

fn icnoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_icnoc"))
        .args(args)
        .output()
        .expect("the icnoc binary runs")
}

fn rendered(args: &[&str]) -> String {
    let cli = icnoc_cli::Cli::parse(args.iter().copied()).expect("parses");
    icnoc_cli::run(&cli).expect("runs") + "\n"
}

#[test]
fn drain_timeout_is_named_on_stderr_only() {
    // At this stuck-handshake rate flits are still held when the drain
    // budget (4 × 1000 cycles under a fault plan) runs out.
    let args = [
        "sim",
        "--ports",
        "16",
        "--cycles",
        "300",
        "--faults",
        "stuck=0.5",
    ];
    let out = icnoc(&args);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.contains("warning: drain timed out after its 4000-cycle budget with "),
        "{stderr}"
    );
    assert!(stderr.contains(" flit(s) still in flight"), "{stderr}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8"),
        rendered(&args)
    );
}

#[test]
fn clean_drain_keeps_stderr_empty() {
    let args = [
        "sim",
        "--ports",
        "16",
        "--pattern",
        "uniform:0.2",
        "--cycles",
        "300",
    ];
    let out = icnoc(&args);
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stderr).expect("utf-8"), "");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8"),
        rendered(&args)
    );
}

#[test]
fn out_of_range_runs_exit_2_and_unanswered_tiles_still_end() {
    for args in [
        &["sim", "--ports", "8", "--cycles", "9223372036854775808"][..],
        &["sim", "--ports", "8", "--tiles", "0:3"],
    ] {
        assert_eq!(icnoc(args).status.code(), Some(2), "{args:?}");
    }
    // Memories whose service latency never elapses: the run ends and the
    // drain names what is still queued.
    let out = icnoc(&[
        "sim",
        "--ports",
        "4",
        "--cycles",
        "50",
        "--tiles",
        "4:18446744073709551615",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("warning: drain timed out"), "{stderr}");
}

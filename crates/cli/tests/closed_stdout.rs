//! The `icnoc` binary's contract with a reader that stops early: closing
//! stdout after one line (`icnoc trace ... | head -1`) is a quiet,
//! successful exit, never a panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_icnoc"))
        .args([
            "trace",
            "--ports",
            "64",
            "--cycles",
            "2000",
            "--limit",
            "100000",
            "--capacity",
            "100000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the icnoc binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("reads one line");
    assert!(!first.is_empty(), "the trace prints at least one line");
    // Close the pipe with most of the output still unread.
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("reads stderr");
    let status = child.wait().expect("the child exits");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    assert_ne!(status.code(), Some(101), "a panic exits 101: {stderr}");
    assert!(status.success(), "{status:?}: {stderr}");
}

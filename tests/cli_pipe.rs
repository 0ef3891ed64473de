//! The CLI against a reader that stops early (`hdiff findings | head -1`).
//!
//! Once the reader has closed its end, the CLI's next write fails with
//! EPIPE. The process must then exit quietly, without a panic, and with
//! the status a shell reports for a process ended by SIGPIPE (141) —
//! never with success, which would hide a failing verdict behind the
//! pipe.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Output, Stdio};

const EXIT_BROKEN_PIPE: i32 = 141;

fn assert_quiet_broken_pipe(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_BROKEN_PIPE), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

#[test]
fn closed_stdout_ends_the_cli_quietly() {
    // `findings --quick` prints more than a pipe buffer holds, so the
    // CLI is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdiff"))
        .args(["findings", "--quick", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hdiff");
    let mut first = String::new();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut first).expect("read the first line");
    drop(stdout);

    let out = child.wait_with_output().expect("wait for hdiff");
    assert!(first.starts_with('['), "unexpected first line {first:?}");
    assert_quiet_broken_pipe(&out);
}

#[test]
fn a_failing_replay_behind_a_closed_pipe_does_not_exit_with_success() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-pipe-failing-replay");
    std::fs::create_dir_all(&dir).expect("create the bundle dir");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let name = "catalog-bad-absolute-uri.json";
    let bundle = std::fs::read_to_string(golden.join(name)).expect("read the golden bundle");
    let recorded = r#""culprits":["weblogic"]"#;
    assert!(bundle.contains(recorded), "golden bundle {name} changed shape");
    let tampered = bundle.replacen(recorded, r#""culprits":["no-such-product"]"#, 1);
    std::fs::write(dir.join(name), tampered).expect("write the tampered bundle");

    // Unpiped, the tampered bundle fails its replay.
    let plain = Command::new(env!("CARGO_BIN_EXE_hdiff"))
        .args(["replay", "--all"])
        .arg(&dir)
        .output()
        .expect("run hdiff replay");
    assert!(!plain.status.success(), "the tampered bundle replayed as PASS");
    assert!(String::from_utf8_lossy(&plain.stdout).contains("1 failed"));

    // A pipe whose reader is already gone: the first write hits EPIPE.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_hdiff"))
        .args(["replay", "--all"])
        .arg(&dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run hdiff replay");
    assert_quiet_broken_pipe(&out);
}

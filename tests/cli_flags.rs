//! The CLI fails loudly on flags it would otherwise ignore: an unknown
//! `--` flag to `run`, `stats` or `findings`, and a summary or trace sink
//! asked of a workload that cannot write one. Each row must exit
//! non-zero, name the offending flag, and write no file.

use std::path::Path;
use std::process::Command;

struct Row {
    args: &'static [&'static str],
    stderr_has: &'static str,
}

const ROWS: &[Row] = &[
    Row { args: &["run", "--quick", "--bogus-flag"], stderr_has: "unknown flag --bogus-flag" },
    Row { args: &["stats", "--quick", "--bogus-flag"], stderr_has: "unknown flag --bogus-flag" },
    Row { args: &["findings", "--quick", "--bogus-flag"], stderr_has: "unknown flag --bogus-flag" },
    Row { args: &["findings", "--quick", "--csv", "--cvs"], stderr_has: "unknown flag --cvs" },
    // A flag of another command is unknown here too.
    Row { args: &["stats", "--quick", "--csv"], stderr_has: "unknown flag --csv" },
    Row {
        args: &["run", "--quick", "--min-classes", "3"],
        stderr_has: "unknown flag --min-classes",
    },
    // A value flag does not swallow the next flag as its value.
    Row {
        args: &["run", "--quick", "--trace-out", "--bogus-flag"],
        stderr_has: "--trace-out needs a value",
    },
    Row {
        args: &["run", "--quick", "--protocol", "cookie", "--summary-out", "SINK"],
        stderr_has: "--summary-out is not supported for this workload yet",
    },
    Row {
        args: &["run", "--quick", "--protocol", "cookie", "--trace-out", "SINK"],
        stderr_has: "--trace-out is not supported for this workload yet",
    },
    Row {
        args: &["run", "--frontend", "h2", "--summary-out", "SINK"],
        stderr_has: "--summary-out is not supported for this workload yet",
    },
    Row {
        args: &["run", "--frontend", "h2", "--trace-out", "SINK"],
        stderr_has: "--trace-out is not supported for this workload yet",
    },
    Row {
        args: &["fuzz", "--iters", "1", "--summary-out", "SINK"],
        stderr_has: "--summary-out is not supported for this workload yet",
    },
    Row {
        args: &["fuzz", "--iters", "1", "--trace-out", "SINK"],
        stderr_has: "--trace-out is not supported for this workload yet",
    },
];

#[test]
fn unknown_and_unsupported_flags_exit_non_zero_with_a_named_error() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-flags");
    std::fs::create_dir_all(&dir).expect("create the sink dir");
    for (i, row) in ROWS.iter().enumerate() {
        let sink = dir.join(format!("row-{i}.out"));
        std::fs::remove_file(&sink).ok();
        let args: Vec<&str> = row
            .args
            .iter()
            .map(|a| if *a == "SINK" { sink.to_str().unwrap() } else { a })
            .collect();
        let out =
            Command::new(env!("CARGO_BIN_EXE_hdiff")).args(&args).output().expect("run hdiff");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "hdiff {args:?} exited 0; stderr:\n{stderr}");
        assert!(out.status.code().is_some(), "hdiff {args:?} died by a signal; stderr:\n{stderr}");
        assert!(
            stderr.contains(row.stderr_has),
            "hdiff {args:?}: stderr lacks {:?}:\n{stderr}",
            row.stderr_has
        );
        assert!(!sink.exists(), "hdiff {args:?} wrote {}", sink.display());
    }
}

#[test]
fn known_flags_still_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-flags-known");
    std::fs::create_dir_all(&dir).expect("create the sink dir");
    let summary = dir.join("summary.json");
    std::fs::remove_file(&summary).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_hdiff"))
        .args(["stats", "--quick", "--threads", "2", "--no-telemetry", "--summary-out"])
        .arg(&summary)
        .output()
        .expect("run hdiff");
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(summary.exists(), "the http campaign writes its summary");
}

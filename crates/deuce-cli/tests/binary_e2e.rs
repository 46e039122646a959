//! End-to-end tests of the compiled `deuce` binary.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn deuce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_deuce"))
}

/// A scratch directory for one test, unique per test label, process
/// and call (so concurrent `cargo test` runs never share one), and
/// removed on drop even when the test fails.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(test: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "{test}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn help_prints_usage() {
    let output = deuce().arg("help").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("deuce run"));
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let output = deuce().output().expect("binary runs");
    assert!(output.status.success());
    assert!(String::from_utf8(output.stdout).unwrap().contains("USAGE"));
}

#[test]
fn bad_flag_fails_with_message() {
    let output = deuce().args(["run", "--bogus"]).output().expect("binary runs");
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("bogus"));
}

#[test]
fn full_pipeline_through_the_binary() {
    let dir = ScratchDir::new("deuce-bin-e2e");
    let trace = dir.join("pipeline.trace");
    let trace_str = trace.to_str().unwrap();

    let output = deuce()
        .args([
            "gen", "--benchmark", "libq", "--writes", "400", "--lines", "32", "-o", trace_str,
        ])
        .output()
        .expect("gen runs");
    assert!(output.status.success(), "{:?}", output);

    let output = deuce().args(["stats", trace_str]).output().expect("stats runs");
    assert!(output.status.success());
    assert!(String::from_utf8(output.stdout).unwrap().contains("writes\t400"));

    let output = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce"])
        .output()
        .expect("run runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("scheme\tDEUCE"), "{text}");

    let output = deuce()
        .args(["sweep", "--trace", trace_str])
        .output()
        .expect("sweep runs");
    assert!(output.status.success());
    assert_eq!(String::from_utf8(output.stdout).unwrap().lines().count(), 17);
}

#[test]
fn streamed_run_matches_materialised_through_the_binary() {
    let dir = ScratchDir::new("deuce-bin-stream-e2e");
    let trace = dir.join("s.jsonl");
    let trace_str = trace.to_str().unwrap();

    // JSONL gen, then the same run materialised and streamed.
    let output = deuce()
        .args([
            "gen", "--benchmark", "mcf", "--writes", "400", "--lines", "32", "--format", "jsonl",
            "-o", trace_str,
        ])
        .output()
        .expect("gen runs");
    assert!(output.status.success(), "{output:?}");

    let materialised = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce"])
        .output()
        .expect("run runs");
    assert!(materialised.status.success());
    let streamed = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce", "--stream"])
        .output()
        .expect("run --stream runs");
    assert!(streamed.status.success());
    assert_eq!(streamed.stdout, materialised.stdout, "streaming must not change results");
}

#[test]
fn sharded_sweep_through_the_binary() {
    let dir = ScratchDir::new("deuce-bin-shard-e2e");
    let m0 = dir.join("m0.jsonl");
    let m1 = dir.join("m1.jsonl");
    let base = ["--benchmark", "mcf", "--writes", "300", "--lines", "32", "--seed", "5"];

    let unsharded = deuce().arg("sweep").args(base).output().expect("sweep runs");
    assert!(unsharded.status.success(), "{unsharded:?}");

    for (spec, path) in [("0/2", &m0), ("1/2", &m1)] {
        let output = deuce()
            .arg("sweep")
            .args(base)
            .args(["--shard", spec, "--manifest", path.to_str().unwrap()])
            .output()
            .expect("shard runs");
        assert!(output.status.success(), "{output:?}");
        let text = String::from_utf8(output.stdout).unwrap();
        assert!(text.contains("cells_run\t8"), "{text}");
    }

    let merged = deuce()
        .args(["merge", m0.to_str().unwrap(), m1.to_str().unwrap()])
        .output()
        .expect("merge runs");
    assert!(merged.status.success(), "{merged:?}");
    assert_eq!(merged.stdout, unsharded.stdout, "merge output == unsharded sweep output");

    // A killed shard: truncate shard 1's manifest, resume it, re-merge.
    let text = std::fs::read_to_string(&m1).unwrap();
    let kept: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&m1, kept).unwrap();
    let resumed = deuce()
        .arg("sweep")
        .args(base)
        .args(["--shard", "1/2", "--manifest", m1.to_str().unwrap(), "--resume"])
        .output()
        .expect("resume runs");
    assert!(resumed.status.success(), "{resumed:?}");
    let resumed_text = String::from_utf8(resumed.stdout).unwrap();
    assert!(resumed_text.contains("cells_skipped\t2"), "{resumed_text}");
    assert!(resumed_text.contains("cells_run\t6"), "{resumed_text}");
    let merged = deuce()
        .args(["merge", m0.to_str().unwrap(), m1.to_str().unwrap()])
        .output()
        .expect("merge runs");
    assert!(merged.status.success());
    assert_eq!(merged.stdout, unsharded.stdout, "resumed shard still merges identically");
}

#[test]
fn paged_store_kill_and_resume_through_the_binary() {
    let dir = ScratchDir::new("deuce-bin-paged-e2e");
    let trace = dir.join("p.jsonl");
    let pages = dir.join("p.pages");
    let cp = dir.join("p.cp");
    let trace_str = trace.to_str().unwrap();

    // 192 lines into a one-page budget: the run faults and evicts
    // throughout, so the checkpoints carry real flush state.
    let output = deuce()
        .args([
            "gen", "--benchmark", "mcf", "--writes", "600", "--lines", "192", "--format", "jsonl",
            "-o", trace_str,
        ])
        .output()
        .expect("gen runs");
    assert!(output.status.success(), "{output:?}");

    // First process: a streamed paged run emitting checkpoints. Both
    // the page file and the checkpoint file outlive the process.
    let paged_flags = ["--store-file", pages.to_str().unwrap(), "--resident-pages", "1"];
    let first = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce", "--stream"])
        .args(paged_flags)
        .args(["--checkpoint", cp.to_str().unwrap(), "--checkpoint-every", "200"])
        .output()
        .expect("run runs");
    assert!(first.status.success(), "{first:?}");
    let first_text = String::from_utf8(first.stdout).unwrap();
    assert!(first_text.contains("store_page_evictions"), "{first_text}");
    assert!(pages.exists(), "page file outlives the process");
    assert!(cp.exists(), "checkpoint file outlives the process");

    // Second process: replay-verify against the surviving checkpoint
    // over the same page-file path. Verification includes the flushed
    // page fingerprint, so the write-back history must recur exactly.
    let second = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce", "--stream"])
        .args(paged_flags)
        .args(["--from-checkpoint", cp.to_str().unwrap()])
        .output()
        .expect("resume runs");
    assert!(second.status.success(), "{second:?}");
    let second_text = String::from_utf8(second.stdout).unwrap();
    assert!(second_text.contains("resume_verified"), "{second_text}");

    // Apart from the checkpoint/resume trailer lines, the resumed run
    // reports exactly what the original did — including the store rows.
    let body = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.starts_with("checkpoint\t") && !l.starts_with("resume_verified\t"))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    assert_eq!(body(&second_text), body(&first_text));

    // An arena replay of the same checkpoint must be rejected: the
    // checkpoint pins the paged store's flush state.
    let arena = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce", "--stream"])
        .args(["--from-checkpoint", cp.to_str().unwrap()])
        .output()
        .expect("arena resume runs");
    assert!(!arena.status.success(), "arena resume must fail against a paged checkpoint");
    let err = String::from_utf8(arena.stderr).unwrap();
    assert!(err.contains("flush"), "{err}");
}

#[test]
fn telemetry_run_and_report_through_the_binary() {
    let dir = ScratchDir::new("deuce-bin-telemetry-e2e");
    let jsonl = dir.join("run.jsonl");
    let jsonl_str = jsonl.to_str().unwrap();

    let output = deuce()
        .args([
            "run",
            "--benchmark",
            "libq",
            "--writes",
            "500",
            "--lines",
            "32",
            "--scheme",
            "deuce",
            "--telemetry",
            jsonl_str,
            "--sample-every",
            "64",
        ])
        .output()
        .expect("run runs");
    assert!(output.status.success(), "{output:?}");
    assert!(String::from_utf8(output.stdout).unwrap().contains("telemetry\t"));
    assert!(jsonl.exists());
    assert!(dir.join("run.csv").exists());

    let output = deuce().args(["report", jsonl_str]).output().expect("report runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("== run DEUCE"), "{text}");
    assert!(text.contains("flips/write histogram:"));
    assert!(text.contains("time series (one row per 64 writes"));
}

//! Library backing the `deuce` command-line tool.
//!
//! All command logic lives here (unit-testable); `main.rs` is a thin
//! shell. The tool drives the full simulator stack from the terminal:
//!
//! ```text
//! deuce gen --benchmark libq --writes 20000 -o libq.trace
//! deuce stats libq.trace
//! deuce run --trace libq.trace --scheme deuce
//! deuce run --benchmark mcf --scheme dyndeuce --epoch 16
//! deuce compare --benchmark gems
//! deuce run --benchmark libq --scheme deuce --telemetry run.jsonl
//! deuce report run.jsonl
//! deuce run --benchmark libq --scheme deuce --faults --endurance-scale 1e-6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod format;
mod watch;

pub use args::{
    CliError, Command, FaultArgs, GenArgs, MergeArgs, ReportArgs, RunArgs, ServeArgs, StatsArgs,
    TraceFormat, WatchArgs,
};
pub use commands::{aes_backend, compare, gen, merge, report, run, serve, stats, sweep};
pub use watch::watch;
pub use format::{FaultSummary, RunSummary, METRIC_HEADER};

/// A scratch directory for one unit test, unique per test label,
/// process and call (so concurrent `cargo test` runs never share one),
/// and removed on drop even when the test fails.
#[cfg(test)]
pub(crate) struct ScratchDir(std::path::PathBuf);

#[cfg(test)]
impl ScratchDir {
    pub(crate) fn new(test: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "{test}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    pub(crate) fn join(&self, name: impl AsRef<std::path::Path>) -> std::path::PathBuf {
        self.0.join(name)
    }
}

#[cfg(test)]
impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Entry point shared by the binary and tests.
///
/// # Errors
///
/// Returns a [`CliError`] for malformed arguments or failing I/O; the
/// binary prints it and exits non-zero.
pub fn main_with_args<I, W>(argv: I, out: &mut W) -> Result<(), CliError>
where
    I: IntoIterator<Item = String>,
    W: std::io::Write,
{
    match Command::parse(argv)? {
        Command::Gen(args) => gen(&args, out),
        Command::Stats(args) => stats(&args, out),
        Command::Run(args) => run(&args, out),
        Command::Compare(args) => compare(&args, out),
        Command::Sweep(args) => sweep(&args, out),
        Command::Merge(args) => merge(&args, out),
        Command::Report(args) => report(&args, out),
        Command::Watch(args) => watch(&args, out),
        Command::Serve(args) => serve(&args, out),
        Command::AesBackend => aes_backend(out),
        Command::Help => {
            writeln!(out, "{}", args::USAGE)?;
            Ok(())
        }
    }
}

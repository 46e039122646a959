//! File-level round-trip and corrupt-input coverage for trace I/O.
//!
//! The unit tests in `io.rs` exercise the codecs against in-memory
//! buffers; these tests go through real files and the public
//! `open_source` sniffing entry point, and confirm that damaged inputs
//! fail loudly instead of yielding a silently short trace.

use deuce_trace::{
    open_source, read_trace, write_source_jsonl, write_source_to_file, write_trace, Benchmark,
    Trace, TraceConfig, TraceIoError,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;

/// A scratch directory private to one test: tests run in parallel and
/// each removes its directory when done, so they must never share one.
fn dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deuce-io-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn workload() -> TraceConfig {
    TraceConfig::new(Benchmark::Soplex).lines(32).writes(250).cores(2).seed(3)
}

#[test]
fn binary_file_round_trips_by_both_writers() {
    let dir = dir("binary_file_round_trips_by_both_writers");
    let trace = workload().generate();

    // Materialised writer.
    let whole = dir.join("whole.trace");
    write_trace(BufWriter::new(File::create(&whole).unwrap()), &trace).unwrap();
    assert_eq!(read_trace(BufReader::new(File::open(&whole).unwrap())).unwrap(), trace);

    // Streaming writer produces an equivalent trace (same events, same
    // cores) and the sniffing opener reads it back.
    let streamed = dir.join("streamed.trace");
    let events = write_source_to_file(&streamed, &mut workload().stream()).unwrap();
    assert_eq!(events, trace.len() as u64);
    let mut source = open_source(&streamed).unwrap();
    assert_eq!(Trace::from_source(&mut *source).unwrap(), trace);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jsonl_file_round_trips_through_open_source() {
    let dir = dir("jsonl_file_round_trips_through_open_source");
    let trace = workload().generate();
    let path = dir.join("t.jsonl");
    write_source_jsonl(BufWriter::new(File::create(&path).unwrap()), &mut workload().stream())
        .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("{\"trace\":\"deuce\""), "sniffable header line");
    let mut source = open_source(&path).unwrap();
    assert_eq!(Trace::from_source(&mut *source).unwrap(), trace);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_binary_file_errors_instead_of_shortening() {
    let dir = dir("truncated_binary_file_errors_instead_of_shortening");
    let path = dir.join("truncated.trace");
    write_source_to_file(&path, &mut workload().stream()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Cut inside an event record (not on a record boundary).
    std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();
    let mut source = open_source(&path).unwrap();
    let err = Trace::from_source(&mut *source).unwrap_err();
    assert!(matches!(err, TraceIoError::Io(_)), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_jsonl_file_errors_instead_of_shortening() {
    let dir = dir("truncated_jsonl_file_errors_instead_of_shortening");
    let path = dir.join("truncated.jsonl");
    write_source_jsonl(BufWriter::new(File::create(&path).unwrap()), &mut workload().stream())
        .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 20]).unwrap();
    let mut source = open_source(&path).unwrap();
    let err = Trace::from_source(&mut *source).unwrap_err();
    assert!(matches!(err, TraceIoError::BadRecord(_)), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_headers_are_rejected() {
    let dir = dir("bad_headers_are_rejected");

    let not_a_trace = dir.join("bogus.trace");
    std::fs::write(&not_a_trace, b"MAGICMAG\x01\x00\x00\x00").unwrap();
    assert!(open_source(&not_a_trace).is_err());

    let bad_jsonl = dir.join("bogus.jsonl");
    std::fs::write(&bad_jsonl, "{\"trace\":\"other\",\"version\":1,\"cores\":1}\n").unwrap();
    assert!(open_source(&bad_jsonl).is_err());

    let empty = dir.join("empty.trace");
    std::fs::write(&empty, b"").unwrap();
    assert!(open_source(&empty).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn event_count_mismatch_is_detected() {
    let dir = dir("event_count_mismatch_is_detected");
    let path = dir.join("overcount.trace");
    write_source_to_file(&path, &mut workload().stream()).unwrap();
    // Inflate the header's event count: the stream now ends early.
    let mut bytes = std::fs::read(&path).unwrap();
    let count = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    bytes[12..20].copy_from_slice(&(count + 5).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let mut source = open_source(&path).unwrap();
    assert!(Trace::from_source(&mut *source).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

//! Sweep manifests: deterministic cell enumeration with per-cell
//! completion tracking, so one grid splits across processes (or
//! machines sharing a filesystem) and merges deterministically.
//!
//! A manifest is a JSONL file. Line 1 is a [`ManifestHeader`]
//! describing the grid — cell count, a human-readable grid string, a
//! fingerprint of the generating arguments, and the output column
//! header. Every subsequent line is one completed [`CellRecord`],
//! appended (and flushed) the moment its simulation finishes, so a
//! killed shard loses at most the cell it was working on.
//!
//! Crash safety is torn-line based: a record line is only trusted if it
//! parses completely. [`ManifestWriter::resume`] truncates a torn tail
//! before appending, and the merge step verifies full 0..cells
//! coverage, so partial lines can never masquerade as results.
//!
//! Sharding is deterministic: [`ShardSpec`] `i/n` owns cells
//! `{c : c mod n = i}`, and merged output is ordered by cell index —
//! byte-identical to an unsharded run of the same grid.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

use deuce_telemetry::export::json_escape;
use deuce_telemetry::parse::parse_jsonl;

/// `i/n` process sharding: which slice of the grid this process owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard index, `0 <= index < count`.
    pub index: u64,
    /// Total shard count.
    pub count: u64,
}

impl ShardSpec {
    /// The unsharded spec: one process owns every cell.
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Parses `"i/n"` (e.g. `"0/2"`).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on malformed input,
    /// `n == 0`, or `i >= n`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("shard spec {text:?} is not of the form i/n"))?;
        let index: u64 = i.trim().parse().map_err(|_| format!("bad shard index {i:?}"))?;
        let count: u64 = n.trim().parse().map_err(|_| format!("bad shard count {n:?}"))?;
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(Self { index, count })
    }

    /// Whether this shard owns grid cell `cell`.
    #[must_use]
    pub fn owns(&self, cell: u64) -> bool {
        cell % self.count == self.index
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// FNV-1a over a canonical argument string — the manifest's cheap
/// grid-identity check, so `--resume` and `merge` refuse to mix cells
/// generated under different sweep parameters.
#[must_use]
pub fn grid_fingerprint(canonical_args: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical_args.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Line 1 of a manifest: what grid the cells belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestHeader {
    /// Human-readable grid description (benchmark, writes, seed…).
    pub grid: String,
    /// Total cells in the grid (records must cover `0..cells`).
    pub cells: u64,
    /// [`grid_fingerprint`] of the canonical generating arguments.
    pub fingerprint: u64,
    /// The tab-separated column header of the merged output rows.
    pub columns: String,
}

impl ManifestHeader {
    fn to_jsonl(&self) -> String {
        format!(
            "{{\"manifest\":\"deuce-sweep\",\"version\":1,\"grid\":\"{}\",\"cells\":{},\
             \"fingerprint\":\"{:016x}\",\"columns\":\"{}\"}}\n",
            json_escape(&self.grid),
            self.cells,
            self.fingerprint,
            json_escape(&self.columns),
        )
    }
}

/// One completed grid cell: its index, label, simulated write count,
/// and the finished tab-separated output row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Grid cell index, `0 <= cell < header.cells`.
    pub cell: u64,
    /// Human-readable cell label.
    pub label: String,
    /// Counted simulated writes the cell executed (throughput
    /// accounting).
    pub writes: u64,
    /// The cell's finished output row (tab-separated, no newline).
    pub row: String,
}

impl CellRecord {
    fn to_jsonl(&self) -> String {
        format!(
            "{{\"cell\":{},\"label\":\"{}\",\"writes\":{},\"row\":\"{}\"}}\n",
            self.cell,
            json_escape(&self.label),
            self.writes,
            json_escape(&self.row),
        )
    }
}

/// Errors from manifest reading, resuming, or merging.
#[derive(Debug)]
pub enum ManifestError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file's header line is missing or malformed.
    BadHeader(String),
    /// A resume or merge found a header that does not match the grid
    /// being run.
    HeaderMismatch {
        /// What the current invocation expected.
        expected: String,
        /// What the file contains.
        found: String,
    },
    /// Two manifests disagree about the same cell's result.
    Conflict {
        /// The contested cell index.
        cell: u64,
    },
    /// The merged manifests do not cover the whole grid.
    MissingCells(Vec<u64>),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest i/o failed: {e}"),
            ManifestError::BadHeader(why) => write!(f, "bad manifest header: {why}"),
            ManifestError::HeaderMismatch { expected, found } => write!(
                f,
                "manifest belongs to a different grid (expected {expected}, found {found})"
            ),
            ManifestError::Conflict { cell } => {
                write!(f, "conflicting results for cell {cell} across manifests")
            }
            ManifestError::MissingCells(cells) => {
                write!(f, "grid incomplete: missing cells {cells:?}")
            }
        }
    }
}

impl std::error::Error for ManifestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManifestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        ManifestError::Io(e)
    }
}

fn parse_header(line: &str) -> Result<ManifestHeader, ManifestError> {
    let events = parse_jsonl(line)
        .map_err(|e| ManifestError::BadHeader(e.to_string()))?;
    let event = events
        .first()
        .ok_or_else(|| ManifestError::BadHeader("empty file".into()))?;
    if event.str("manifest") != Some("deuce-sweep") {
        return Err(ManifestError::BadHeader("not a deuce-sweep manifest".into()));
    }
    if event.u64("version") != Some(1) {
        return Err(ManifestError::BadHeader("unsupported manifest version".into()));
    }
    let fingerprint = event
        .str("fingerprint")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| ManifestError::BadHeader("missing fingerprint".into()))?;
    Ok(ManifestHeader {
        grid: event
            .str("grid")
            .ok_or_else(|| ManifestError::BadHeader("missing grid".into()))?
            .to_string(),
        cells: event
            .u64("cells")
            .ok_or_else(|| ManifestError::BadHeader("missing cells".into()))?,
        fingerprint,
        columns: event
            .str("columns")
            .ok_or_else(|| ManifestError::BadHeader("missing columns".into()))?
            .to_string(),
    })
}

/// Parses one record line; `None` for torn/unparseable lines (tolerated
/// — coverage is enforced at merge time, so a torn tail can only ever
/// *lose* a cell, never corrupt one).
fn parse_record(line: &str) -> Option<CellRecord> {
    let events = parse_jsonl(line).ok()?;
    let event = events.first()?;
    Some(CellRecord {
        cell: event.u64("cell")?,
        label: event.str("label")?.to_string(),
        writes: event.u64("writes")?,
        row: event.str("row")?.to_string(),
    })
}

/// Reads a manifest leniently: the header must parse; record lines that
/// do not parse (torn tails from a killed shard) are skipped.
///
/// # Errors
///
/// Returns [`ManifestError`] on I/O failure or a bad header.
pub fn read_manifest<P: AsRef<Path>>(
    path: P,
) -> Result<(ManifestHeader, Vec<CellRecord>), ManifestError> {
    let mut text = String::new();
    File::open(path.as_ref())?.read_to_string(&mut text)?;
    let mut lines = text.lines();
    let header = parse_header(lines.next().unwrap_or(""))?;
    let records = lines.filter_map(parse_record).collect();
    Ok((header, records))
}

/// An append-only, flush-per-record manifest file shared across sweep
/// workers.
#[derive(Debug)]
pub struct ManifestWriter {
    file: Mutex<File>,
}

impl ManifestWriter {
    /// Creates (truncating) a manifest with the given header.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn create<P: AsRef<Path>>(path: P, header: &ManifestHeader) -> Result<Self, ManifestError> {
        let mut file = File::create(path.as_ref())?;
        file.write_all(header.to_jsonl().as_bytes())?;
        file.flush()?;
        Ok(Self { file: Mutex::new(file) })
    }

    /// Opens an existing manifest for resumption: validates the header
    /// against `expected`, truncates any torn trailing line, and
    /// returns the writer plus the set of cells already completed. If
    /// the file does not exist it is created fresh (an empty completed
    /// set) — `--resume` on a first run is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError::HeaderMismatch`] when the file belongs
    /// to a different grid, and I/O or header errors otherwise.
    pub fn resume<P: AsRef<Path>>(
        path: P,
        expected: &ManifestHeader,
    ) -> Result<(Self, BTreeSet<u64>), ManifestError> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok((Self::create(path, expected)?, BTreeSet::new()));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let header_line = text.lines().next().unwrap_or("");
        let header = parse_header(header_line)?;
        if header != *expected {
            return Err(ManifestError::HeaderMismatch {
                expected: format!("{expected:?}"),
                found: format!("{header:?}"),
            });
        }
        // Keep only whole, parseable lines; truncate the rest (a torn
        // tail from a killed shard).
        let mut keep = header_line.len() + 1;
        let mut completed = BTreeSet::new();
        for line in text[keep.min(text.len())..].split_inclusive('\n') {
            let whole = line.ends_with('\n');
            match (whole, parse_record(line.trim_end())) {
                (true, Some(record)) => {
                    completed.insert(record.cell);
                    keep += line.len();
                }
                _ => break,
            }
        }
        file.set_len(keep.min(text.len()) as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok((Self { file: Mutex::new(file) }, completed))
    }

    /// Appends one completed cell and flushes, so the record survives
    /// the process being killed right after.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if another worker panicked while appending.
    pub fn append(&self, record: &CellRecord) -> io::Result<()> {
        let mut file = self.file.lock().expect("manifest writer poisoned");
        file.write_all(record.to_jsonl().as_bytes())?;
        file.flush()
    }
}

/// Merges shard manifests into the complete grid, ordered by cell
/// index. Headers must agree, every cell of `0..cells` must appear
/// exactly once (identical duplicates are tolerated, conflicting ones
/// are an error), so the merged rows are byte-identical to an unsharded
/// run.
///
/// # Errors
///
/// Returns [`ManifestError`] on header mismatch, conflicting
/// duplicates, or missing cells.
pub fn merge_manifests(
    manifests: &[(ManifestHeader, Vec<CellRecord>)],
) -> Result<(ManifestHeader, Vec<CellRecord>), ManifestError> {
    let (first_header, _) = manifests
        .first()
        .ok_or_else(|| ManifestError::BadHeader("no manifests to merge".into()))?;
    let mut cells: BTreeMap<u64, CellRecord> = BTreeMap::new();
    for (header, records) in manifests {
        if header != first_header {
            return Err(ManifestError::HeaderMismatch {
                expected: format!("{first_header:?}"),
                found: format!("{header:?}"),
            });
        }
        for record in records {
            match cells.get(&record.cell) {
                None => {
                    cells.insert(record.cell, record.clone());
                }
                Some(existing) if existing == record => {}
                Some(_) => return Err(ManifestError::Conflict { cell: record.cell }),
            }
        }
    }
    let missing: Vec<u64> =
        (0..first_header.cells).filter(|c| !cells.contains_key(c)).collect();
    if !missing.is_empty() {
        return Err(ManifestError::MissingCells(missing));
    }
    Ok((first_header.clone(), cells.into_values().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory private to one test, so parallel tests never
    /// share (or remove) each other's files.
    fn scratch(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("deuce-manifest-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> ManifestHeader {
        ManifestHeader {
            grid: "mcf w600 s9".into(),
            cells: 4,
            fingerprint: grid_fingerprint("mcf\t600\t9"),
            columns: "word\tepoch\tflip_rate".into(),
        }
    }

    fn record(cell: u64) -> CellRecord {
        CellRecord {
            cell,
            label: format!("cell{cell}"),
            writes: 100 + cell,
            row: format!("8\t{cell}\t0.25"),
        }
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!(s, ShardSpec { index: 1, count: 3 });
        assert_eq!(s.to_string(), "1/3");
        let owned: Vec<u64> = (0..9).filter(|&c| s.owns(c)).collect();
        assert_eq!(owned, vec![1, 4, 7]);
        // Every cell owned by exactly one shard.
        for cell in 0..20u64 {
            let owners = (0..3)
                .filter(|&i| ShardSpec { index: i, count: 3 }.owns(cell))
                .count();
            assert_eq!(owners, 1);
        }
        assert!(ShardSpec::parse("3/3").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("nope").is_err());
        assert!(ShardSpec::WHOLE.owns(17));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(grid_fingerprint("abc"), grid_fingerprint("abc"));
        assert_ne!(grid_fingerprint("abc"), grid_fingerprint("abd"));
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = scratch("write_read_roundtrip");
        let path = dir.join("roundtrip.jsonl");
        let writer = ManifestWriter::create(&path, &header()).unwrap();
        for cell in [2u64, 0, 3, 1] {
            writer.append(&record(cell)).unwrap();
        }
        let (h, records) = read_manifest(&path).unwrap();
        assert_eq!(h, header());
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], record(2), "file order is completion order");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_reports_completed_cells_and_truncates_torn_tail() {
        let dir = scratch("resume_reports_completed_cells_and_truncates_torn_tail");
        let path = dir.join("resume.jsonl");
        {
            let writer = ManifestWriter::create(&path, &header()).unwrap();
            writer.append(&record(0)).unwrap();
            writer.append(&record(2)).unwrap();
        }
        // Simulate a shard killed mid-append: a torn half-record tail.
        let mut torn = std::fs::read_to_string(&path).unwrap();
        torn.push_str("{\"cell\":3,\"label\":\"ce");
        std::fs::write(&path, &torn).unwrap();

        let (writer, completed) = ManifestWriter::resume(&path, &header()).unwrap();
        assert_eq!(completed.into_iter().collect::<Vec<_>>(), vec![0, 2]);
        writer.append(&record(3)).unwrap();
        writer.append(&record(1)).unwrap();
        let (_, records) = read_manifest(&path).unwrap();
        let mut cells: Vec<u64> = records.iter().map(|r| r.cell).collect();
        cells.sort_unstable();
        assert_eq!(cells, vec![0, 1, 2, 3], "torn tail replaced by the real record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_a_different_grid() {
        let dir = scratch("resume_rejects_a_different_grid");
        let path = dir.join("mismatch.jsonl");
        let _ = ManifestWriter::create(&path, &header()).unwrap();
        let mut other = header();
        other.fingerprint ^= 1;
        assert!(matches!(
            ManifestWriter::resume(&path, &other),
            Err(ManifestError::HeaderMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_orders_dedupes_and_validates() {
        let shard0 = (header(), vec![record(0), record(2)]);
        let shard1 = (header(), vec![record(1), record(3)]);
        let (h, merged) = merge_manifests(&[shard0.clone(), shard1.clone()]).unwrap();
        assert_eq!(h, header());
        let cells: Vec<u64> = merged.iter().map(|r| r.cell).collect();
        assert_eq!(cells, vec![0, 1, 2, 3], "merged output is cell-ordered");

        // Identical duplicates are fine.
        let dup = (header(), vec![record(1)]);
        assert!(merge_manifests(&[shard0.clone(), shard1.clone(), dup]).is_ok());

        // Conflicting duplicates are not.
        let mut conflicting = record(1);
        conflicting.row = "different".into();
        let bad = (header(), vec![conflicting]);
        assert!(matches!(
            merge_manifests(&[shard0.clone(), shard1, bad]),
            Err(ManifestError::Conflict { cell: 1 })
        ));

        // Missing coverage is detected.
        assert!(matches!(
            merge_manifests(&[shard0]),
            Err(ManifestError::MissingCells(missing)) if missing == vec![1, 3]
        ));
    }
}

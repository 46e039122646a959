//! The out-of-core backend: a page file plus an LRU cache of resident
//! pages.
//!
//! # Page layout
//!
//! The file opens with a 32-byte [`PageHeader`] describing the slot
//! layout, followed by fixed-size page records at
//! `HEADER + index * page_disk_bytes`:
//!
//! ```text
//! [present: u64 LE][stored: 64 x 64B][shadow: 64 x 64B]?[state: 64 x ENCODED_BYTES]
//! ```
//!
//! The shadow segment exists only for schemes that keep one. Slots of a
//! page that were never materialised encode as zero bytes and decode to
//! placeholder states guarded by the presence bitmap.
//!
//! # Pin/unpin discipline
//!
//! Slot access goes through [`PageBackend::with_slot`] /
//! [`PageBackend::with_slot_mut`]: the slot's page is pinned (faulted
//! in if absent, its LRU tick refreshed) for exactly the closure's
//! duration, so at most one page is pinned at a time and eviction can
//! never invalidate a borrow. Faulting a page beyond the resident
//! budget first evicts the least-recently-used page, writing it back
//! iff dirty.
//!
//! # Determinism
//!
//! Given the same call sequence and resident budget, faults, evictions
//! and write-backs happen at identical points: ticks are a simple
//! counter, the LRU order is exact, and the end-of-run
//! [`flush`](PageBackend::flush) walks pages in index order. The
//! running FNV-1a fingerprint over flushed page bytes (in flush order)
//! is therefore reproducible under replay, which is what lets run
//! checkpoints incorporate flush progress.
//!
//! # I/O failures
//!
//! The scheme hot loop is infallible, so the backend latches the first
//! I/O error and keeps simulating on fresh pages; drivers surface the
//! latched error at end of run. A page is only ever *read* from disk if
//! this backend instance flushed it earlier, so stale content from a
//! previous process can never leak into results — resuming against an
//! existing page file is a pure replay that rebuilds the file.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use deuce_crypto::{LineBytes, LINE_BYTES};

use crate::scheme::{LineMut, LineRef, LineScheme};
use crate::store::backend::{
    get_u64, put_u64, PageBackend, StateCodec, StorePageStats, SLOTS_PER_PAGE,
};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The page file's leading descriptor. Fixed 32-byte encoding, pinned
/// by `tests/state_sizes.rs`; a layout change must bump `VERSION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// File magic, [`PageHeader::MAGIC`].
    pub magic: u32,
    /// Layout version, [`PageHeader::VERSION`].
    pub version: u16,
    /// Slots per page ([`SLOTS_PER_PAGE`]).
    pub slots_per_page: u16,
    /// Stored-image bytes per slot ([`LINE_BYTES`]).
    pub line_bytes: u32,
    /// Encoded state bytes per slot.
    pub state_bytes: u32,
    /// 1 if pages carry a shadow segment, 0 otherwise.
    pub shadow: u32,
}

impl PageHeader {
    /// `"DEUC"` little-endian.
    pub const MAGIC: u32 = u32::from_le_bytes(*b"DEUC");
    /// Current on-disk layout version.
    pub const VERSION: u16 = 1;
    /// Encoded header size in bytes (trailing bytes reserved as zero).
    pub const BYTES: usize = 32;

    /// Encodes the header into its fixed 32-byte form.
    #[must_use]
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[0..4].copy_from_slice(&self.magic.to_le_bytes());
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6..8].copy_from_slice(&self.slots_per_page.to_le_bytes());
        out[8..12].copy_from_slice(&self.line_bytes.to_le_bytes());
        out[12..16].copy_from_slice(&self.state_bytes.to_le_bytes());
        out[16..20].copy_from_slice(&self.shadow.to_le_bytes());
        out
    }

    /// Decodes a header from its fixed 32-byte form.
    #[must_use]
    pub fn decode(bytes: &[u8; Self::BYTES]) -> Self {
        let word = |r: core::ops::Range<usize>| {
            let mut w = [0u8; 4];
            w.copy_from_slice(&bytes[r]);
            u32::from_le_bytes(w)
        };
        let half = |r: core::ops::Range<usize>| {
            let mut h = [0u8; 2];
            h.copy_from_slice(&bytes[r]);
            u16::from_le_bytes(h)
        };
        Self {
            magic: word(0..4),
            version: half(4..6),
            slots_per_page: half(6..8),
            line_bytes: word(8..12),
            state_bytes: word(12..16),
            shadow: word(16..20),
        }
    }
}

/// Slot-layout constants shared by the cache and the disk format.
#[derive(Debug, Clone, Copy)]
struct PageLayout {
    needs_shadow: bool,
    /// Encoded state bytes per slot.
    state_bytes: usize,
    /// In-RAM state bytes per slot (`size_of::<S::State>()`).
    state_ram_bytes: usize,
}

impl PageLayout {
    /// On-disk bytes of one page record.
    fn page_disk_bytes(&self) -> usize {
        let shadow = if self.needs_shadow { LINE_BYTES } else { 0 };
        8 + SLOTS_PER_PAGE * (LINE_BYTES + shadow + self.state_bytes)
    }

    /// RAM bytes one materialised slot occupies.
    fn per_line_ram_bytes(&self) -> u64 {
        let shadow = if self.needs_shadow { LINE_BYTES } else { 0 };
        (LINE_BYTES + shadow + self.state_ram_bytes) as u64
    }

    /// Byte offset of page `index` in the file.
    fn page_offset(&self, index: u32) -> u64 {
        PageHeader::BYTES as u64 + u64::from(index) * self.page_disk_bytes() as u64
    }
}

/// One resident page: the SoA segments of [`SLOTS_PER_PAGE`] slots plus
/// the presence bitmap.
#[derive(Debug)]
struct ResidentPage<S: LineScheme> {
    /// Bit `i` set iff slot `i` of this page has been materialised.
    present: u64,
    stored: Vec<LineBytes>,
    /// Empty when the scheme keeps no shadow.
    shadow: Vec<LineBytes>,
    state: Vec<S::State>,
    dirty: bool,
    /// LRU tick of the most recent pin.
    tick: u64,
}

#[derive(Debug)]
struct PagedInner<S: LineScheme> {
    file: File,
    layout: PageLayout,
    /// Resident pages by page index.
    resident: HashMap<u32, ResidentPage<S>>,
    /// Exact LRU order: tick -> page index (ticks are unique).
    lru: BTreeMap<u64, u32>,
    tick: u64,
    /// Resident-page capacity (>= 1).
    capacity: usize,
    /// Total slots pushed (dense; the next slot id).
    len: usize,
    /// Materialised slots currently resident.
    resident_slots: u64,
    peak_resident_slots: u64,
    /// Pages THIS instance wrote to disk — the only pages ever read
    /// back (stale content from older processes is never trusted).
    flushed: HashSet<u32>,
    flushed_pages: u64,
    /// Running FNV-1a over flushed page bytes, in flush order.
    flush_fp: u64,
    page_faults: u64,
    page_evictions: u64,
    /// Reusable encode/decode buffer, one page record long.
    buf: Vec<u8>,
    error: Option<String>,
}

/// Page index and intra-page offset of a dense slot id.
fn locate(slot: u32) -> (u32, usize) {
    (
        slot / SLOTS_PER_PAGE as u32,
        (slot as usize) % SLOTS_PER_PAGE,
    )
}

impl<S: LineScheme> PagedInner<S>
where
    S::State: StateCodec,
{
    fn fresh_page(layout: &PageLayout) -> ResidentPage<S> {
        let zeros = vec![0u8; S::State::ENCODED_BYTES.max(1)];
        ResidentPage {
            present: 0,
            stored: vec![[0u8; LINE_BYTES]; SLOTS_PER_PAGE],
            shadow: if layout.needs_shadow {
                vec![[0u8; LINE_BYTES]; SLOTS_PER_PAGE]
            } else {
                Vec::new()
            },
            state: (0..SLOTS_PER_PAGE)
                .map(|_| S::State::decode(&zeros[..S::State::ENCODED_BYTES]))
                .collect(),
            dirty: false,
            tick: 0,
        }
    }

    fn note_error(&mut self, context: &str, err: &std::io::Error) {
        if self.error.is_none() {
            self.error = Some(format!("{context}: {err}"));
        }
    }

    /// Ensures `page` is resident and refreshes its LRU tick.
    fn pin(&mut self, page: u32) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(r) = self.resident.get_mut(&page) {
            self.lru.remove(&r.tick);
            r.tick = tick;
            self.lru.insert(tick, page);
            return;
        }
        self.page_faults += 1;
        while self.resident.len() >= self.capacity {
            self.evict_lru();
        }
        let mut r = if self.flushed.contains(&page) {
            self.load(page)
        } else {
            Self::fresh_page(&self.layout)
        };
        r.tick = tick;
        self.resident_slots += u64::from(r.present.count_ones());
        self.peak_resident_slots = self.peak_resident_slots.max(self.resident_slots);
        self.lru.insert(tick, page);
        self.resident.insert(page, r);
    }

    fn evict_lru(&mut self) {
        let Some((_, page)) = self.lru.pop_first() else {
            return;
        };
        let r = self.resident.remove(&page).expect("LRU entries are resident");
        self.resident_slots -= u64::from(r.present.count_ones());
        self.page_evictions += 1;
        if r.dirty {
            self.write_back(page, &r);
        }
    }

    /// Encodes `r` into the scratch buffer.
    fn encode_page(&mut self, r: &ResidentPage<S>) {
        let disk = self.layout.page_disk_bytes();
        self.buf.resize(disk, 0);
        self.buf.fill(0);
        put_u64(&mut self.buf, 0, r.present);
        let mut at = 8;
        for stored in &r.stored {
            self.buf[at..at + LINE_BYTES].copy_from_slice(stored);
            at += LINE_BYTES;
        }
        if self.layout.needs_shadow {
            for shadow in &r.shadow {
                self.buf[at..at + LINE_BYTES].copy_from_slice(shadow);
                at += LINE_BYTES;
            }
        }
        let sb = S::State::ENCODED_BYTES;
        for (i, state) in r.state.iter().enumerate() {
            if r.present & (1u64 << i) != 0 {
                state.encode(&mut self.buf[at..at + sb]);
            }
            at += sb;
        }
    }

    fn write_back(&mut self, page: u32, r: &ResidentPage<S>) {
        self.encode_page(r);
        let mut fp = self.flush_fp;
        for &b in &self.buf {
            fp = (fp ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        let offset = self.layout.page_offset(page);
        if let Err(err) = self.file.write_all_at(&self.buf, offset) {
            self.note_error("page write-back failed", &err);
            return;
        }
        self.flush_fp = fp;
        self.flushed.insert(page);
        self.flushed_pages += 1;
    }

    fn load(&mut self, page: u32) -> ResidentPage<S> {
        let disk = self.layout.page_disk_bytes();
        self.buf.resize(disk, 0);
        let offset = self.layout.page_offset(page);
        if let Err(err) = self.file.read_exact_at(&mut self.buf, offset) {
            self.note_error("page load failed", &err);
            return Self::fresh_page(&self.layout);
        }
        let present = get_u64(&self.buf, 0);
        let mut r = Self::fresh_page(&self.layout);
        r.present = present;
        let mut at = 8;
        for stored in &mut r.stored {
            stored.copy_from_slice(&self.buf[at..at + LINE_BYTES]);
            at += LINE_BYTES;
        }
        if self.layout.needs_shadow {
            for shadow in &mut r.shadow {
                shadow.copy_from_slice(&self.buf[at..at + LINE_BYTES]);
                at += LINE_BYTES;
            }
        }
        let sb = S::State::ENCODED_BYTES;
        for state in &mut r.state {
            *state = S::State::decode(&self.buf[at..at + sb]);
            at += sb;
        }
        r
    }

    /// Writes every dirty resident page back, in page-index order.
    fn flush_dirty(&mut self) {
        let mut dirty: Vec<u32> = self
            .resident
            .iter()
            .filter(|(_, r)| r.dirty)
            .map(|(&page, _)| page)
            .collect();
        dirty.sort_unstable();
        for page in dirty {
            let mut r = self.resident.remove(&page).expect("collected above");
            self.write_back(page, &r);
            r.dirty = false;
            self.resident.insert(page, r);
        }
    }
}

/// An out-of-core [`PageBackend`]: a configurable-capacity LRU cache of
/// resident pages over a page file, with write-back eviction of dirty
/// pages. Observably bit-identical to [`crate::ArenaBackend`] for the
/// same call sequence — only residency accounting and paging statistics
/// differ.
#[derive(Debug)]
pub struct FilePageBackend<S: LineScheme> {
    /// Scratch shadow for shadowless schemes (outside the cell so the
    /// mutable pin can lend it alongside page segments).
    scratch: LineBytes,
    /// Interior mutability so the shared-access path (`read`/`image`,
    /// which take `&self`) can still fault pages in.
    inner: RefCell<PagedInner<S>>,
}

impl<S: LineScheme> FilePageBackend<S>
where
    S::State: StateCodec,
{
    /// Creates (truncating) the page file at `path` with room for
    /// `resident_pages` resident pages (clamped to at least 1).
    /// `needs_shadow` is the scheme's shadow flag
    /// ([`LineScheme::needs_shadow`]) and fixes the page layout.
    ///
    /// An existing file is truncated: correctness never depends on
    /// prior content because only pages flushed by this instance are
    /// ever read back. Resuming a run against an existing page file
    /// therefore replays from the start and rebuilds it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created
    /// or the header cannot be written.
    pub fn create(
        path: &Path,
        resident_pages: usize,
        needs_shadow: bool,
    ) -> std::io::Result<Self> {
        let layout = PageLayout {
            needs_shadow,
            state_bytes: S::State::ENCODED_BYTES,
            state_ram_bytes: core::mem::size_of::<S::State>(),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let header = PageHeader {
            magic: PageHeader::MAGIC,
            version: PageHeader::VERSION,
            slots_per_page: SLOTS_PER_PAGE as u16,
            line_bytes: LINE_BYTES as u32,
            state_bytes: layout.state_bytes as u32,
            shadow: u32::from(needs_shadow),
        };
        file.write_all(&header.encode())?;
        Ok(Self {
            scratch: [0u8; LINE_BYTES],
            inner: RefCell::new(PagedInner {
                file,
                layout,
                resident: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                capacity: resident_pages.max(1),
                len: 0,
                resident_slots: 0,
                peak_resident_slots: 0,
                flushed: HashSet::new(),
                flushed_pages: 0,
                flush_fp: FNV_OFFSET,
                page_faults: 0,
                page_evictions: 0,
                buf: Vec::new(),
                error: None,
            }),
        })
    }
}

impl<S: LineScheme> PageBackend<S> for FilePageBackend<S>
where
    S::State: StateCodec,
{
    fn push(&mut self, stored: &LineBytes, shadow: Option<&LineBytes>, state: S::State) -> u32 {
        let inner = self.inner.get_mut();
        let slot = u32::try_from(inner.len).expect("more than u32::MAX lines");
        let (page, off) = locate(slot);
        inner.pin(page);
        let r = inner.resident.get_mut(&page).expect("just pinned");
        r.stored[off] = *stored;
        if let Some(shadow) = shadow {
            r.shadow[off] = *shadow;
        }
        r.state[off] = state;
        r.present |= 1u64 << off;
        r.dirty = true;
        inner.len += 1;
        inner.resident_slots += 1;
        inner.peak_resident_slots = inner.peak_resident_slots.max(inner.resident_slots);
        slot
    }

    fn len(&self) -> usize {
        self.inner.borrow().len
    }

    fn with_slot_mut<T>(&mut self, slot: u32, f: impl FnOnce(LineMut<'_, S::State>) -> T) -> T {
        let Self { scratch, inner } = self;
        let inner = inner.get_mut();
        let (page, off) = locate(slot);
        inner.pin(page);
        let needs_shadow = inner.layout.needs_shadow;
        let r = inner.resident.get_mut(&page).expect("just pinned");
        r.dirty = true;
        let shadow = if needs_shadow {
            &mut r.shadow[off]
        } else {
            scratch
        };
        f(LineMut {
            stored: &mut r.stored[off],
            shadow,
            state: &mut r.state[off],
        })
    }

    fn with_slot<T>(&self, slot: u32, f: impl FnOnce(LineRef<'_, S::State>) -> T) -> T {
        let mut inner = self.inner.borrow_mut();
        let (page, off) = locate(slot);
        inner.pin(page);
        let r = &inner.resident[&page];
        f(LineRef {
            stored: &r.stored[off],
            state: &r.state[off],
        })
    }

    fn per_line_bytes(&self) -> u64 {
        self.inner.borrow().layout.per_line_ram_bytes()
    }

    fn resident_bytes(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.resident_slots * inner.layout.per_line_ram_bytes()
    }

    fn paging_stats(&self) -> Option<StorePageStats> {
        let inner = self.inner.borrow();
        let per_line = inner.layout.per_line_ram_bytes();
        Some(StorePageStats {
            page_faults: inner.page_faults,
            page_evictions: inner.page_evictions,
            pages_flushed: inner.flushed_pages,
            resident_bytes: inner.resident_slots * per_line,
            peak_resident_bytes: inner.peak_resident_slots * per_line,
        })
    }

    fn flush(&mut self) {
        self.inner.get_mut().flush_dirty();
    }

    fn flush_state(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.flushed_pages, inner.flush_fp)
    }

    fn io_error(&self) -> Option<String> {
        self.inner.borrow().error.clone()
    }
}

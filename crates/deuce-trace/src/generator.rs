//! The trace generator: turns a [`BenchmarkProfile`] into a concrete
//! request stream.

use std::collections::VecDeque;

use deuce_rng::{DeuceRng, Rng};

use deuce_crypto::{LineAddr, LineBytes, LINE_BYTES};

use crate::io::TraceIoError;
use crate::profiles::{Benchmark, BenchmarkProfile};
use crate::source::WriteSource;
use crate::trace::{Trace, TraceEvent};
use crate::value_model::WordRole;

/// 16-bit words per line (the value model's update granularity).
const WORDS: usize = LINE_BYTES / 2;

/// Builder-style configuration for trace generation.
///
/// # Examples
///
/// ```
/// use deuce_trace::{Benchmark, TraceConfig};
///
/// let trace = TraceConfig::new(Benchmark::Mcf)
///     .lines(128)
///     .writes(5_000)
///     .cores(8)
///     .seed(1)
///     .generate();
/// assert_eq!(trace.write_count(), 5_000);
/// assert!(trace.read_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    benchmark: Benchmark,
    lines: usize,
    writes: usize,
    cores: u8,
    seed: u64,
    include_reads: bool,
}

impl TraceConfig {
    /// Creates a config with defaults: 256 lines/core working set,
    /// 10 000 writes, 1 core, reads included, seed 0.
    #[must_use]
    pub fn new(benchmark: Benchmark) -> Self {
        Self {
            benchmark,
            lines: 256,
            writes: 10_000,
            cores: 1,
            seed: 0,
            include_reads: true,
        }
    }

    /// Working-set size in lines per core.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`.
    #[must_use]
    pub fn lines(mut self, lines: usize) -> Self {
        assert!(lines > 0, "working set must be non-empty");
        self.lines = lines;
        self
    }

    /// Total writeback count across all cores.
    #[must_use]
    pub fn writes(mut self, writes: usize) -> Self {
        self.writes = writes;
        self
    }

    /// Number of cores in rate mode (each runs its own copy).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn cores(mut self, cores: u8) -> Self {
        assert!(cores > 0, "need at least one core");
        self.cores = cores;
        self
    }

    /// RNG seed (traces are deterministic given the seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables read-event generation (flip-rate studies only need
    /// writes).
    #[must_use]
    pub fn without_reads(mut self) -> Self {
        self.include_reads = false;
        self
    }

    /// The benchmark being generated.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Generates the trace by materialising the whole stream
    /// ([`TraceConfig::stream`] yields the identical event sequence
    /// without holding it in RAM).
    #[must_use]
    pub fn generate(&self) -> Trace {
        let mut source = self.stream();
        Trace::from_source(&mut source).expect("generator sources are infallible")
    }

    /// Creates a streaming generator over this config: the same event
    /// sequence as [`TraceConfig::generate`], produced on demand in
    /// O(working set) memory instead of O(trace length).
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_trace::{Benchmark, Trace, TraceConfig};
    ///
    /// let config = TraceConfig::new(Benchmark::Mcf).writes(1_000).seed(2);
    /// let streamed = Trace::from_source(&mut config.stream()).unwrap();
    /// assert_eq!(streamed, config.generate());
    /// ```
    #[must_use]
    pub fn stream(&self) -> GeneratorSource {
        let profile = self.benchmark.profile();
        let cores: Vec<CoreGenerator> = (0..self.cores)
            .map(|core| {
                CoreGenerator::new(
                    core,
                    &profile,
                    self.lines,
                    self.seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(u64::from(core)),
                    self.include_reads,
                )
            })
            .collect();
        GeneratorSource {
            profile,
            cores,
            pending: VecDeque::new(),
            writes_emitted: 0,
            writes_total: self.writes,
        }
    }
}

/// A seeded benchmark generator as a [`WriteSource`]: yields the exact
/// event sequence of [`TraceConfig::generate`] without materialising
/// it. Created by [`TraceConfig::stream`].
#[derive(Debug)]
pub struct GeneratorSource {
    profile: BenchmarkProfile,
    cores: Vec<CoreGenerator>,
    pending: VecDeque<TraceEvent>,
    writes_emitted: usize,
    writes_total: usize,
}

impl WriteSource for GeneratorSource {
    fn cores(&self) -> usize {
        // Writebacks round-robin over cores starting at 0, so a stream
        // with fewer writes than cores only ever touches the leading
        // cores; reads are issued by the same core as their writeback.
        if self.writes_total == 0 {
            1
        } else {
            self.cores.len().min(self.writes_total)
        }
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        while self.pending.is_empty() && self.writes_emitted < self.writes_total {
            let core = self.writes_emitted % self.cores.len();
            self.cores[core].emit_writeback(&self.profile, &mut self.pending);
            self.writes_emitted += 1;
        }
        Ok(self.pending.pop_front())
    }
}

/// A line's hot-word footprint, stored inline: word indices in
/// insertion order. Drift removes words and appends new ones, and draws
/// index into this order, so it must be kept.
#[derive(Debug, Clone, Copy)]
struct HotWords {
    words: [u8; WORDS],
    len: u8,
}

impl HotWords {
    /// The distinct `words` in ascending order.
    fn sorted(words: &mut [u8]) -> Self {
        words.sort_unstable();
        let mut hot = Self {
            words: [0; WORDS],
            len: 0,
        };
        for &w in words.iter() {
            if hot.as_slice().last() != Some(&w) {
                hot.push(w);
            }
        }
        hot
    }

    fn as_slice(&self) -> &[u8] {
        &self.words[..usize::from(self.len)]
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    fn contains(&self, word: u8) -> bool {
        self.as_slice().contains(&word)
    }

    fn push(&mut self, word: u8) {
        self.words[self.len()] = word;
        self.len += 1;
    }

    /// Removes the word at `index`, shifting later words down.
    fn remove(&mut self, index: usize) {
        let len = self.len();
        self.words.copy_within(index + 1..len, index);
        self.len -= 1;
    }

    /// Bit `b` set iff a hot word lies in 16-byte block `b`.
    fn blocks(&self) -> u8 {
        self.as_slice()
            .iter()
            .fold(0, |mask, w| mask | 1 << (w / 8))
    }
}

/// The `n`-th set bit of a block mask, counting from block 0.
fn nth_block(mask: u8, n: usize) -> u8 {
    (0..4u8)
        .filter(|b| mask >> b & 1 != 0)
        .nth(n)
        .expect("block index below the mask's popcount")
}

/// Per-line generator state.
#[derive(Debug, Clone)]
struct LineState {
    data: LineBytes,
    hot: HotWords,
    writes: u64,
}

/// One core's generator (rate mode: every core runs the same profile on
/// its own address range).
#[derive(Debug)]
struct CoreGenerator {
    core: u8,
    rng: DeuceRng,
    lines: Vec<LineState>,
    /// Word roles, shared by every line (the layout template).
    roles: [WordRole; WORDS],
    zipf_cdf: Vec<f64>,
    /// `guide[k]` is the first index whose CDF value is ≥ `k / G`, for
    /// `k` in `0..=G` with `G = guide.len() - 1` a power of two.
    guide: Vec<u32>,
    instr: u64,
    instr_per_write: f64,
    reads_per_write: f64,
    read_debt: f64,
    include_reads: bool,
}

impl CoreGenerator {
    fn new(
        core: u8,
        profile: &BenchmarkProfile,
        lines: usize,
        seed: u64,
        include_reads: bool,
    ) -> Self {
        let mut rng = DeuceRng::seed_from_u64(seed);
        // Layout template: programs lay the same structs out in every
        // line of an array, so hot-word positions and roles repeat across
        // lines (with some jitter). This cross-line correlation is what
        // concentrates writes on fixed bit positions (Fig. 12's 6–27×
        // skew) and limits DEUCE's un-leveled lifetime gain (Fig. 14).
        let template_hot = sample_hot_words(&mut rng, profile.hot_words.min(WORDS));
        let roles: [WordRole; WORDS] = core::array::from_fn(|_| profile.roles.pick(rng.gen()));
        const LAYOUT_JITTER: f64 = 0.2;

        let line_states = (0..lines)
            .map(|_| {
                let mut data = [0u8; LINE_BYTES];
                rng.fill(&mut data);
                let mut hot = [0u8; WORDS];
                let hot = &mut hot[..template_hot.len()];
                hot.copy_from_slice(&template_hot);
                for w in hot.iter_mut() {
                    if rng.gen_bool(LAYOUT_JITTER) {
                        // Jitter within the same 16-byte block.
                        let candidate = (*w / 8) * 8 + rng.gen_range(0..8u8);
                        if !template_hot.contains(&candidate) {
                            *w = candidate;
                        }
                    }
                }
                LineState {
                    data,
                    hot: HotWords::sorted(hot),
                    writes: 0,
                }
            })
            .collect();

        let zipf_cdf = zipf_cdf(lines, profile.line_zipf);
        Self {
            core,
            rng,
            lines: line_states,
            roles,
            guide: guide_table(&zipf_cdf),
            zipf_cdf,
            instr: 0,
            instr_per_write: 1000.0 / profile.wbpki,
            reads_per_write: profile.mpki / profile.wbpki,
            read_debt: 0.0,
            include_reads,
        }
    }

    /// Draws a line by its Zipf rank: the first index whose CDF value is
    /// ≥ `u`, searched only within `u`'s guide bucket.
    fn pick_line(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        guided_search(&self.zipf_cdf, &self.guide, u).min(self.lines.len() - 1)
    }

    fn addr(&self, line: usize) -> LineAddr {
        LineAddr::new(u64::from(self.core) << 32 | line as u64)
    }

    /// Emits one writeback (preceded by its share of reads) into `out`.
    fn emit_writeback(&mut self, profile: &BenchmarkProfile, out: &mut VecDeque<TraceEvent>) {
        self.instr += self.instr_per_write as u64;

        if self.include_reads {
            self.read_debt += self.reads_per_write;
            while self.read_debt >= 1.0 {
                self.read_debt -= 1.0;
                let line = self.pick_line();
                let addr = self.addr(line);
                out.push_back(TraceEvent::read(self.core, self.instr, addr));
            }
        }

        let line_idx = self.pick_line();
        let addr = self.addr(line_idx);

        // Split borrows: mutate the line state with a local RNG handle.
        let line = &mut self.lines[line_idx];
        line.writes += 1;

        // Footprint drift: re-sample part of the hot set periodically.
        if let Some(period) = profile.drift.period {
            if period > 0 && line.writes.is_multiple_of(period) {
                let replace = ((line.hot.len() as f64) * profile.drift.fraction).round() as usize;
                for _ in 0..replace {
                    if line.hot.len() == 0 {
                        break;
                    }
                    let victim = self.rng.gen_range(0..line.hot.len());
                    line.hot.remove(victim);
                }
                // Drifted-in words keep the spatial clustering: prefer
                // words from blocks the footprint already occupies.
                let blocks = line.hot.blocks();
                let block_count = blocks.count_ones() as usize;
                while line.hot.len() < profile.hot_words.min(WORDS) {
                    let candidate = if block_count > 0 && self.rng.gen_bool(0.7) {
                        nth_block(blocks, self.rng.gen_range(0..block_count)) * 8
                            + self.rng.gen_range(0..8u8)
                    } else {
                        self.rng.gen_range(0..WORDS) as u8
                    };
                    if !line.hot.contains(candidate) {
                        line.hot.push(candidate);
                    }
                }
            }
        }

        // Decide which hot blocks this write touches: writebacks update
        // one field group at a time, so each hot block participates with
        // `block_activity` probability (at least one participates).
        let hot_blocks = line.hot.blocks();
        let mut active = 0u8;
        for b in (0..4).filter(|b| hot_blocks >> b & 1 != 0) {
            active |= u8::from(self.rng.gen_bool(profile.block_activity)) << b;
        }
        if active == 0 {
            let pick = self.rng.gen_range(0..hot_blocks.count_ones() as usize);
            active = 1 << nth_block(hot_blocks, pick);
        }

        // Touch hot words in the active blocks.
        let mut touched_any = false;
        for i in 0..line.hot.len() {
            let word = usize::from(line.hot.words[i]);
            if active >> (word / 8) & 1 == 0 {
                continue;
            }
            if self.rng.gen_bool(profile.touch_probability) {
                let old = u16::from_le_bytes([line.data[word * 2], line.data[word * 2 + 1]]);
                let new = self.roles[word].next_value(old, &mut self.rng);
                line.data[word * 2..word * 2 + 2].copy_from_slice(&new.to_le_bytes());
                touched_any = true;
            }
        }
        if !touched_any {
            // A writeback with zero modified bits would be dropped by the
            // cache; force at least one word change.
            let word = usize::from(line.hot.words[self.rng.gen_range(0..line.hot.len())]);
            let old = u16::from_le_bytes([line.data[word * 2], line.data[word * 2 + 1]]);
            let new = self.roles[word].next_value(old, &mut self.rng);
            line.data[word * 2..word * 2 + 2].copy_from_slice(&new.to_le_bytes());
        }

        let data = line.data;
        out.push_back(TraceEvent::write(self.core, self.instr, addr, data));
    }
}

/// The Zipf CDF over `lines` line ranks with exponent `exponent`.
fn zipf_cdf(lines: usize, exponent: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..lines)
        .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// `cdf.partition_point(|&c| c < u)` for `u` in `[0, 1)`, searching only
/// the guide bucket of `u`. `u * G` is exact (G is a power of two), so
/// bucket `k = floor(u * G)` holds `k / G <= u < (k + 1) / G`: every
/// index below `guide[k]` has a CDF value `< k / G <= u`, and
/// `guide[k + 1]` (if in range) has one `>= (k + 1) / G > u`, so the
/// answer lies in `guide[k]..=guide[k + 1]`.
fn guided_search(cdf: &[f64], guide: &[u32], u: f64) -> usize {
    let k = (u * (guide.len() - 1) as f64) as usize;
    let (lo, hi) = (guide[k] as usize, guide[k + 1] as usize);
    lo + cdf[lo..hi].partition_point(|&c| c < u)
}

/// The guide table of a CDF, built in one sweep: entry `k` is the first
/// index whose value is ≥ `k / G` for `k` in `0..=G`, with `G` the
/// smallest power of two ≥ the CDF's length.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    let buckets = cdf.len().next_power_of_two();
    let mut i = 0;
    (0..=buckets)
        .map(|k| {
            let bound = k as f64 / buckets as f64;
            while i < cdf.len() && cdf[i] < bound {
                i += 1;
            }
            u32::try_from(i).expect("working set fits the 32-bit line field")
        })
        .collect()
}

/// Samples a spatially-clustered hot-word footprint: real writebacks
/// exhibit block-level locality (structs and array slices), so hot words
/// concentrate in a few 16-byte blocks rather than scattering across the
/// line. This is what gives Block-Level Encryption its ~33% average
/// (Fig. 18) instead of degenerating to 50%.
fn sample_hot_words(rng: &mut DeuceRng, count: usize) -> Vec<u8> {
    const WORDS_PER_BLOCK: usize = 8;
    const BLOCKS: usize = 4;
    let blocks_needed = count.div_ceil(5).clamp(1, BLOCKS);
    let hot_blocks = sample_distinct(rng, blocks_needed, BLOCKS);
    // Candidate words: all words of the hot blocks.
    let mut candidates: Vec<u8> = hot_blocks
        .iter()
        .flat_map(|&b| (0..WORDS_PER_BLOCK as u8).map(move |w| b * WORDS_PER_BLOCK as u8 + w))
        .collect();
    // Partial shuffle, take `count`.
    for i in 0..count.min(candidates.len()) {
        let j = rng.gen_range(i..candidates.len());
        candidates.swap(i, j);
    }
    candidates.truncate(count.min(WORDS_PER_BLOCK * BLOCKS));
    candidates
}

fn sample_distinct(rng: &mut DeuceRng, count: usize, range: usize) -> Vec<u8> {
    let mut positions: Vec<u8> = (0..range as u8).collect();
    for i in 0..count.min(range) {
        let j = rng.gen_range(i..range);
        positions.swap(i, j);
    }
    positions.truncate(count.min(range));
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    #[test]
    fn deterministic_given_seed() {
        let a = TraceConfig::new(Benchmark::Mcf).writes(500).seed(9).generate();
        let b = TraceConfig::new(Benchmark::Mcf).writes(500).seed(9).generate();
        assert_eq!(a, b);
        let c = TraceConfig::new(Benchmark::Mcf).writes(500).seed(10).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn read_write_ratio_tracks_table2() {
        let trace = TraceConfig::new(Benchmark::Libquantum)
            .writes(4000)
            .seed(1)
            .generate();
        let ratio = trace.read_count() as f64 / trace.write_count() as f64;
        let expected = 22.9 / 9.78;
        assert!(
            (ratio - expected).abs() / expected < 0.05,
            "read/write ratio {ratio}, expected {expected}"
        );
    }

    #[test]
    fn writes_carry_data_reads_do_not() {
        let trace = TraceConfig::new(Benchmark::Astar).writes(200).generate();
        for e in trace.events() {
            match e.op {
                Op::Read => assert!(e.data.is_none()),
                Op::Write => assert!(e.data.is_some()),
            }
        }
    }

    #[test]
    fn every_write_changes_the_line() {
        use std::collections::HashMap;
        let trace = TraceConfig::new(Benchmark::Wrf).writes(2000).seed(3).generate();
        let mut last: HashMap<u64, LineBytes> = HashMap::new();
        let mut checked = 0;
        for e in trace.writes() {
            let data = e.data.unwrap();
            if let Some(prev) = last.get(&e.line.value()) {
                assert_ne!(prev, &data, "writeback with no modified bits");
                checked += 1;
            }
            last.insert(e.line.value(), data);
        }
        assert!(checked > 1000);
    }

    #[test]
    fn cores_use_disjoint_address_ranges() {
        let trace = TraceConfig::new(Benchmark::Gems)
            .writes(800)
            .cores(4)
            .generate();
        for e in trace.events() {
            assert_eq!(e.line.value() >> 32, u64::from(e.core));
        }
    }

    #[test]
    fn instruction_counts_advance_per_core() {
        let trace = TraceConfig::new(Benchmark::Milc).writes(400).cores(2).generate();
        for core in 0..2u8 {
            let instrs: Vec<u64> = trace
                .events()
                .iter()
                .filter(|e| e.core == core)
                .map(|e| e.instr)
                .collect();
            assert!(instrs.windows(2).all(|w| w[0] <= w[1]), "core {core} non-monotonic");
            assert!(*instrs.last().unwrap() > 0);
        }
    }

    #[test]
    fn working_set_is_respected() {
        let trace = TraceConfig::new(Benchmark::Soplex)
            .lines(32)
            .writes(1000)
            .generate();
        for e in trace.events() {
            assert!((e.line.value() & 0xFFFF_FFFF) < 32);
        }
    }

    /// The guided search equals a full `partition_point` for uniform
    /// draws, for the exact bucket bounds and their neighbours, and for
    /// every CDF value and its neighbours.
    #[test]
    fn guided_search_matches_partition_point() {
        let mut rng = DeuceRng::seed_from_u64(17);
        for lines in [1, 2, 3, 100, 65536] {
            for exponent in [0.0, 0.6, 1.0, 1.4] {
                let cdf = zipf_cdf(lines, exponent);
                let guide = guide_table(&cdf);
                let buckets = guide.len() - 1;
                let mut probes: Vec<f64> = (0..20_000).map(|_| rng.gen()).collect();
                probes.push(0.0);
                probes.push(1f64.next_down());
                for k in 1..buckets {
                    let bound = k as f64 / buckets as f64;
                    probes.extend([bound.next_down(), bound, bound.next_up()]);
                }
                for &c in &cdf {
                    probes.extend([c.next_down(), c, c.next_up()]);
                }
                for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(
                        guided_search(&cdf, &guide, u),
                        cdf.partition_point(|&c| c < u),
                        "{lines} lines, exponent {exponent}, u {u:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let mut rng = DeuceRng::seed_from_u64(5);
        for _ in 0..100 {
            let s = sample_distinct(&mut rng, 10, 32);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 10);
        }
    }
}

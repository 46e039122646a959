//! Simulated outputs recorded for [`crate::DEFAULT_SEED`] at
//! [`crate::Scale::FULL`]. A run with that seed and scale must
//! reproduce them exactly; any difference fails the run's gate.
//!
//! To re-record after a deliberate change to the simulated model, run
//! each workload with `--seed 1` and copy the `stats` object (or the
//! serve `replay_fingerprints`) from its `run` line.

use deuce_sim::StorePageStats;

use crate::runs::RunStats;

/// A `run` workload's recorded outputs.
#[derive(Debug, Clone, Copy)]
pub struct RunGolden {
    /// The simulated statistics.
    pub stats: RunStats,
    /// `content_fingerprint` of the final memory image.
    pub fingerprint: u64,
}

/// `gen-deuce`.
pub const GEN_DEUCE: RunGolden = RunGolden {
    stats: RunStats {
        reads: 922_548,
        writes: 347_439,
        data_flips: 21_333_253,
        meta_flips: 571_447,
        counter_flips: 595_703,
        epoch_starts: 3_725,
        total_slots: 503_201,
        exec_time_bits: 4_721_882_022_134_742_582,
        store: None,
    },
    fingerprint: 0xc229_1be6_54b7_8846,
};

/// `file-paged-dyndeuce`.
pub const FILE_PAGED_DYNDEUCE: RunGolden = RunGolden {
    stats: RunStats {
        reads: 922_548,
        writes: 347_439,
        data_flips: 21_333_253,
        meta_flips: 571_447,
        counter_flips: 595_703,
        epoch_starts: 3_725,
        total_slots: 503_224,
        exec_time_bits: 4_727_801_868_926_632_930,
        store: Some(StorePageStats {
            page_faults: 22_450,
            page_evictions: 20_861,
            pages_flushed: 22_450,
            resident_bytes: 17_895_856,
            peak_resident_bytes: 17_898_496,
        }),
    },
    fingerprint: 0xc229_1be6_54b7_8846,
};

/// `serve-4t-2s`: each tenant's replay fingerprint, `t0` to `t3`.
pub const SERVE_FINGERPRINTS: [u64; 4] = [
    0x85d5_9e1c_5330_b60f,
    0x9ebb_f9f1_e723_2c76,
    0x56bc_6fcb_c853_e11b,
    0x2a49_80ed_a3fc_319c,
];

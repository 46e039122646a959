//! Write-efficient encryption schemes for secure non-volatile memory.
//!
//! This crate is the heart of the DEUCE reproduction: it implements, as
//! bit-exact per-line state machines, every memory encoding the paper
//! evaluates:
//!
//! | Scheme | Paper section | Metadata bits/line | Avg flips/write (paper) |
//! |---|---|---|---|
//! | Unencrypted + DCW | §1 | 0 | 12.4% |
//! | Unencrypted + FNW | §1, \[8\] | 32 | 10.5% |
//! | Encrypted (counter mode) + DCW | §2.4 | 0 | 50% |
//! | Encrypted + FNW | §2.5 | 32 | 42.7% |
//! | BLE (per-16B-block counters) | §7.1, \[18\] | 0 (+4 counters) | 33% |
//! | **DEUCE** | §4 | 32 | **23.7%** |
//! | **DynDEUCE** | §4.6 | 33 | **22.0%** |
//! | DEUCE+FNW | §4.6 | 64 | 20.3% |
//! | BLE+DEUCE | §7.1 | 32 (+4 counters) | 19.9% |
//!
//! The four DEUCE variants share one policy core (`core.rs`): a word
//! mask of modified words, one masked re-encryption per write, and one
//! dual-pad read, all over eight `u64` lanes.
//!
//! Every scheme is driven through the same interface: a small `Copy`
//! parameter struct implementing [`LineScheme`] plus a compact per-line
//! state. A single line is a [`SchemeCell`], built from a parameter
//! struct with [`SchemeCell::with_scheme`] or from a [`SchemeConfig`] as
//! a [`SchemeLine`] (the runtime-dispatched flavour); its counters and
//! metadata are read through [`SchemeCell::state`]. Whole memories live
//! in an arena-backed [`LineStore`]. Writes return a [`WriteOutcome`] carrying
//! the exact old/new stored images — from which bit flips, write slots,
//! energy, and wear all derive.
//!
//! # Examples
//!
//! ```
//! use deuce_crypto::{LineAddr, OtpEngine, SecretKey};
//! use deuce_schemes::{SchemeConfig, SchemeKind, SchemeLine};
//!
//! let engine = OtpEngine::new(&SecretKey::from_seed(1));
//! let config = SchemeConfig::new(SchemeKind::Deuce);
//! let mut line = SchemeLine::new(&config, &engine, LineAddr::new(0), &[0u8; 64]);
//!
//! // Modify a single 16-bit word of the line.
//! let mut data = [0u8; 64];
//! data[10] = 0xFF;
//! let outcome = line.write(&engine, &data);
//!
//! // DEUCE re-encrypts only the modified word: ~8 bit flips + 1 metadata
//! // bit, instead of the ~256 a fully re-encrypted line would see.
//! assert!(outcome.flips.total() < 40);
//! assert_eq!(line.read(&engine), data); // decryption is exact
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr_pad;
mod ble;
mod config;
mod core;
mod dcw;
mod deuce;
mod deuce_fnw;
mod dyn_deuce;
mod fnw;
mod line;
mod outcome;
mod scheme;
mod store;

pub use addr_pad::AddrPadScheme;
pub use ble::{BleDeuceScheme, BleDeuceState, BleScheme, BleState};
pub use config::{SchemeConfig, SchemeKind, WordSize};
pub use self::core::CtrState;
pub use dcw::{EncryptedDcwScheme, UnencryptedDcwScheme};
pub use deuce::{DeuceScheme, DeuceState};
pub use deuce_fnw::{DeuceFnwScheme, DeuceFnwState};
pub use dyn_deuce::{DynDeuceScheme, DynDeuceState};
pub use fnw::{
    fnw_encode, EncryptedFnwScheme, EncryptedFnwState, FnwEncoding, FnwState, UnencryptedFnwScheme,
};
pub use line::{AnyScheme, AnyState, SchemeLine};
pub use outcome::WriteOutcome;
pub use scheme::{LineMut, LineRef, LineScheme, SchemeCell};
pub use store::{
    ArenaBackend, FilePageBackend, LineStore, PageBackend, PageHeader, StateCodec, StorePageStats,
    SLOTS_PER_PAGE,
};

pub use deuce_crypto::{EpochInterval, LineAddr, LineBytes, OtpEngine, SecretKey, LINE_BYTES};
pub use deuce_nvm::{FlipCount, LineImage, MetaBits};

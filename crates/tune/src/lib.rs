//! Circuit feature keys for the CLIP corpus.
//!
//! [`features`] distills a circuit into a coarse [`FeatureKey`]: pair-count
//! size class, net density, series-chain depth, and flat vs.
//! hierarchical request. `clip-corpus` stratifies its generated
//! population over these keys, corpus checkpoints record each cell's key,
//! and `BENCH_corpus.json` reports results per key.
//!
//! The keys belong in `clip-corpus`, their one user. They stay in this
//! crate for now because the benchmark package builds against a frozen
//! lock file (`benchmark/Cargo.lock`) that records `clip-corpus →
//! clip-tune → {clip-core, clip-layout, clip-netlist}`: moving the module
//! or dropping one of those edges changes that lock, so the move waits
//! for the benchmark's next change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;

pub use features::{ChainBucket, CircuitFeatures, FeatureKey, NetBucket, SizeBucket};

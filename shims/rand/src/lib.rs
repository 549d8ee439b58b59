//! Offline shim of `rand`.
//!
//! The workspace does all of its randomness through
//! `dsi_types::rng::SplitMix64`, so this crate is empty: it exists only so
//! manifests that declare a `rand` dependency resolve offline.

//! Offline shim of `serde`.
//!
//! Provides `Serialize`/`Deserialize` as marker traits and re-exports the
//! no-op derives. No workspace crate derives or imports them (the
//! workspace has its own byte formats); the shim stays only while
//! manifests still name it.

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

//! Offline shim of `serde_derive`.
//!
//! These derives expand to nothing: the annotation compiles, no trait
//! impl is generated, and no code can bound on the marker traits. No
//! workspace crate uses them; the shim stays only while manifests still
//! name it.

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`; accepts `#[serde(...)]` attributes.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`; accepts `#[serde(...)]` attributes.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

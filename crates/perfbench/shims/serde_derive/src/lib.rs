//! `#[derive(Serialize, Deserialize)]` that expand to nothing: the serde
//! stand-in implements both traits for every type. Registering the `serde`
//! helper attribute keeps `#[serde(...)]` field annotations legal.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

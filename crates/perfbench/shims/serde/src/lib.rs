//! Type-check-only stand-in for `serde`.
//!
//! The engine derives `Serialize`/`Deserialize` on most of its types but the
//! paths eva-perfbench drives (queries, the view store, the binary segment
//! codec) never serialize through serde. Every type gets both traits through
//! blanket impls, the derives expand to nothing, and calling either trait at
//! run time panics with a message naming this shim.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

const WHY: &str = "serde shim: the hermetic eva-perfbench build cannot serialize through serde";

pub trait Serializer: Sized {
    type Ok;
    type Error;
}

pub trait Deserializer<'de>: Sized {
    type Error;
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

impl<T: ?Sized> Serialize for T {
    fn serialize<S: Serializer>(&self, _serializer: S) -> Result<S::Ok, S::Error> {
        unimplemented!("{WHY}")
    }
}

impl<'de, T> Deserialize<'de> for T {
    fn deserialize<D: Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        unimplemented!("{WHY}")
    }
}

pub mod ser {
    pub use crate::{Serialize, Serializer};
}

pub mod de {
    pub use crate::{Deserialize, Deserializer};

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

//! Type-check-only stand-in for `serde_json`. The engine crates eva-perfbench
//! links reach it from two places only (`QueryTrace::to_chrome_json` and
//! `From<serde_json::Error> for EvaError`); neither runs under the benchmark,
//! which writes its own JSON. Every entry point panics if called.

use std::fmt;

const WHY: &str = "serde_json shim: the hermetic eva-perfbench build has no JSON codec";

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
}

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(WHY)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Discards its tokens (so a caller's variables may warn as unused).
#[macro_export]
macro_rules! json {
    ($($tokens:tt)*) => {
        $crate::Value::Null
    };
}

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    unimplemented!("{WHY}")
}

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    unimplemented!("{WHY}")
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    unimplemented!("{WHY}")
}

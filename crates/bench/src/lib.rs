//! The mapper-kernel throughput measurement behind the `plaid-bench`
//! regression gate (see [`kernel`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;

//! Mapper error types.

use std::fmt;

use crate::seed::{InfeasiblePrefix, SeedOutcome};

/// Errors produced while mapping a DFG onto an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The DFG needs functional-unit capabilities the architecture lacks
    /// (e.g. memory operations but no memory-capable unit).
    UnsupportedDfg(String),
    /// No valid mapping was found for any II up to the configuration-memory
    /// bound.
    NoValidMapping {
        /// Kernel name.
        kernel: String,
        /// Architecture name.
        arch: String,
        /// Highest II attempted.
        max_ii: u32,
        /// The failure as a proof that later ladders on this fabric may
        /// start above.
        proof: InfeasiblePrefix,
        /// How the seeding hint shaped the failed ladder.
        outcome: SeedOutcome,
    },
    /// A produced mapping failed validation (indicates a mapper bug).
    InvalidMapping(String),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::UnsupportedDfg(msg) => write!(f, "DFG not supported by architecture: {msg}"),
            MapError::NoValidMapping {
                kernel,
                arch,
                max_ii,
                ..
            } => write!(
                f,
                "no valid mapping of {kernel} onto {arch} up to II={max_ii}"
            ),
            MapError::InvalidMapping(msg) => write!(f, "invalid mapping produced: {msg}"),
        }
    }
}

impl std::error::Error for MapError {}

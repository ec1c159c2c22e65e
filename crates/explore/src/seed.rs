//! The warm-start policy of a sweep.
//!
//! Under [`SeedPolicy::Exact`], [`crate::run_sweep_with`] evaluates each
//! group of points that differ only in configuration depth and
//! communication provisioning (bandwidth, select policy) one after
//! another. Each point's compilation receives, as its
//! [`plaid::pipeline::MapSeed`] hint, the placement seeds of the group's
//! earlier successes and the infeasibility proofs of its earlier fresh
//! failures. The mapper alone decides which of them provably preserve its
//! result, so sweeps stay bit-identical to cold runs while skipping most of
//! the mapping work on the depth and bandwidth axes.

use serde::{Deserialize, Serialize};

/// How a sweep uses cached seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// Never pass hints; every point maps from scratch.
    Off,
    /// Only result-preserving reuse (replays and ladder floors the mapper
    /// proves sound): sweep results are bit-identical to a cold run.
    Exact,
}

impl SeedPolicy {
    /// Parses a CLI-style policy name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "off" => Ok(SeedPolicy::Off),
            "exact" => Ok(SeedPolicy::Exact),
            other => Err(format!("unknown seed policy `{other}` (off|exact)")),
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            SeedPolicy::Off => "off",
            SeedPolicy::Exact => "exact",
        }
    }
}

//! Pins the exact mappings the three search mappers produce on the workload
//! suite, so kernel-level refactors (move journals, dense occupancy tables,
//! scratch-based routing) can prove they changed *nothing* about results:
//! same RNG consumption, same tie-breaks, same placements, same routes.
//!
//! The pinned constants were captured from the snapshot-based kernel that
//! predates the incremental one (commit 47473cb); any divergence means the
//! refactor is not behaviour-preserving and must be fixed, not re-pinned.
//!
//! Run with `PLAID_PIN_PRINT=1` to print the current fingerprints instead of
//! asserting (the capture mode used to generate the table).

mod common;

use common::mapping_fingerprint;
use plaid_arch::{plaid as plaid_fabric, spatio_temporal, Architecture};
use plaid_mapper::{Mapper, PathFinderMapper, PlaidMapper, SaMapper};
use plaid_workloads::table2_workloads;

/// The suite: every 5th registry workload (6 of 30, spanning all domains)
/// crossed with one spatio-temporal and one Plaid fabric.
fn suite() -> Vec<(String, Architecture)> {
    let fabrics = [
        ("st4x4", spatio_temporal::build(4, 4)),
        ("plaid2x2", plaid_fabric::build(2, 2)),
    ];
    let mut cases = Vec::new();
    for w in table2_workloads().into_iter().step_by(5) {
        for (fname, fab) in &fabrics {
            cases.push((format!("{}/{}", w.name, fname), fab.clone()));
        }
    }
    cases
}

fn run_mapper(mapper: &dyn Mapper, case: &str, arch: &Architecture) -> Option<u64> {
    let name = case.split('/').next().unwrap();
    let workload = table2_workloads().into_iter().find(|w| w.name == name)?;
    let dfg = workload.lower().ok()?;
    let mapping = mapper.map(&dfg, arch).ok()?;
    mapping.validate(&dfg, arch).expect("mapping validates");
    Some(mapping_fingerprint(&mapping))
}

/// `(case, sa, pathfinder, plaid)` — `0` marks "no mapping found", which is
/// itself a pinned outcome (the search must keep failing identically).
const PINNED: &[(&str, u64, u64, u64)] = &[
    (
        "atax_u2/st4x4",
        0xde278d3ff679edfa,
        0x52735c90468425f6,
        0x52735c90468425f6,
    ),
    (
        "atax_u2/plaid2x2",
        0xeb04e3481b739421,
        0x384c5e82d6580dc6,
        0xd391c54b04555d21,
    ),
    (
        "gesumm_u2/st4x4",
        0x116de8e29ce6b06b,
        0x96c6f2a3139a9029,
        0x116de8e29ce6b06b,
    ),
    (
        "gesumm_u2/plaid2x2",
        0x7130f9b111d0cbd8,
        0x0,
        0x7d69512cab7dd5d3,
    ),
    ("gemver_u4/st4x4", 0x0, 0x0, 0x0),
    ("gemver_u4/plaid2x2", 0x3045afbdaeb8354d, 0x0, 0x0),
    (
        "dwconv_u5/st4x4",
        0xa74f760eaba5c166,
        0x9b6aff6dbe8e7be4,
        0xa74f760eaba5c166,
    ),
    (
        "dwconv_u5/plaid2x2",
        0x45a1d5c2ff063367,
        0x0,
        0x3d9e47d6afb04cbe,
    ),
    (
        "gramsc_u2/st4x4",
        0x8704cfc8094dd9e3,
        0x8704cfc8094dd9e3,
        0x8704cfc8094dd9e3,
    ),
    (
        "gramsc_u2/plaid2x2",
        0x522a213c0a53fbd,
        0xd5db50e5013faea5,
        0x522a213c0a53fbd,
    ),
    (
        "jacobi/st4x4",
        0x12f3c00d549222ac,
        0x12f3c00d549222ac,
        0x12f3c00d549222ac,
    ),
    (
        "jacobi/plaid2x2",
        0xf4d98aff3101ee5e,
        0xf4d98aff3101ee5e,
        0xf4d98aff3101ee5e,
    ),
];

#[test]
fn mappings_are_bit_identical_to_the_snapshot_kernel() {
    let print_mode = std::env::var("PLAID_PIN_PRINT").is_ok();
    let sa = SaMapper::default();
    let pf = PathFinderMapper::default();
    let pl = PlaidMapper::default();
    let mut failures = Vec::new();
    for (case, arch) in suite() {
        let got = (
            run_mapper(&sa, &case, &arch).unwrap_or(0),
            run_mapper(&pf, &case, &arch).unwrap_or(0),
            run_mapper(&pl, &case, &arch).unwrap_or(0),
        );
        if print_mode {
            println!(
                "    (\n        \"{case}\",\n        {:#x},\n        {:#x},\n        {:#x},\n    ),",
                got.0, got.1, got.2
            );
            continue;
        }
        let pinned = PINNED
            .iter()
            .find(|(name, ..)| *name == case)
            .unwrap_or_else(|| panic!("case {case} missing from the pinned table"));
        if got != (pinned.1, pinned.2, pinned.3) {
            failures.push(format!(
                "{case}: got (sa={:#x}, pf={:#x}, plaid={:#x}), pinned ({:#x}, {:#x}, {:#x})",
                got.0, got.1, got.2, pinned.1, pinned.2, pinned.3
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "mappings diverged from the snapshot-based kernel:\n{}",
        failures.join("\n")
    );
}

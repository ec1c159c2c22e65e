//! The placement pre-check (`MapState::route_precheck`): rejecting a
//! candidate whose edges provably cannot be routed, before routing any of
//! them, must change nothing about mapping results.
//!
//! The pinned points are the ones the pre-check speeds up most; their
//! outcomes were captured before the pre-check existed. Run with
//! `PLAID_PIN_PRINT=1` to print the current outcomes instead of asserting.
//! The unit cases check the pre-check's two rules — a blocked departure
//! rejects, a value shared by two edges of the candidate does not — and that
//! its structural rule reads no occupancy.

mod common;

use std::sync::Arc;

use common::mapping_fingerprint;
use plaid_arch::{spatio_temporal, ArchClass, Architecture, CommLevel, DesignPoint, ResourceId};
use plaid_dfg::{Dfg, EdgeId, EdgeKind, NodeId, Op, Operand};
use plaid_mapper::placement::MapState;
use plaid_mapper::route::{find_route_in, HardCapacityCost, RouteRequest, RouterScratch};
use plaid_mapper::{CapacityCert, MapError, Mapper, PathFinderMapper, PlaidMapper};
use plaid_workloads::find_workload;

/// What a mapper produced for one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A mapping at `ii` with the given content fingerprint.
    Mapped { ii: u32, fingerprint: u64 },
    /// `NoValidMapping` after trying every II up to `max_ii`.
    Infeasible { max_ii: u32 },
}

/// `(kernel, class, rows, cols, outcome)`, all at config depth 16 on the
/// lean network; Plaid fabrics run the Plaid mapper, spatio-temporal ones
/// PathFinder, as the explorer's sweep does.
const PINNED: &[(&str, ArchClass, u32, u32, Outcome)] = &[
    (
        "gramsc_u4",
        ArchClass::Plaid,
        3,
        3,
        Outcome::Infeasible { max_ii: 16 },
    ),
    (
        "gramsc_u4",
        ArchClass::Plaid,
        2,
        2,
        Outcome::Infeasible { max_ii: 16 },
    ),
    (
        "doitgen_u4",
        ArchClass::Plaid,
        4,
        4,
        Outcome::Mapped {
            ii: 12,
            fingerprint: 0x1d01_151c_a20c_a5e3,
        },
    ),
    (
        "fc",
        ArchClass::SpatioTemporal,
        4,
        4,
        Outcome::Infeasible { max_ii: 16 },
    ),
];

fn outcome(kernel: &str, class: ArchClass, rows: u32, cols: u32) -> Outcome {
    let design = DesignPoint {
        class,
        rows,
        cols,
        config_entries: 16,
        comm: CommLevel::Lean.spec(),
    };
    let arch = design.build();
    let dfg = find_workload(kernel).unwrap().lower().unwrap();
    let result = match class {
        ArchClass::Plaid => PlaidMapper::default().map(&dfg, &arch),
        _ => PathFinderMapper::default().map(&dfg, &arch),
    };
    match result {
        Ok(mapping) => {
            mapping.validate(&dfg, &arch).expect("mapping validates");
            Outcome::Mapped {
                ii: mapping.ii,
                fingerprint: mapping_fingerprint(&mapping),
            }
        }
        Err(MapError::NoValidMapping { max_ii, .. }) => Outcome::Infeasible { max_ii },
        Err(e) => panic!("{kernel}@{}: unexpected error {e}", design.label()),
    }
}

#[test]
fn precheck_leaves_the_slowest_points_unchanged() {
    let print_mode = std::env::var("PLAID_PIN_PRINT").is_ok();
    let mut failures = Vec::new();
    for &(kernel, class, rows, cols, pinned) in PINNED {
        let got = outcome(kernel, class, rows, cols);
        if print_mode {
            println!("{kernel} {class:?} {rows}x{cols}: {got:?}");
        } else if got != pinned {
            failures.push(format!(
                "{kernel} {class:?} {rows}x{cols}: got {got:?}, pinned {pinned:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A producer feeding two consumers (a fan-out: both edges carry one value).
fn fan_out() -> (Dfg, [NodeId; 3], [EdgeId; 2]) {
    let mut dfg = Dfg::new("fan_out");
    let p = dfg.add_compute_node("p", Op::Mul);
    let c1 = dfg.add_compute_node("c1", Op::Add);
    let c2 = dfg.add_compute_node("c2", Op::Add);
    let e1 = dfg.add_edge(p, c1, Operand::Lhs, EdgeKind::Data).unwrap();
    let e2 = dfg.add_edge(p, c2, Operand::Lhs, EdgeKind::Data).unwrap();
    (dfg, [p, c1, c2], [e1, e2])
}

/// The first ALU of each tile of `arch`.
fn alus(arch: &Architecture) -> Vec<ResourceId> {
    arch.clusters().iter().map(|c| c.alus[0]).collect()
}

/// Fills every switch `fu` departs through, in the slot a value produced at
/// `cycle` departs in, to capacity with values foreign to the DFG.
fn block_departures(state: &mut MapState<'_>, fu: ResourceId, cycle: u32) {
    let arch = state.arch;
    for link in arch.out_links(fu) {
        if arch.resource(link.to).kind.is_func_unit() {
            continue;
        }
        for v in 0..state.state.capacity(link.to) {
            state
                .state
                .occupy(link.to, cycle + link.latency, NodeId(1_000 + v));
        }
    }
}

#[test]
fn blocked_departure_rejects_the_candidate_and_the_search_agrees() {
    let (dfg, [p, c1, _], [e1, _]) = fan_out();
    let arch = spatio_temporal::build(2, 2);
    let fus = alus(&arch);
    let mut state = MapState::new(&dfg, &arch, 4);
    state.place(p, fus[0], 1);
    state.place(c1, fus[1], 2);
    assert!(state.route_precheck(&[e1], &HardCapacityCost));

    block_departures(&mut state, fus[0], 1);
    assert!(!state.route_precheck(&[e1], &HardCapacityCost));
    let request = RouteRequest {
        src_fu: fus[0],
        src_cycle: 1,
        dst_fu: fus[1],
        arrival_cycle: 2,
        value: p,
    };
    let mut scratch = RouterScratch::new();
    assert!(!scratch.departs(&arch, &state.state, &request, &HardCapacityCost));
    assert_eq!(
        find_route_in(
            &mut scratch,
            &arch,
            &state.state,
            &request,
            &HardCapacityCost
        ),
        None
    );
    assert!(!state.route_edge(e1, &HardCapacityCost));
}

#[test]
fn edges_sharing_a_value_are_not_rejected_on_occupancy() {
    let (dfg, [p, c1, c2], [e1, e2]) = fan_out();
    let arch = spatio_temporal::build(2, 2);
    let fus = alus(&arch);
    let mut state = MapState::new(&dfg, &arch, 4);
    state.place(p, fus[0], 1);
    state.place(c1, fus[1], 2);
    state.place(c2, fus[2], 3);
    block_departures(&mut state, fus[0], 1);
    // Alone, each edge is provably blocked ...
    assert!(!state.route_precheck(&[e1], &HardCapacityCost));
    assert!(!state.route_precheck(&[e2], &HardCapacityCost));
    // ... but together, routing one could carry the shared value into the
    // other's departure cell, so neither is rejected on occupancy.
    assert!(state.route_precheck(&[e1, e2], &HardCapacityCost));
}

#[test]
fn non_positive_or_reach_dead_budgets_are_rejected_without_reading_occupancy() {
    let (dfg, [p, c1, _], [e1, _]) = fan_out();
    let arch = spatio_temporal::build(4, 4);
    let fus = alus(&arch);
    let (corner, far_corner) = (fus[0], fus[fus.len() - 1]);
    for (dst_fu, dst_cycle) in [(fus[1], 3), (fus[1], 2), (far_corner, 4)] {
        let cert = Arc::new(CapacityCert::new(arch.resources().len()));
        let mut state = MapState::with_cert(&dfg, &arch, 8, Arc::clone(&cert));
        state.place(p, corner, 3);
        state.place(c1, dst_fu, dst_cycle);
        let observed = (cert.need(), cert.ceil());
        assert!(
            !state.route_precheck(&[e1], &HardCapacityCost),
            "budget {} to {dst_fu:?} accepted",
            i64::from(dst_cycle) - 3
        );
        assert!(!state.route_edge(e1, &HardCapacityCost));
        assert_eq!((cert.need(), cert.ceil()), observed);
    }
}

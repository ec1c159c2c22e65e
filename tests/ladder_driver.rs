//! The II ladder every modulo mapper (SA, PathFinder, Plaid) runs: the
//! memory-unit guard, the capacity-certificate policy of captured seeds,
//! that seeds persisted by older builds load but replay only when provably
//! canonical, and that the mapper's own report of how it used a hint is
//! what a sweep counts.

use plaid::pipeline::MapperChoice;
use plaid_arch::architecture::ArchBuilder;
use plaid_arch::{
    spatio_temporal, ArchClass, Architecture, CommLevel, CommSpec, DesignPoint, FuCaps,
    ResourceKind, SpaceSpec,
};
use plaid_dfg::Dfg;
use plaid_explore::{
    evaluate_point, run_sweep_with, ResultCache, SeedPolicy, SweepPlan, SweepPoint,
};
use plaid_mapper::{
    dfg_fingerprint, fabric_signature, mii, InfeasiblePrefix, MapError, MapSeed, PathFinderMapper,
    PlacementSeed, PlaidMapper, SaMapper, SeedOutcome, SeededMapping,
};
use plaid_workloads::find_workload;

type MapFn = fn(&Dfg, &Architecture, Option<&MapSeed>) -> Result<SeededMapping, MapError>;

/// The three ladder mappers, with whether their seeds carry a capacity
/// certificate and the fabric class each is evaluated on in sweeps.
const MAPPERS: [(&str, MapFn, bool, ArchClass); 3] = [
    (
        "sa",
        |d, a, h| SaMapper::default().map_with_seed(d, a, h),
        true,
        ArchClass::SpatioTemporal,
    ),
    (
        "pathfinder",
        |d, a, h| PathFinderMapper::default().map_with_seed(d, a, h),
        false,
        ArchClass::SpatioTemporal,
    ),
    (
        "plaid",
        |d, a, h| PlaidMapper::default().map_with_seed(d, a, h),
        true,
        ArchClass::Plaid,
    ),
];

fn design(class: ArchClass, depth: u32) -> DesignPoint {
    DesignPoint {
        class,
        rows: 2,
        cols: 2,
        config_entries: depth,
        comm: CommLevel::Aligned.spec(),
    }
}

fn dwconv() -> Dfg {
    find_workload("dwconv").unwrap().lower().unwrap()
}

/// `base` rebuilt with every functional unit stripped of its memory port.
fn compute_only(base: &Architecture) -> Architecture {
    let mut b = ArchBuilder::new("compute-only", base.class(), base.params().clone());
    let tiles = base
        .resources()
        .iter()
        .map(|r| r.tile)
        .max()
        .map_or(0, |t| t + 1);
    for tile in 0..tiles {
        b.add_tile(base.tile_position(tile));
    }
    for r in base.resources() {
        match r.kind {
            ResourceKind::FuncUnit(_) => b.add_func_unit(r.tile, r.name.clone(), FuCaps::ALU),
            ResourceKind::Switch { capacity } => b.add_switch(r.tile, r.name.clone(), capacity),
        };
    }
    for l in base.links() {
        b.link(l.from, l.to, l.latency);
    }
    for c in base.clusters() {
        b.add_cluster(c.clone());
    }
    b.build()
}

#[test]
fn rejects_memory_dfg_on_memoryless_architecture() {
    let dfg = dwconv();
    assert!(dfg.memory_node_count() > 0, "dwconv loads and stores");
    let base = spatio_temporal::build(2, 2);
    let arch = compute_only(&base);
    assert_eq!(arch.memory_unit_count(), 0);
    assert_eq!(arch.compute_unit_count(), base.compute_unit_count());
    for (name, map, _, _) in MAPPERS {
        assert!(
            map(&dfg, &base, None).is_ok(),
            "{name} maps dwconv with memory units"
        );
        match map(&dfg, &arch, None) {
            Err(MapError::UnsupportedDfg(_)) => {}
            other => panic!(
                "{name}: expected UnsupportedDfg, got {:?}",
                other.map(|m| m.outcome)
            ),
        }
    }
}

#[test]
fn seed_certificates_follow_one_policy() {
    let dfg = dwconv();
    for (name, map, certified, class) in MAPPERS {
        let arch = design(class, 16).build();
        let resources = arch.resources().len();

        // A scratch seed carries one certificate entry per resource, but
        // only from a certified mapper.
        let cold = map(&dfg, &arch, None).unwrap();
        assert_eq!(cold.outcome, SeedOutcome::Scratch, "{name}");
        assert!(cold.seed.canonical, "{name}");
        let expected = if certified { resources } else { 0 };
        assert_eq!(cold.seed.cap_need.len(), expected, "{name} cap_need");
        assert_eq!(cold.seed.cap_ceil.len(), expected, "{name} cap_ceil");

        // A replayed seed inherits its source's certificate verbatim.
        let replay_hint = MapSeed {
            seeds: std::slice::from_ref(&cold.seed),
            proofs: &[],
        };
        let replayed = map(&dfg, &arch, Some(&replay_hint)).unwrap();
        assert_eq!(replayed.outcome, SeedOutcome::Replayed, "{name}");
        assert_eq!(
            replayed.mapping.placements, cold.mapping.placements,
            "{name}"
        );
        assert_eq!(replayed.seed.cap_need, cold.seed.cap_need, "{name}");
        assert_eq!(replayed.seed.cap_ceil, cold.seed.cap_ceil, "{name}");

        // A floored seed carries none: the certificate does not cover the
        // skipped prefix. Floor through the lower bound so the raised
        // ladder still fits under the configuration depth.
        let proof = InfeasiblePrefix {
            dfg: dfg_fingerprint(&dfg),
            fabric: fabric_signature(&arch),
            through_ii: mii(&dfg, &arch),
        };
        let floor_hint = MapSeed {
            seeds: &[],
            proofs: &[proof],
        };
        let floored = map(&dfg, &arch, Some(&floor_hint)).unwrap();
        assert_eq!(floored.outcome, SeedOutcome::Floored, "{name}");
        assert!(floored.mapping.ii > mii(&dfg, &arch), "{name}");
        assert!(floored.seed.canonical, "{name}");
        assert!(floored.seed.cap_need.is_empty(), "{name} floored cap_need");
        assert!(floored.seed.cap_ceil.is_empty(), "{name} floored cap_ceil");
    }
}

/// A seed as an older build persisted it: PathFinder's mapping of `dwconv`
/// on the 2x2 spatio-temporal fabric (aligned, depth 16), still carrying
/// the since-removed `fu_ordinal` and `fu_count` fields, and marked
/// non-canonical.
const LEGACY_SEED: &str = r#"{"canonical":false,"cap_ceil":[],"cap_need":[],"dfg":2132733133634602019,"fabric":12226986827571427496,"fabric_nocap":5675426651114699944,"fu_count":4,"ii":5,"mapper":"pathfinder","options":5176360109450206379,"placements":[{"cycle":0,"fu":0,"fu_ordinal":0,"node":0},{"cycle":0,"fu":4,"fu_ordinal":2,"node":1},{"cycle":1,"fu":0,"fu_ordinal":0,"node":2},{"cycle":2,"fu":4,"fu_ordinal":2,"node":3},{"cycle":3,"fu":0,"fu_ordinal":0,"node":4},{"cycle":4,"fu":0,"fu_ordinal":0,"node":5}],"routes":[{"edge":0,"hops":[{"cycle":0,"resource":5},{"cycle":1,"resource":1},{"cycle":2,"resource":5}]},{"edge":1,"hops":[{"cycle":1,"resource":1},{"cycle":2,"resource":5}]},{"edge":2,"hops":[{"cycle":0,"resource":1},{"cycle":1,"resource":3},{"cycle":2,"resource":1},{"cycle":3,"resource":1}]},{"edge":3,"hops":[{"cycle":2,"resource":5},{"cycle":3,"resource":1}]},{"edge":4,"hops":[{"cycle":3,"resource":1},{"cycle":4,"resource":1}]}]}"#;

#[test]
fn persisted_non_canonical_seeds_load_but_never_replay() {
    let legacy: PlacementSeed = serde_json::from_str(LEGACY_SEED).expect("legacy seed loads");
    assert!(!legacy.canonical);
    assert!(LEGACY_SEED.contains("\"fu_ordinal\"") && LEGACY_SEED.contains("\"fu_count\""));
    // The same seed marked canonical is a genuine replay candidate here, so
    // the canonical flag is the only thing keeping the legacy one out.
    let twin = PlacementSeed {
        canonical: true,
        ..legacy.clone()
    };

    let dfg = dwconv();
    let point = |depth: u32| SweepPoint {
        workload: find_workload("dwconv").unwrap(),
        design: design(ArchClass::SpatioTemporal, depth),
        mapper: MapperChoice::PathFinder,
    };
    let (p8, p16) = (point(8), point(16));
    let arch16 = p16.design.build();

    // The mapper's ladder never replays it: the result is the cold one.
    let mapper = PathFinderMapper::default();
    let cold = mapper.map_with_seed(&dfg, &arch16, None).unwrap();
    fn hint(seed: &PlacementSeed) -> MapSeed<'_> {
        MapSeed {
            seeds: std::slice::from_ref(seed),
            proofs: &[],
        }
    }
    let ignored = mapper
        .map_with_seed(&dfg, &arch16, Some(&hint(&legacy)))
        .unwrap();
    assert_eq!(ignored.outcome, SeedOutcome::Scratch);
    assert_eq!(ignored.mapping.placements, cold.mapping.placements);
    assert_eq!(ignored.mapping.routes, cold.mapping.routes);
    let replayed = mapper
        .map_with_seed(&dfg, &arch16, Some(&hint(&twin)))
        .unwrap();
    assert_eq!(replayed.outcome, SeedOutcome::Replayed);
    assert_eq!(replayed.mapping.placements, cold.mapping.placements);

    // A sweep over a cache holding the record with that seed at depth 8
    // (the same fabric signature) passes it to the depth-16 sibling, which
    // maps cold and counts no hint; the canonical twin replays instead.
    let cold16 = evaluate_point(&p16, &ResultCache::new());
    let plan = SweepPlan {
        points: vec![p8.clone(), p16.clone()],
    };
    let sweep_over = |seed: &PlacementSeed| {
        let mut record = evaluate_point(&p8, &ResultCache::new());
        record
            .summary
            .as_mut()
            .expect("dwconv maps at depth 8")
            .seed = Some(seed.clone());
        let cache = ResultCache::new();
        cache.insert(record);
        run_sweep_with(&plan, &cache, SeedPolicy::Exact)
    };
    let legacy_sweep = sweep_over(&legacy);
    assert_eq!(legacy_sweep.stats.cache_hits, 1);
    assert_eq!(
        (legacy_sweep.stats.seeded, legacy_sweep.stats.seed_hits),
        (0, 0)
    );
    assert_eq!(legacy_sweep.records[1], cold16);
    let twin_sweep = sweep_over(&twin);
    assert_eq!(
        (twin_sweep.stats.seeded, twin_sweep.stats.seed_hits),
        (1, 1)
    );
    assert_eq!(twin_sweep.records[1], cold16);
}

#[test]
fn a_proof_below_the_lower_bound_is_a_hint_but_not_a_hit() {
    // gramsc_u4 cannot map on the lean 2x2 spatio-temporal fabric: at depth
    // 8 its lower bound already exceeds the II cap, and at depth 16 every II
    // fails. The depth-8 proof matches the depth-16 fabric but lies below
    // its lower bound, so the depth-16 ladder runs in full.
    let spec = SpaceSpec {
        classes: vec![ArchClass::SpatioTemporal],
        dims: vec![(2, 2)],
        config_entries: vec![8, 16],
        comm_specs: vec![CommSpec::LEAN],
    };
    let workload = find_workload("gramsc_u4").unwrap();
    let plan = SweepPlan::cross(std::slice::from_ref(&workload), &spec);
    let outcome = run_sweep_with(&plan, &ResultCache::new(), SeedPolicy::Exact);
    assert_eq!(outcome.stats.failures, 2);
    assert_eq!(
        (outcome.stats.seeded, outcome.stats.seed_hits),
        (1, 0),
        "the depth-16 point is hinted, not a hit"
    );

    // The same decision, reported by the mapper itself.
    let dfg = workload.lower().unwrap();
    let (d8, d16) = (plan.points[0].design.build(), plan.points[1].design.build());
    let mapper = PathFinderMapper::default();
    let proof = match mapper.map_with_seed(&dfg, &d8, None) {
        Err(MapError::NoValidMapping { proof, outcome, .. }) => {
            assert_eq!(outcome, SeedOutcome::Scratch);
            proof
        }
        other => panic!("expected NoValidMapping at depth 8, got {other:?}"),
    };
    assert_eq!(proof.through_ii, 8);
    assert!(mii(&dfg, &d16) > proof.through_ii);
    let hint = MapSeed {
        seeds: &[],
        proofs: &[proof],
    };
    match mapper.map_with_seed(&dfg, &d16, Some(&hint)) {
        Err(MapError::NoValidMapping { proof, outcome, .. }) => {
            assert_eq!(outcome, SeedOutcome::Unused);
            assert!(outcome.hinted() && !outcome.hit());
            assert_eq!(proof.through_ii, 16);
        }
        other => panic!("expected NoValidMapping at depth 16, got {other:?}"),
    }
}

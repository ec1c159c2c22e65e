//! Parallel sweep execution over the provisioning grid.
//!
//! A [`SweepPlan`] is the cross product of a workload list and an enumerated
//! design space, with one mapper per point (the class default unless
//! overridden). [`run_sweep`] evaluates the plan in parallel with `rayon`,
//! consulting the [`ResultCache`] before every compilation so overlapping or
//! repeated sweeps only pay for points they have never seen.
//!
//! Warm starts need no shared state: each seed group (points differing only
//! in configuration depth and communication provisioning) runs on one
//! thread, and its loop keeps the placement seeds and infeasibility proofs
//! its earlier points produced, passing them to the mapper as the hint.

use std::collections::HashMap;

use plaid::pipeline::{
    compile_workload_on_seeded, InfeasiblePrefix, MapError, MapSeed, MapperChoice, PipelineError,
    PlacementSeed, SeedOutcome,
};
use plaid_arch::{ArchClass, DesignPoint, SpaceSpec};
use plaid_workloads::Workload;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cache::ResultCache;
use crate::record::EvalRecord;
use crate::seed::SeedPolicy;

/// One evaluatable point: a workload, a provisioning design point and the
/// mapper that will place the workload onto it.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The workload to compile.
    pub workload: Workload,
    /// The architecture point to build.
    pub design: DesignPoint,
    /// The mapper to run.
    pub mapper: MapperChoice,
}

/// Default mapper for an enumerated architecture class: the motif-aware
/// mapper on Plaid fabrics, the partitioner on spatial fabrics and
/// PathFinder on the spatio-temporal baseline (the faster of the two generic
/// mappers, which matters when sweeping hundreds of points).
pub fn default_mapper_for_class(class: ArchClass) -> MapperChoice {
    match class {
        ArchClass::Plaid => MapperChoice::Plaid,
        ArchClass::Spatial => MapperChoice::Spatial,
        ArchClass::SpatioTemporal => MapperChoice::PathFinder,
    }
}

/// An ordered list of sweep points.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// Points in deterministic (workload-major) order.
    pub points: Vec<SweepPoint>,
}

impl SweepPlan {
    /// Crosses `workloads` with the enumerated `space`, assigning each point
    /// its class-default mapper.
    pub fn cross(workloads: &[Workload], space: &SpaceSpec) -> Self {
        Self::cross_with(workloads, space, default_mapper_for_class)
    }

    /// Crosses `workloads` with `space` using an explicit mapper policy.
    pub fn cross_with(
        workloads: &[Workload],
        space: &SpaceSpec,
        mapper_for: impl Fn(ArchClass) -> MapperChoice,
    ) -> Self {
        let designs = space.enumerate();
        let mut points = Vec::with_capacity(workloads.len() * designs.len());
        for workload in workloads {
            for &design in &designs {
                points.push(SweepPoint {
                    workload: workload.clone(),
                    design,
                    mapper: mapper_for(design.class),
                });
            }
        }
        SweepPlan { points }
    }

    /// Number of points in the plan.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Accounting for one sweep pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Points in the plan.
    pub points: usize,
    /// Points actually compiled this pass (cache misses).
    pub compiled: usize,
    /// Points served from the cache.
    pub cache_hits: usize,
    /// Points whose compilation failed (counted within `compiled`).
    pub failures: usize,
    /// Compiled points whose mapper found a hint candidate matching their
    /// DFG and fabric ([`plaid::pipeline::SeedOutcome::hinted`]).
    pub seeded: usize,
    /// Compiled points where the mapper's use of the hint skipped work: an
    /// exact replay, a floored or a fast-failed II ladder
    /// ([`plaid::pipeline::SeedOutcome::hit`]).
    pub seed_hits: usize,
}

impl SweepStats {
    /// Fraction of points served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.points as f64
        }
    }
}

/// The result of one sweep pass: per-point records (in plan order) plus
/// accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// One record per plan point, in plan order.
    pub records: Vec<EvalRecord>,
    /// Pass accounting.
    pub stats: SweepStats,
}

/// Evaluates one sweep point, consulting (and populating) the cache: the
/// one-point group every point of a [`SeedPolicy::Off`] sweep runs as.
pub fn evaluate_point(point: &SweepPoint, cache: &ResultCache) -> EvalRecord {
    let mut outcome = evaluate_group([point].into_iter(), cache);
    outcome
        .records
        .pop()
        .expect("a one-point group yields one record")
}

/// Runs the plan with the default warm-start policy
/// ([`SeedPolicy::Exact`], which preserves cold-run results bit-for-bit),
/// returning records in plan order.
///
/// Seeding changes the schedule, not the results: points sharing a seed
/// group run sequentially (in depth order) so later points can reuse
/// earlier seeds, and only distinct groups run in parallel. A plan that is
/// one big group therefore trades per-point parallelism for seed reuse —
/// pass [`SeedPolicy::Off`] to [`run_sweep_with`] to run every point as its
/// own parallel task instead.
///
/// The cache accounting in the returned [`SweepStats`] counts only this
/// pass's lookups.
pub fn run_sweep(plan: &SweepPlan, cache: &ResultCache) -> SweepOutcome {
    run_sweep_with(plan, cache, SeedPolicy::Exact)
}

/// Runs the plan in parallel under an explicit warm-start policy.
///
/// Under [`SeedPolicy::Exact`], points are grouped by seed group (workload ×
/// class × dimensions × topology × mapper — configuration depth, bandwidth
/// and select policy erased) and each group is evaluated in ascending depth,
/// aligned-communication-first order, so every group compiles one ladder
/// cold and derives its siblings from it: an exact replay for depth
/// siblings (identical fabric signature), a capacity-certified replay for
/// communication siblings, and a skipped ladder prefix where a shallower
/// sibling proved its ladder infeasible. The mapper decides which of the
/// group's seeds and proofs apply. Under [`SeedPolicy::Off`] every point is
/// a group of its own, so its empty hint maps it from scratch. Groups run in
/// parallel; records come back in plan order.
pub fn run_sweep_with(plan: &SweepPlan, cache: &ResultCache, policy: SeedPolicy) -> SweepOutcome {
    let groups = match policy {
        SeedPolicy::Off => (0..plan.len()).map(|i| vec![i]).collect(),
        SeedPolicy::Exact => group_points_for_seeding(plan),
    };
    let outcomes: Vec<GroupOutcome> = groups
        .par_iter()
        .map(|group| evaluate_group(group.iter().map(|&i| &plan.points[i]), cache))
        .collect();
    let mut slots: Vec<Option<EvalRecord>> = vec![None; plan.len()];
    let (mut cache_hits, mut seeded, mut seed_hits) = (0, 0, 0);
    for (group, outcome) in groups.iter().zip(outcomes) {
        cache_hits += outcome.cache_hits;
        seeded += outcome.seeded;
        seed_hits += outcome.seed_hits;
        for (&i, record) in group.iter().zip(outcome.records) {
            slots[i] = Some(record);
        }
    }
    let records: Vec<EvalRecord> = slots
        .into_iter()
        .map(|r| r.expect("every plan point evaluated"))
        .collect();

    let failures = records.iter().filter(|r| !r.ok).count();
    SweepOutcome {
        stats: SweepStats {
            points: records.len(),
            compiled: records.len() - cache_hits,
            cache_hits,
            failures,
            seeded,
            seed_hits,
        },
        records,
    }
}

/// The seed group of a point: its workload, mapper and design point with
/// configuration depth and communication bandwidth erased
/// ([`plaid_arch::CommSpec::structural_family`] keeps the topology, since a
/// torus fabric's links differ from a mesh's and their mappings never
/// transfer). A group holds exactly the points a capacity-certified seed can
/// hope to transfer across; all three legacy presets share one.
fn seed_group(point: &SweepPoint) -> (&str, DesignPoint, MapperChoice) {
    let design = DesignPoint {
        config_entries: 0,
        comm: point.design.comm.structural_family(),
        ..point.design
    };
    (&point.workload.name, design, point.mapper)
}

/// Groups plan indices by [`seed_group`] for a warm-started sweep,
/// ordered by first appearance so the grouping is deterministic. Within a
/// group: ascending depth (the cheap shallow ladder is a prefix of every
/// deeper one), then the canonical communication scheduling order
/// ([`plaid_arch::CommSpec::order_rank`]): the as-published aligned network
/// first within a depth — its certificate transfers to both the lean and
/// rich variants when capacity never binds — then the remaining presets,
/// then structured specs by topology and bandwidth. This is the single
/// grouping used by [`run_sweep_with`] (and pinned by the stable-grouping
/// test).
fn group_points_for_seeding(plan: &SweepPlan) -> Vec<Vec<usize>> {
    let mut group_of = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, point) in plan.points.iter().enumerate() {
        let g = *group_of.entry(seed_group(point)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    for group in &mut groups {
        group.sort_by_key(|&i| {
            let d = &plan.points[i].design;
            (d.config_entries, d.comm.order_rank(), i)
        });
    }
    groups
}

/// The records of one seed group, in group order, and the group's share of
/// the cache and seeding counters.
struct GroupOutcome {
    records: Vec<EvalRecord>,
    cache_hits: usize,
    seeded: usize,
    seed_hits: usize,
}

/// Evaluates one seed group in order, consulting (and populating) the cache.
///
/// The loop owns the group's hint: the placement seed of every success,
/// fresh or cached, and the infeasibility proof of every fresh failure.
/// Cached failures add no proof: a proof is trusted without re-validation,
/// and a cache persisted by an older mapper could otherwise floor points the
/// current mapper maps. Cached seeds are safe, because the mapper
/// re-validates a seed on the target fabric before replaying it.
fn evaluate_group<'a>(
    group: impl ExactSizeIterator<Item = &'a SweepPoint>,
    cache: &ResultCache,
) -> GroupOutcome {
    let mut seeds: Vec<PlacementSeed> = Vec::new();
    let mut proofs: Vec<InfeasiblePrefix> = Vec::new();
    let mut outcome = GroupOutcome {
        records: Vec::with_capacity(group.len()),
        cache_hits: 0,
        seeded: 0,
        seed_hits: 0,
    };
    for point in group {
        let record = match cache.lookup(point) {
            Some(record) => {
                outcome.cache_hits += 1;
                record
            }
            None => {
                let arch = point.design.build();
                let hint = MapSeed {
                    seeds: &seeds,
                    proofs: &proofs,
                };
                let compiled =
                    compile_workload_on_seeded(&point.workload, &arch, point.mapper, Some(&hint));
                let (record, used) = match compiled {
                    Ok(compiled) => (
                        EvalRecord::succeeded(point, compiled.summary()),
                        compiled.seed_outcome,
                    ),
                    Err(e) => {
                        // Only a failed ladder reports a proof and how it used
                        // the hint; other errors count as unhinted.
                        let used = match &e {
                            PipelineError::Mapping(MapError::NoValidMapping {
                                proof,
                                outcome,
                                ..
                            }) => {
                                proofs.push(*proof);
                                *outcome
                            }
                            _ => SeedOutcome::Scratch,
                        };
                        (EvalRecord::failed(point, e.to_string()), used)
                    }
                };
                outcome.seeded += usize::from(used.hinted());
                outcome.seed_hits += usize::from(used.hit());
                cache.insert(record.clone());
                record
            }
        };
        seeds.extend(record.summary.as_ref().and_then(|s| s.seed.clone()));
        outcome.records.push(record);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{BwClass, CommSpec, Topology};
    use plaid_workloads::find_workload;

    fn tiny_plan() -> SweepPlan {
        let spec = SpaceSpec {
            classes: vec![ArchClass::Plaid],
            dims: vec![(2, 2)],
            config_entries: vec![16],
            comm_specs: vec![CommSpec::ALIGNED, CommSpec::RICH],
        };
        SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec)
    }

    #[test]
    fn plan_is_the_cross_product_with_class_default_mappers() {
        let plan = tiny_plan();
        assert_eq!(plan.len(), 2);
        assert!(plan.points.iter().all(|p| p.mapper == MapperChoice::Plaid));
        assert_eq!(
            default_mapper_for_class(ArchClass::Spatial),
            MapperChoice::Spatial
        );
        assert_eq!(
            default_mapper_for_class(ArchClass::SpatioTemporal),
            MapperChoice::PathFinder
        );
    }

    #[test]
    fn sweep_evaluates_and_second_pass_is_fully_cached() {
        let plan = tiny_plan();
        let cache = ResultCache::new();
        let first = run_sweep(&plan, &cache);
        assert_eq!(first.stats.points, 2);
        assert_eq!(first.stats.compiled, 2);
        assert_eq!(first.stats.cache_hits, 0);
        assert!(first.records.iter().all(|r| r.ok), "dwconv maps on plaid");

        let second = run_sweep(&plan, &cache);
        assert_eq!(
            second.stats.compiled, 0,
            "no recompilation on identical sweep"
        );
        assert_eq!(second.stats.cache_hits, 2);
        assert!((second.stats.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(second.records, first.records, "cached results identical");
    }

    #[test]
    fn overlapping_sweep_only_compiles_new_points() {
        let cache = ResultCache::new();
        let _ = run_sweep(&tiny_plan(), &cache);
        // Extend the space by one comm level: only the new point compiles.
        let spec = SpaceSpec {
            classes: vec![ArchClass::Plaid],
            dims: vec![(2, 2)],
            config_entries: vec![16],
            comm_specs: CommSpec::presets(),
        };
        let bigger = SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec);
        let outcome = run_sweep(&bigger, &cache);
        assert_eq!(outcome.stats.points, 3);
        assert_eq!(outcome.stats.compiled, 1);
        assert_eq!(outcome.stats.cache_hits, 2);
    }

    #[test]
    fn cached_failures_never_floor_later_points() {
        // A cache persisted by an older mapper may hold a failure the
        // current mapper would not reproduce. Its text must not become a
        // proof: the depth-16 sibling still maps at the cold II.
        let point = |depth: u32| SweepPoint {
            workload: find_workload("dwconv").unwrap(),
            design: DesignPoint {
                class: ArchClass::SpatioTemporal,
                rows: 2,
                cols: 2,
                config_entries: depth,
                comm: CommSpec::ALIGNED,
            },
            mapper: MapperChoice::PathFinder,
        };
        let (p8, p16) = (point(8), point(16));
        let cold16 = evaluate_point(&p16, &ResultCache::new());
        assert!(cold16.ok, "dwconv maps on the 2x2 baseline");
        let cache = ResultCache::new();
        cache.insert(EvalRecord::failed(
            &p8,
            "mapping failed: no valid mapping of dwconv onto spatio-temporal-2x2 up to II=8",
        ));
        let plan = SweepPlan {
            points: vec![p8, p16],
        };
        let outcome = run_sweep_with(&plan, &cache, SeedPolicy::Exact);
        assert_eq!(outcome.stats.cache_hits, 1);
        assert_eq!((outcome.stats.seeded, outcome.stats.seed_hits), (0, 0));
        assert_eq!(outcome.records[1], cold16);
    }

    #[test]
    fn seed_group_ordering_is_stable_and_canonical() {
        // The canonical comm ordering (CommSpec::order_rank) must schedule a
        // mixed preset/structured axis deterministically: depth first, then
        // aligned before lean before rich before structured specs — and the
        // grouping must be identical across repeated plan constructions.
        let spec = SpaceSpec {
            classes: vec![ArchClass::SpatioTemporal],
            dims: vec![(2, 2)],
            config_entries: vec![16, 8],
            comm_specs: vec![
                CommSpec::uniform(Topology::Torus, BwClass::Base),
                CommSpec::RICH,
                CommSpec::LEAN,
                CommSpec::ALIGNED,
            ],
        };
        let plan = SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec);
        // Exercises the production grouping (`group_points_for_seeding`,
        // the one `run_sweep_with` schedules by), not a private re-derivation.
        let order_of = |plan: &SweepPlan| -> Vec<Vec<String>> {
            group_points_for_seeding(plan)
                .iter()
                .map(|g| g.iter().map(|&i| plan.points[i].design.label()).collect())
                .collect()
        };
        let groups = order_of(&plan);
        assert_eq!(groups, order_of(&plan), "grouping must be deterministic");
        // Torus points form their own structural family; preset points share
        // one, scheduled depth-major then aligned/lean/rich.
        assert_eq!(groups.len(), 2);
        let preset_group: &Vec<String> = groups
            .iter()
            .find(|g| g.iter().any(|l| l.ends_with("/aligned")))
            .unwrap();
        let expected: Vec<String> = [
            "d8/aligned",
            "d8/lean",
            "d8/rich",
            "d16/aligned",
            "d16/lean",
            "d16/rich",
        ]
        .iter()
        .map(|s| format!("spatio-temporal-2x2/{s}"))
        .collect();
        assert_eq!(preset_group, &expected);
        let torus_group: &Vec<String> = groups
            .iter()
            .find(|g| g.iter().any(|l| l.contains("torus")))
            .unwrap();
        assert_eq!(
            torus_group,
            &vec![
                "spatio-temporal-2x2/d8/torus".to_string(),
                "spatio-temporal-2x2/d16/torus".to_string(),
            ]
        );
    }
}

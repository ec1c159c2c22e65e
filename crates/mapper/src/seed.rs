//! Placement seeds and the II-ladder driver shared by every modulo mapper.
//!
//! A [`PlacementSeed`] captures the full solution of one successful mapping —
//! placements, routes and the achieved II — together with a *fabric
//! signature*: a content hash of everything in the architecture that the
//! mapping search can observe (resources, capabilities, switch capacities,
//! links, latencies, clusters). Crucially the signature excludes
//! configuration-memory depth, which bounds the II ladder but never changes
//! the routing structure, so design points that differ only in depth share a
//! signature.
//!
//! Seeds are only ever reused when reuse provably preserves the result:
//!
//! * **Exact replay** — when the seed's signature, mapper and options match
//!   the target and every per-II attempt is a pure function of
//!   `(dfg, fabric, ii)` (see `attempt_rng`), the target's ladder provably
//!   reproduces the seed's result. The seed is re-validated on the target
//!   fabric and returned directly; sweep results are bit-identical to a cold
//!   run. A capacity certificate extends the same guarantee to fabrics that
//!   differ only in switch capacities.
//! * **Infeasible prefix** — an [`InfeasiblePrefix`] transfers the
//!   complementary fact: a ladder that failed through II `k` on the same
//!   fabric structure proves every `ii <= k` infeasible, so a deeper
//!   configuration memory can start its ladder at `k + 1`.
//!
//! Both are applied by `map_ladder`, the one II ladder every modulo mapper
//! runs (SA, PathFinder and Plaid differ only in their per-II attempt).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use plaid_arch::{Architecture, ResourceId, ResourceKind};
use plaid_dfg::{Dfg, EdgeId, NodeId};

use crate::error::MapError;
use crate::mapping::{Mapping, Placement, Route, RouteHop};
use crate::mii::mii;
use crate::placement::{LadderShared, MapState};
use crate::state::CapacityCert;

/// FNV-1a over a stream of words (stable across platforms and runs).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Content hash of everything the mapping search can observe about a fabric:
/// execution class, resources (kind, capabilities, switch capacity, tile),
/// links (endpoints, latency) and clusters. Parameters that only feed the
/// cost model — configuration depth, bit budgets — are deliberately
/// excluded, so design points differing only in configuration-memory depth
/// share a signature and can exchange mapping results soundly.
pub fn fabric_signature(arch: &Architecture) -> u64 {
    signature(arch, true)
}

/// Like [`fabric_signature`], but with switch capacities erased: two fabrics
/// share a no-capacity signature when they are identical up to communication
/// provisioning (switch capacities). Together with a
/// [`crate::state::CapacityCert`], this is what makes mapping results
/// transferable across communication levels.
pub fn fabric_signature_nocap(arch: &Architecture) -> u64 {
    signature(arch, false)
}

/// Content hash of the DFG a seed or infeasibility proof was derived on:
/// node operations (with immediates) and edge topology. A mapping result or
/// ladder proof is only meaningful for the exact graph it was computed on,
/// so the ladder driver ignores hints whose DFG fingerprint does not match
/// the graph being mapped — a caller passing a hint captured from a
/// different workload gets a scratch run, never a spurious fast-fail.
pub fn dfg_fingerprint(dfg: &Dfg) -> u64 {
    let mut h = Fnv::new();
    h.word(dfg.node_count() as u64);
    h.word(dfg.edge_count() as u64);
    for node in dfg.nodes() {
        h.word(u64::from(node.id.0));
        h.bytes(format!("{:?}", node.op).as_bytes());
        match node.immediate {
            Some(imm) => {
                h.word(1);
                h.word(imm as u64);
            }
            None => h.word(0),
        }
    }
    for edge in dfg.edges() {
        h.word(u64::from(edge.id.0));
        h.word(u64::from(edge.src.0));
        h.word(u64::from(edge.dst.0));
        h.bytes(format!("{:?}/{:?}", edge.operand, edge.kind).as_bytes());
    }
    h.0
}

fn signature(arch: &Architecture, with_capacities: bool) -> u64 {
    let mut h = Fnv::new();
    h.bytes(arch.class().label().as_bytes());
    for r in arch.resources() {
        h.word(u64::from(r.id.0));
        h.word(r.tile as u64);
        match r.kind {
            ResourceKind::FuncUnit(caps) => {
                h.word(1);
                h.word(u64::from(caps.compute));
                h.word(u64::from(caps.memory));
            }
            ResourceKind::Switch { capacity } => {
                h.word(2);
                h.word(if with_capacities {
                    u64::from(capacity)
                } else {
                    0
                });
            }
        }
    }
    for l in arch.links() {
        h.word(u64::from(l.from.0));
        h.word(u64::from(l.to.0));
        h.word(u64::from(l.latency));
    }
    for c in arch.clusters() {
        h.word(c.tile as u64);
        for &fu in &c.alus {
            h.word(u64::from(fu.0));
        }
        h.word(c.local_router.map(|r| u64::from(r.0) + 1).unwrap_or(0));
    }
    h.0
}

/// One seeded node placement (IDs are raw `u32`s so the seed serializes with
/// no dependency on the DFG/arch types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedPlacement {
    /// DFG node id.
    pub node: u32,
    /// Functional-unit resource id on the source fabric.
    pub fu: u32,
    /// Absolute schedule cycle.
    pub cycle: u32,
}

/// One hop of a seeded route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedHop {
    /// Switch resource id on the source fabric.
    pub resource: u32,
    /// Absolute cycle the value occupies the switch.
    pub cycle: u32,
}

/// The seeded route of one data-carrying edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedRoute {
    /// DFG edge id.
    pub edge: u32,
    /// Intermediate hops in traversal order.
    pub hops: Vec<SeedHop>,
}

/// A serializable snapshot of one successful mapping, reusable by related
/// design points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementSeed {
    /// Name of the mapper that produced the mapping (`Mapper::name`).
    pub mapper: String,
    /// Fingerprint of the mapper options the mapping was produced under.
    pub options: u64,
    /// Fingerprint of the DFG the mapping places (see [`dfg_fingerprint`]).
    pub dfg: u64,
    /// Fabric signature of the source architecture.
    pub fabric: u64,
    /// Achieved initiation interval.
    pub ii: u32,
    /// Whether the mapping is the canonical (scratch-equivalent) result for
    /// its design point. Only canonical seeds are eligible for exact replay.
    /// Every seed this build captures is canonical; persisted caches written
    /// by older builds can still hold non-canonical ones.
    pub canonical: bool,
    /// Fabric signature with switch capacities erased (see
    /// [`fabric_signature_nocap`]).
    pub fabric_nocap: u64,
    /// Per-resource minimum switch capacities under which the ladder run
    /// that produced this seed reproduces bit-for-bit (empty when the run is
    /// not capacity-transferable; see `map_ladder`).
    pub cap_need: Vec<u32>,
    /// Per-resource maximum switch capacities for the same guarantee
    /// (`u32::MAX` when no query was ever refused at that resource).
    pub cap_ceil: Vec<u32>,
    /// Node placements, sorted by node id.
    pub placements: Vec<SeedPlacement>,
    /// Edge routes, sorted by edge id.
    pub routes: Vec<SeedRoute>,
}

impl PlacementSeed {
    /// Captures the canonical seed of a finished mapping on the architecture
    /// it was produced for. With a capacity certificate of the ladder run
    /// that produced the mapping, the seed also transfers to fabrics that
    /// differ only in switch capacities within the certified bounds; without
    /// one it replays only on fabrics with an identical full signature.
    pub fn capture(
        dfg: &Dfg,
        mapping: &Mapping,
        arch: &Architecture,
        options: u64,
        cert: Option<&CapacityCert>,
    ) -> Self {
        let mut placements: Vec<SeedPlacement> = mapping
            .placements
            .iter()
            .map(|(&node, p)| SeedPlacement {
                node: node.0,
                fu: p.fu.0,
                cycle: p.cycle,
            })
            .collect();
        placements.sort_by_key(|p| p.node);
        let mut routes: Vec<SeedRoute> = mapping
            .routes
            .iter()
            .map(|(&edge, route)| SeedRoute {
                edge: edge.0,
                hops: route
                    .hops
                    .iter()
                    .map(|h| SeedHop {
                        resource: h.resource.0,
                        cycle: h.cycle,
                    })
                    .collect(),
            })
            .collect();
        routes.sort_by_key(|r| r.edge);
        PlacementSeed {
            mapper: mapping.mapper_name.clone(),
            options,
            dfg: dfg_fingerprint(dfg),
            fabric: fabric_signature(arch),
            ii: mapping.ii,
            canonical: true,
            fabric_nocap: fabric_signature_nocap(arch),
            cap_need: cert.map(|c| c.need()).unwrap_or_default(),
            cap_ceil: cert.map(|c| c.ceil()).unwrap_or_default(),
            placements,
            routes,
        }
    }

    /// Whether the ladder run behind this seed provably reproduces on a
    /// fabric with no-capacity signature `nocap` and the given per-resource
    /// capacities: either the full signature matches outright, or every
    /// capacity lies inside the certified `[need, ceil]` window.
    pub fn transfers_to(&self, fabric: u64, nocap: u64, capacities: &[u32]) -> bool {
        if self.fabric == fabric {
            return true;
        }
        self.fabric_nocap == nocap
            && !self.cap_need.is_empty()
            && self.cap_need.len() == capacities.len()
            && self.cap_ceil.len() == capacities.len()
            && capacities
                .iter()
                .zip(self.cap_need.iter().zip(&self.cap_ceil))
                .all(|(&cap, (&need, &ceil))| need <= cap && cap <= ceil)
    }

    /// Reconstructs the seed as a [`Mapping`] on `arch` and validates it
    /// against `dfg`. Returns `None` when the seed does not describe a legal
    /// mapping of this DFG on this fabric (corruption, workload mismatch).
    pub fn replay(&self, dfg: &Dfg, arch: &Architecture) -> Option<Mapping> {
        if self.ii == 0 {
            return None;
        }
        let mapping = Mapping {
            arch_name: arch.name().to_string(),
            mapper_name: self.mapper.clone(),
            ii: self.ii,
            placements: self
                .placements
                .iter()
                .map(|p| {
                    (
                        NodeId(p.node),
                        Placement {
                            fu: ResourceId(p.fu),
                            cycle: p.cycle,
                        },
                    )
                })
                .collect(),
            routes: self
                .routes
                .iter()
                .map(|r| {
                    (
                        EdgeId(r.edge),
                        Route {
                            hops: r
                                .hops
                                .iter()
                                .map(|h| RouteHop {
                                    resource: ResourceId(h.resource),
                                    cycle: h.cycle,
                                })
                                .collect(),
                        },
                    )
                })
                .collect(),
        };
        // Ids must exist before `validate` may index into the DFG/arch.
        let node_ok = self
            .placements
            .iter()
            .all(|p| p.node < dfg.node_count() as u32);
        let res_ok = self
            .placements
            .iter()
            .all(|p| (p.fu as usize) < arch.resources().len())
            && self
                .routes
                .iter()
                .flat_map(|r| r.hops.iter())
                .all(|h| (h.resource as usize) < arch.resources().len());
        let edge_ok = self
            .routes
            .iter()
            .all(|r| (r.edge as usize) < dfg.edge_count());
        if !(node_ok && res_ok && edge_ok) {
            return None;
        }
        mapping.validate(dfg, arch).ok().map(|()| mapping)
    }
}

/// A proof that every II up to `through_ii` is infeasible for one DFG on one
/// fabric structure. A failed ladder returns it inside
/// [`MapError::NoValidMapping`]; a later ladder on a fabric with the same
/// signature (a deeper configuration memory) starts above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InfeasiblePrefix {
    /// Fingerprint of the DFG the failure was proved on (see
    /// [`dfg_fingerprint`]).
    pub dfg: u64,
    /// Fabric signature the failure was proved on.
    pub fabric: u64,
    /// Highest II proved infeasible.
    pub through_ii: u32,
}

/// The seeding hint threaded through `compile_workload_on` into the
/// mappers: what earlier design points left behind, the placement seeds of
/// their successes and the infeasibility proofs of their failures. The
/// ladder uses a candidate only when it provably preserves the result and
/// ignores the rest, so any list is safe to pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapSeed<'a> {
    /// Placement seeds; the first that provably replays on the target is
    /// used.
    pub seeds: &'a [PlacementSeed],
    /// Infeasibility proofs; the highest anchored to the target's DFG and
    /// fabric raises the ladder's start.
    pub proofs: &'a [InfeasiblePrefix],
}

/// How a hint shaped one ladder run. The mapper reports it on success and
/// inside [`MapError::NoValidMapping`] alike, and never in any `Display`
/// text, so it stays out of stored records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedOutcome {
    /// No hint candidate matched; the full ladder ran from scratch.
    Scratch,
    /// A candidate matched the DFG and fabric but decided nothing (a proof
    /// below the lower bound, or a seed that failed re-validation); the
    /// full ladder ran.
    Unused,
    /// The ladder start was raised past a proven-infeasible prefix.
    Floored,
    /// The seed re-validated on the target fabric and was returned directly.
    Replayed,
    /// The hint proved that no II within the bound maps; no attempt ran.
    FastFailed,
}

impl SeedOutcome {
    /// Whether some hint candidate matched the DFG and fabric.
    pub fn hinted(self) -> bool {
        self != SeedOutcome::Scratch
    }

    /// Whether the hint decided the result and so skipped work: a replay, a
    /// floored ladder or a fast-fail.
    pub fn hit(self) -> bool {
        matches!(
            self,
            SeedOutcome::Floored | SeedOutcome::Replayed | SeedOutcome::FastFailed
        )
    }
}

/// A mapping plus the provenance of how seeding contributed to it.
#[derive(Debug, Clone)]
pub struct SeededMapping {
    /// The produced mapping.
    pub mapping: Mapping,
    /// How the seed was used.
    pub outcome: SeedOutcome,
    /// Snapshot of `mapping` for seeding neighbouring design points.
    pub seed: PlacementSeed,
}

/// Derives the RNG of one II attempt. Each attempt gets an independent
/// stream that depends only on `(seed, ii)`, making every attempt a pure
/// function of `(dfg, fabric, ii)` — the property that lets the ladder
/// driver skip or replay ladder prefixes without changing results.
pub(crate) fn attempt_rng(seed: u64, ii: u32) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (u64::from(ii) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The mapper running a ladder, as `map_ladder` needs to know it.
pub(crate) struct LadderMapper<'o> {
    /// `Mapper::name`, stamped on the mapping and its seed.
    pub name: &'static str,
    /// The mapper's options; seeds replay only under identical options.
    pub options: &'o dyn std::fmt::Debug,
    /// Optional II cap (defaults to the configuration-memory depth).
    pub max_ii: Option<u32>,
    /// Whether the mapper's seeds carry the ladder's capacity certificate.
    pub certified: bool,
}

/// Runs the modulo-scheduling II ladder of one mapper: tries `attempt` at
/// every II from the lower bound `mii` up to `max_ii` and returns the first
/// success, validated, with its seed.
///
/// A hint is applied first (see `plan_ladder`). A canonical seed of the
/// same DFG, mapper and options whose run provably reproduces on this fabric
/// is replayed instead of searching; an infeasibility proof for this exact
/// fabric raises the ladder's start. Both reproduce a cold run bit-for-bit
/// because each attempt is a pure function of `(dfg, fabric, ii)`.
///
/// Seed certificates follow one policy:
///
/// * a scratch result of a `certified` mapper carries the ladder's capacity
///   certificate (`cap_need`/`cap_ceil`, one entry per resource), so it may
///   replay on fabrics that differ only in switch capacities;
/// * a floored result carries none: the certificate does not cover the
///   skipped prefix, which was proved on this fabric only;
/// * a replayed result inherits its source's certificate, which still
///   proves the source ladder's decisions inside the same bounds.
///
/// PathFinder is uncertified: its `NegotiatedCost` policy reads switch
/// capacities outside `RoutingState::fits`, the only place the certificate
/// records capacity decisions, so its runs may depend on capacities the
/// certificate never saw.
///
/// # Errors
///
/// [`MapError::UnsupportedDfg`] when the DFG needs memory units the fabric
/// lacks, [`MapError::NoValidMapping`] (carrying the proof that every II up
/// to `max_ii` fails here) when no II maps, and any validation error of the
/// produced mapping.
pub(crate) fn map_ladder<'a>(
    dfg: &'a Dfg,
    arch: &'a Architecture,
    hint: Option<&MapSeed>,
    mapper: LadderMapper<'_>,
    mut attempt: impl FnMut(u32, &LadderShared) -> Option<MapState<'a>>,
) -> Result<SeededMapping, MapError> {
    if dfg.memory_node_count() > 0 && arch.memory_unit_count() == 0 {
        return Err(MapError::UnsupportedDfg(
            "DFG contains memory operations but the architecture has no memory-capable unit".into(),
        ));
    }
    let ctx = SeedContext::of(dfg, arch);
    let options = options_fingerprint(mapper.options);
    let lower = mii(dfg, arch);
    let max_ii = mapper.max_ii.unwrap_or(arch.params().max_ii());
    let infeasible = |outcome| MapError::NoValidMapping {
        kernel: dfg.name().to_string(),
        arch: arch.name().to_string(),
        max_ii,
        proof: InfeasiblePrefix {
            dfg: ctx.dfg,
            fabric: ctx.fabric,
            through_ii: max_ii,
        },
        outcome,
    };
    let (start, outcome) = match plan_ladder(hint, &ctx, mapper.name, options, lower, max_ii) {
        LadderPlan::Infeasible => return Err(infeasible(SeedOutcome::FastFailed)),
        LadderPlan::Replay(source) => {
            if let Some(mapping) = source.replay(dfg, arch) {
                let mut seed = PlacementSeed::capture(dfg, &mapping, arch, options, None);
                seed.cap_need.clone_from(&source.cap_need);
                seed.cap_ceil.clone_from(&source.cap_ceil);
                return Ok(SeededMapping {
                    mapping,
                    outcome: SeedOutcome::Replayed,
                    seed,
                });
            }
            // Corrupt or mismatched seed: the scratch ladder is always sound.
            (lower, SeedOutcome::Unused)
        }
        LadderPlan::Ladder { start, outcome } => (start, outcome),
    };
    // The capacity certificate accumulates across the entire ladder (all II
    // attempts, including failed ones); the adjacency index likewise serves
    // every attempt.
    let shared = LadderShared::of(dfg, arch);
    for ii in start..=max_ii {
        if let Some(state) = attempt(ii, &shared) {
            let mapping = state.into_mapping(mapper.name);
            mapping.validate(dfg, arch)?;
            let cert = if outcome == SeedOutcome::Floored {
                None
            } else {
                mapper.certified.then_some(&*shared.cert)
            };
            return Ok(SeededMapping {
                seed: PlacementSeed::capture(dfg, &mapping, arch, options, cert),
                mapping,
                outcome,
            });
        }
    }
    Err(infeasible(outcome))
}

/// The ladder decision derived from a hint before any II attempt runs.
#[derive(Debug)]
enum LadderPlan<'a> {
    /// The hint proves no II within `max_ii` can succeed.
    Infeasible,
    /// The seed replays exactly; no search needed.
    Replay(&'a PlacementSeed),
    /// Run the ladder from `start` (>= mii); `outcome` is
    /// [`SeedOutcome::Floored`] when a proven prefix raised it.
    Ladder { start: u32, outcome: SeedOutcome },
}

/// Everything about the target fabric a ladder plan needs to decide seed
/// eligibility.
#[derive(Debug)]
struct SeedContext {
    dfg: u64,
    fabric: u64,
    nocap: u64,
    capacities: Vec<u32>,
}

impl SeedContext {
    fn of(dfg: &Dfg, arch: &Architecture) -> Self {
        SeedContext {
            dfg: dfg_fingerprint(dfg),
            fabric: fabric_signature(arch),
            nocap: fabric_signature_nocap(arch),
            capacities: arch.resources().iter().map(|r| r.kind.capacity()).collect(),
        }
    }
}

/// Derives the ladder plan for a mapper from an optional hint.
///
/// Soundness: every candidate must carry the DFG fingerprint of the graph
/// being mapped — results and proofs do not translate across workloads, and
/// a mismatched candidate is ignored rather than trusted. `Replay` is only
/// produced for a canonical seed of the same mapper and options whose run
/// provably reproduces on the target fabric — identical full signature, or
/// identical no-capacity signature with every switch capacity inside the
/// seed's certified window. The raised ladder `start` requires an
/// infeasibility proof anchored to the target's full signature. Anything
/// weaker is ignored.
///
/// Which sound seed is replayed cannot change the result: each reproduces
/// this fabric's cold ladder, so the first one is taken. Proofs only ever
/// raise the start, so the highest one anchored here is taken.
fn plan_ladder<'a>(
    hint: Option<&MapSeed<'a>>,
    ctx: &SeedContext,
    mapper: &str,
    options: u64,
    mii: u32,
    max_ii: u32,
) -> LadderPlan<'a> {
    let Some(hint) = hint else {
        return LadderPlan::Ladder {
            start: mii,
            outcome: SeedOutcome::Scratch,
        };
    };
    let proved = hint
        .proofs
        .iter()
        .filter(|p| p.dfg == ctx.dfg && p.fabric == ctx.fabric)
        .map(|p| p.through_ii)
        .max();
    let seed = hint.seeds.iter().find(|s| {
        s.canonical
            && s.dfg == ctx.dfg
            && s.mapper == mapper
            && s.options == options
            && s.transfers_to(ctx.fabric, ctx.nocap, &ctx.capacities)
    });
    let outcome = if proved.is_some() || seed.is_some() {
        SeedOutcome::Unused
    } else {
        SeedOutcome::Scratch
    };
    let mut plan = LadderPlan::Ladder {
        start: mii,
        outcome,
    };
    if let Some(through_ii) = proved.filter(|&ii| ii >= mii) {
        if through_ii >= max_ii {
            return LadderPlan::Infeasible;
        }
        plan = LadderPlan::Ladder {
            start: through_ii + 1,
            outcome: SeedOutcome::Floored,
        };
    }
    match seed {
        Some(seed) if seed.ii <= max_ii => LadderPlan::Replay(seed),
        // A canonical transferable result above this point's II bound
        // proves the bounded ladder fails (its attempts are a prefix of the
        // ladder that produced the seed).
        Some(_) => LadderPlan::Infeasible,
        None => plan,
    }
}

/// Fingerprint of a mapper's options, via its `Debug` rendering. Stable
/// within a build, which is all replay needs: seeds produced under different
/// options must not replay for each other.
fn options_fingerprint(options: &dyn std::fmt::Debug) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{options:?}").as_bytes());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatio_temporal};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::{lower_kernel, LoweringOptions};
    use plaid_dfg::Op;

    use crate::pathfinder::{PathFinderMapper, PathFinderOptions};
    use crate::Mapper;

    fn small_dfg() -> Dfg {
        let kernel = KernelBuilder::new("axpy")
            .loop_var("i", 16)
            .array("x", 16)
            .array("y", 16)
            .store(
                "y",
                AffineExpr::var(0),
                Expr::binary(
                    Op::Add,
                    Expr::binary(Op::Mul, Expr::load("x", AffineExpr::var(0)), Expr::Const(3)),
                    Expr::load("y", AffineExpr::var(0)),
                ),
            )
            .build()
            .unwrap();
        lower_kernel(&kernel, &LoweringOptions::default()).unwrap()
    }

    /// A PathFinder seed of `small_dfg` on a 4x4 spatio-temporal fabric,
    /// captured under the default options, plus the fabric's context.
    fn pathfinder_seed() -> (Dfg, Architecture, PlacementSeed, u64) {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let options = options_fingerprint(&PathFinderOptions::default());
        let seed = PlacementSeed::capture(&dfg, &mapping, &arch, options, None);
        (dfg, arch, seed, options)
    }

    fn hint(seed: &PlacementSeed) -> MapSeed<'_> {
        MapSeed {
            seeds: std::slice::from_ref(seed),
            proofs: &[],
        }
    }

    /// Whether `plan_ladder` replays the hint's seed for `mapper`/`options`
    /// on `arch` (a plain ladder from `mii` otherwise).
    fn replays(hint: &MapSeed, arch: &Architecture, mapper: &str, options: u64) -> bool {
        let ctx = SeedContext::of(&small_dfg(), arch);
        match plan_ladder(Some(hint), &ctx, mapper, options, 2, 16) {
            LadderPlan::Replay(_) => true,
            LadderPlan::Ladder { start, outcome } => {
                assert_eq!(
                    (start, outcome),
                    (2, SeedOutcome::Scratch),
                    "a rejected seed neither floors nor counts as a match"
                );
                false
            }
            LadderPlan::Infeasible => panic!("a seed within the II bound never fast-fails"),
        }
    }

    #[test]
    fn signature_is_stable_and_structure_sensitive() {
        let a = spatio_temporal::build(4, 4);
        let b = spatio_temporal::build(4, 4);
        assert_eq!(fabric_signature(&a), fabric_signature(&b));
        let smaller = spatio_temporal::build(3, 3);
        assert_ne!(fabric_signature(&a), fabric_signature(&smaller));
        let other_class = plaid::build(2, 2);
        assert_ne!(fabric_signature(&a), fabric_signature(&other_class));
    }

    #[test]
    fn signature_ignores_configuration_depth() {
        use plaid_arch::rebuild_provisioned;
        let base = spatio_temporal::build(4, 4);
        let mut params = base.params().clone();
        params.config_entries = 4;
        let shallow = rebuild_provisioned(&base, "shallow", params, |c| c);
        assert_eq!(fabric_signature(&base), fabric_signature(&shallow));
    }

    #[test]
    fn signature_tracks_switch_capacity() {
        use plaid_arch::rebuild_provisioned;
        let base = spatio_temporal::build(4, 4);
        let richer = rebuild_provisioned(&base, "rich", base.params().clone(), |c| c + 1);
        assert_ne!(fabric_signature(&base), fabric_signature(&richer));
    }

    #[test]
    fn capture_replay_round_trip() {
        let (dfg, arch, seed, options) = pathfinder_seed();
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        assert_eq!(seed.ii, mapping.ii);
        assert!(seed.canonical);
        assert!(replays(&hint(&seed), &arch, "pathfinder", options));
        let replayed = seed.replay(&dfg, &arch).expect("seed replays");
        assert_eq!(replayed.ii, mapping.ii);
        assert_eq!(replayed.placements, mapping.placements);
        assert_eq!(replayed.routes, mapping.routes);
    }

    #[test]
    fn replay_rejects_wrong_fabric_mapper_options_and_dfg() {
        let (dfg, arch, seed, options) = pathfinder_seed();
        let other = spatio_temporal::build(3, 3);
        let hint = hint(&seed);
        assert!(!replays(&hint, &other, "pathfinder", options));
        assert!(!replays(&hint, &arch, "sa", options));
        assert!(!replays(&hint, &arch, "pathfinder", options ^ 1));
        let mut foreign_dfg = seed.clone();
        foreign_dfg.dfg ^= 1;
        assert!(!replays(
            &self::hint(&foreign_dfg),
            &arch,
            "pathfinder",
            options
        ));
        // Validation also refuses to materialize the seed on the wrong
        // fabric (resource ids out of range or links missing).
        assert!(seed.replay(&dfg, &other).is_none());
    }

    #[test]
    fn non_canonical_seeds_never_replay() {
        let (_, arch, mut seed, options) = pathfinder_seed();
        seed.canonical = false;
        assert!(!replays(&hint(&seed), &arch, "pathfinder", options));
    }

    #[test]
    fn ladder_plan_floors_and_fast_fails() {
        let ctx = |fabric: u64| SeedContext {
            dfg: 7,
            fabric,
            nocap: 0,
            capacities: Vec::new(),
        };
        let fabric = 42u64;
        let proofs = [InfeasiblePrefix {
            dfg: 7,
            fabric,
            through_ii: 8,
        }];
        let hint = MapSeed {
            seeds: &[],
            proofs: &proofs,
        };
        let ladder = |plan: LadderPlan| match plan {
            LadderPlan::Ladder { start, outcome } => (start, outcome),
            other => panic!("expected a ladder, got {other:?}"),
        };
        assert_eq!(
            ladder(plan_ladder(Some(&hint), &ctx(fabric), "sa", 0, 2, 16)),
            (9, SeedOutcome::Floored)
        );
        assert!(matches!(
            plan_ladder(Some(&hint), &ctx(fabric), "sa", 0, 2, 8),
            LadderPlan::Infeasible
        ));
        // A proof below the lower bound matches but decides nothing.
        assert_eq!(
            ladder(plan_ladder(Some(&hint), &ctx(fabric), "sa", 0, 12, 16)),
            (12, SeedOutcome::Unused)
        );
        // A prefix proved on a different fabric is ignored.
        assert_eq!(
            ladder(plan_ladder(Some(&hint), &ctx(fabric + 1), "sa", 0, 2, 8)),
            (2, SeedOutcome::Scratch)
        );
        // A prefix proved on a different DFG is ignored too: proofs do not
        // translate across workloads, even on the same fabric.
        let other_dfg = SeedContext {
            dfg: 8,
            fabric,
            nocap: 0,
            capacities: Vec::new(),
        };
        assert_eq!(
            ladder(plan_ladder(Some(&hint), &other_dfg, "sa", 0, 2, 8)),
            (2, SeedOutcome::Scratch)
        );
    }

    #[test]
    fn ladder_plan_takes_the_highest_anchored_proof_and_the_first_sound_seed() {
        let (_, arch, seed, options) = pathfinder_seed();
        let ctx = SeedContext::of(&small_dfg(), &arch);
        let proof = |fabric: u64, through_ii: u32| InfeasiblePrefix {
            dfg: ctx.dfg,
            fabric,
            through_ii,
        };
        let proofs = [
            proof(ctx.fabric, 3),
            proof(ctx.fabric ^ 1, 9),
            proof(ctx.fabric, 5),
        ];
        let floors = MapSeed {
            seeds: &[],
            proofs: &proofs,
        };
        match plan_ladder(Some(&floors), &ctx, "pathfinder", options, 2, 16) {
            LadderPlan::Ladder { start, outcome } => {
                assert_eq!((start, outcome), (6, SeedOutcome::Floored));
            }
            other => panic!("expected a floored ladder, got {other:?}"),
        }
        // A non-canonical seed ahead of a sound one does not shadow it.
        let legacy = PlacementSeed {
            canonical: false,
            ii: seed.ii + 1,
            ..seed.clone()
        };
        let seeds = [legacy, seed.clone()];
        let both = MapSeed {
            seeds: &seeds,
            proofs: &[],
        };
        match plan_ladder(Some(&both), &ctx, "pathfinder", options, 2, 16) {
            LadderPlan::Replay(chosen) => assert_eq!(chosen, &seed),
            other => panic!("expected a replay, got {other:?}"),
        }
    }

    #[test]
    fn capacity_certificates_gate_cross_capacity_transfer() {
        let (dfg, arch, bare, _) = pathfinder_seed();
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let n = arch.resources().len();
        let cert = CapacityCert::new(n);
        let seed = PlacementSeed::capture(&dfg, &mapping, &arch, 1, Some(&cert));
        let nocap = fabric_signature_nocap(&arch);
        // Same full signature always transfers.
        assert!(seed.transfers_to(fabric_signature(&arch), nocap, &vec![4; n]));
        // Untouched cert (need 0, ceil MAX): every capacity vector of the
        // right length inside the window transfers.
        assert!(seed.transfers_to(0, nocap, &vec![1; n]));
        // Wrong no-capacity signature never transfers.
        assert!(!seed.transfers_to(0, nocap ^ 1, &vec![1; n]));
        // A seed without a certificate only transfers on exact signature.
        assert!(bare.transfers_to(fabric_signature(&arch), nocap, &vec![4; n]));
        assert!(!bare.transfers_to(0, nocap, &vec![4; n]));
    }

    #[test]
    fn seed_json_round_trip() {
        let (_, _, seed, _) = pathfinder_seed();
        let json = serde_json::to_string(&seed).unwrap();
        let back: PlacementSeed = serde_json::from_str(&json).unwrap();
        assert_eq!(back, seed);
    }
}

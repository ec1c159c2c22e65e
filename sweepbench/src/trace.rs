//! Outside-in tracing: spans recorded around calls into each layer, kept in
//! memory and written as JSON lines when the run ends, plus the traced
//! per-point recomposition of the sweep pipeline.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use plaid::pipeline::{CompileSummary, MapperChoice, PipelineError};
use plaid_arch::Architecture;
use plaid_dfg::Dfg;
use plaid_explore::{EvalRecord, SweepPoint};
use plaid_mapper::{
    mii, MapError, Mapping, PathFinderMapper, PlaidMapper, SaMapper, SeededMapping, SpatialMapper,
};
use plaid_motif::{coverage, identify_motifs, IdentifyOptions};
use plaid_sim::config::generate_config;
use plaid_sim::cost::CostModel;
use plaid_sim::metrics::EvalMetrics;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `mapper.plaid`.
    pub name: &'static str,
    /// Plan index of the sweep point the span belongs to.
    pub point: Option<usize>,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            point,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, point);
        let result = f();
        self.close(id);
        result
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span. `labels[i]` names plan point `i`.
    pub fn write_jsonl(&self, path: &Path, labels: &[String]) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let label = s
                .point
                .map_or("null".to_string(), |p| format!("\"{}\"", labels[p]));
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"point\":{},\"label\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.point),
                label,
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Span name of a mapper call.
pub fn mapper_span(mapper: MapperChoice) -> &'static str {
    match mapper {
        MapperChoice::Plaid => "mapper.plaid",
        MapperChoice::PathFinder => "mapper.pathfinder",
        MapperChoice::Spatial => "mapper.spatial",
        MapperChoice::Sa => "mapper.sa",
    }
}

/// What the traced recomposition of one point produced.
pub struct TracedPoint {
    /// The record `evaluate_point` would have produced.
    pub record: EvalRecord,
    /// The lowered graph, fabric and modulo mapping, for functional
    /// verification (absent for spatial schedules and failures).
    pub mapped: Option<(Dfg, Architecture, Mapping)>,
    /// II attempts of the ladder: `mii` up to the achieved II, or up to
    /// `max_ii` when no II maps.
    pub ii_attempts: u64,
}

/// Recomposes `compile_workload_on_seeded` (cold, no hint) for one point
/// from the public stage functions, in the order the pipeline calls them,
/// with one span per call under a `point` span.
pub fn recompose(
    tracer: &mut Tracer,
    parent: usize,
    index: usize,
    point: &SweepPoint,
) -> TracedPoint {
    let at = Some(index);
    let root = tracer.open("point", Some(parent), at);
    let within = Some(root);
    let result = recompose_stages(tracer, within, at, point);
    tracer.close(root);
    let (record, mapped, ii_attempts) = match result {
        Ok((summary, mapped, ii_attempts)) => {
            (EvalRecord::succeeded(point, summary), mapped, ii_attempts)
        }
        Err((e, ii_attempts)) => (EvalRecord::failed(point, e.to_string()), None, ii_attempts),
    };
    TracedPoint {
        record,
        mapped,
        ii_attempts,
    }
}

type Stages =
    Result<(CompileSummary, Option<(Dfg, Architecture, Mapping)>, u64), (PipelineError, u64)>;

fn recompose_stages(
    tracer: &mut Tracer,
    within: Option<usize>,
    at: Option<usize>,
    point: &SweepPoint,
) -> Stages {
    let model = CostModel::default();
    let workload = &point.workload;
    let arch = tracer.span("arch.build", within, at, || point.design.build());
    let dfg = tracer
        .span("dfg.lower", within, at, || workload.lower())
        .map_err(|e| (PipelineError::Lowering(e), 0))?;
    let stats = tracer.span("motif.identify", within, at, || {
        coverage(&dfg, &identify_motifs(&dfg, &IdentifyOptions::default()))
    });
    let start_ii = tracer.span("mapper.mii", within, at, || mii(&dfg, &arch));
    let iterations = dfg.total_iterations();
    let label = point.mapper.label();
    let name = mapper_span(point.mapper);

    if point.mapper == MapperChoice::Spatial {
        let schedule = tracer
            .span(name, within, at, || {
                SpatialMapper::default().map_spatial(&dfg, &arch)
            })
            .map_err(|e| (PipelineError::Mapping(e), 0))?;
        let ii = schedule.partitions.iter().map(|p| p.ii).max().unwrap_or(1);
        let cycles = schedule.total_cycles(iterations);
        let metrics = tracer.span("sim.cost", within, at, || {
            EvalMetrics::from_cycles(workload.name.clone(), label, &arch, &model, ii, cycles)
        });
        let summary = CompileSummary {
            name: workload.name.clone(),
            coverage: stats,
            metrics,
            seed: None,
        };
        return Ok((summary, None, 0));
    }

    let mapped: Result<SeededMapping, MapError> =
        tracer.span(name, within, at, || match point.mapper {
            MapperChoice::Sa => SaMapper::default().map_with_seed(&dfg, &arch, None),
            MapperChoice::PathFinder => {
                PathFinderMapper::default().map_with_seed(&dfg, &arch, None)
            }
            MapperChoice::Plaid => PlaidMapper::default().map_with_seed(&dfg, &arch, None),
            MapperChoice::Spatial => unreachable!("handled above"),
        });
    let SeededMapping { mapping, seed, .. } = match mapped {
        Ok(m) => m,
        Err(e) => {
            let attempts = match &e {
                MapError::NoValidMapping { max_ii, .. } if *max_ii >= start_ii => {
                    u64::from(max_ii - start_ii + 1)
                }
                _ => 0,
            };
            return Err((PipelineError::Mapping(e), attempts));
        }
    };
    let attempts = u64::from(mapping.ii.saturating_sub(start_ii) + 1);
    let config = tracer.span("sim.config", within, at, || {
        generate_config(&dfg, &arch, &mapping)
    });
    if let Err(e) = config {
        return Err((PipelineError::Config(e), attempts));
    }
    let cycles = mapping.total_cycles(iterations);
    let metrics = tracer.span("sim.cost", within, at, || {
        EvalMetrics::from_cycles(
            workload.name.clone(),
            label,
            &arch,
            &model,
            mapping.ii,
            cycles,
        )
    });
    let summary = CompileSummary {
        name: workload.name.clone(),
        coverage: stats,
        metrics,
        seed: Some(seed),
    };
    Ok((summary, Some((dfg, arch, mapping)), attempts))
}

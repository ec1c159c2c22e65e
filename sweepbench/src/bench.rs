//! One benchmark run: set-up, timed sweep passes, the optional traced
//! recomposition, the correctness checks and the metrics they yield.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use plaid::pipeline::MapperChoice;
use plaid_dfg::interp::MemoryImage;
use plaid_explore::{
    run_sweep_with, shard_of, EvalRecord, FrontierReport, ResultCache, SeedPolicy, SweepOutcome,
    SweepPlan,
};
use plaid_sim::engine::execute_mapping;

use crate::measure::{cpu_seconds, median, peak_rss_mb, quantile};
use crate::plan::{fnv1a, BenchSpec};
use crate::trace::{mapper_span, recompose, Tracer};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("arch.build_s", "s"),
    ("dfg.lower_s", "s"),
    ("motif.identify_s", "s"),
    ("sim.config_s", "s"),
    ("sim.cost_s", "s"),
    ("mapper.mii_s", "s"),
    ("mapper.plaid_s", "s"),
    ("mapper.plaid_infeasible_s", "s"),
    ("mapper.pathfinder_s", "s"),
    ("mapper.pathfinder_infeasible_s", "s"),
    ("mapper.spatial_s", "s"),
    ("mapper.ii_attempts", "count"),
    ("points.infeasible", "count"),
    ("point.p50_ms", "ms"),
    ("point.p95_ms", "ms"),
    ("point.max_ms", "ms"),
    ("point.top10_share", "ratio"),
    ("sweep.serial_work_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("seed.hints", "count"),
    ("seed.hits", "count"),
    ("warm_s", "s"),
    ("cache.save_s", "s"),
    ("cache.load_s", "s"),
    ("cache.warm_pass_s", "s"),
    ("cache.bytes", "bytes"),
    ("cache.hits", "count"),
    ("pareto.frontier_s", "s"),
    ("pareto.frontier_points", "count"),
    ("shard.points_max", "count"),
    ("shard.work_max_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Set-ups before each timed pass; `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 11;

/// The in-memory warm phase of a cold workload takes milliseconds, so it
/// repeats until this much time has been spent on it (its median is
/// reported).
const WARM_MIN: Duration = Duration::from_millis(250);

/// Shards of the CI matrix the shard metrics model.
const SHARDS: u32 = 4;

/// How a run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed (also fills the memory images of the execution check).
    pub seed: u64,
    /// Time budget of the timed passes: another pass starts only if it
    /// should end within it (a traced run makes one pass).
    pub seconds: f64,
    /// Run the traced recomposition and report per-layer metrics.
    pub trace: bool,
    /// Directory for the cache, frontier and span files.
    pub out_dir: PathBuf,
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Points evaluated (timed passes plus the traced pass).
    pub attempted: u64,
    /// Points (or whole-plan checks) with a wrong result.
    pub failed: u64,
    /// `(name, value, unit)` in definition order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: kernels drawn, check failures.
    pub notes: Vec<String>,
}

/// Exact counters of one timed pass; every pass of a run must agree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    infeasible: usize,
    seed_hints: usize,
    seed_hits: usize,
    cache_hits: usize,
    cache_bytes: u64,
    frontier_points: usize,
    frontier_digest: u64,
}

/// Timings of one warm phase (whatever a second invocation pays).
#[derive(Debug, Clone, Copy, Default)]
struct WarmTimes {
    total_s: f64,
    save_s: f64,
    load_s: f64,
    warm_pass_s: f64,
    frontier_s: f64,
}

/// One timed pass and its warm phase.
struct Rep {
    sweep_s: f64,
    cpu_s: f64,
    warm: WarmTimes,
    counters: Counters,
}

/// What a timed pass produced: its records and frontier JSON.
struct PassOutput {
    records: Vec<EvalRecord>,
    frontier_json: String,
}

/// Collects check failures.
#[derive(Default)]
struct Checks {
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, points: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += points.max(1);
            self.notes.push(format!("check failed: {}", what()));
        }
    }
}

fn frontier_json(records: &[EvalRecord]) -> String {
    serde_json::to_string_pretty(&FrontierReport::from_records(records))
        .expect("frontier reports serialize")
}

/// Runs `spec` once under `cfg`.
pub fn run(spec: &BenchSpec, cfg: &RunConfig) -> Report {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut checks = Checks::default();
    std::fs::create_dir_all(&cfg.out_dir).expect("output directory is writable");

    let threads = rayon::current_num_threads();
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_output = None;
    loop {
        // Set-ups are spread over the run, one batch before each pass, so
        // their median samples the machine as often as the passes do.
        let mut plan = SweepPlan::default();
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let (p, cache) = spec.setup();
            setup_s.push(t.elapsed().as_secs_f64());
            drop(cache);
            plan = p;
        }
        let pass_started = Instant::now();
        let (rep, output) = timed_pass(spec, cfg, &plan, &mut tracer, &mut checks);
        // Later passes are checked against the first through their
        // counters; only the first pass's records are kept.
        first_output.get_or_insert((plan, output));
        eprintln!(
            "pass {}: sweep {:.3} s, cpu {:.2} s, warm {:.4} s",
            reps.len() + 1,
            rep.sweep_s,
            rep.cpu_s,
            rep.warm.total_s
        );
        if let Some(first) = reps.first() {
            checks.expect(rep.counters == first.counters, 1, || {
                format!(
                    "exact counters differ between passes: {:?} vs {:?}",
                    first.counters, rep.counters
                )
            });
        }
        reps.push(rep);
        // A traced run needs one untraced pass (parallel efficiency, seed
        // and cache counters); otherwise start another pass only if it
        // should end within the run's time.
        let next_end = started.elapsed() + pass_started.elapsed();
        if cfg.trace || next_end.as_secs_f64() > cfg.seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    let (plan, first) = first_output.expect("at least one timed pass");
    let counters = reps[0].counters.clone();
    if let Some(pin) = spec.pin {
        checks.expect(counters.frontier_digest == pin.frontier_digest, 1, || {
            format!(
                "frontier digest {:016x}, pinned {:016x}",
                counters.frontier_digest, pin.frontier_digest
            )
        });
        checks.expect(counters.infeasible == pin.infeasible, 1, || {
            format!(
                "{} infeasible points, pinned {}",
                counters.infeasible, pin.infeasible
            )
        });
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let sweep_s = med(&|r| r.sweep_s);
    let cpu_s = med(&|r| r.cpu_s);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut attempted = (plan.len() * reps.len()) as u64;
    if cfg.trace {
        let traced = traced_pass(cfg, &plan, &first.records, &mut tracer, &mut checks);
        attempted += plan.len() as u64;
        if spec.seeded {
            checks.expect(traced.frontier_json == first.frontier_json, 1, || {
                "cold and seeded frontier JSON differ".to_string()
            });
        }
        values.extend(traced.values);
        let serial = values["sweep.serial_work_s"];
        values.insert(
            "sweep.parallel_efficiency",
            cpu_s / (threads as f64 * sweep_s),
        );
        values.insert("trace.overhead", serial / cpu_s);
        values.insert("seed.hints", counters.seed_hints as f64);
        values.insert("seed.hits", counters.seed_hits as f64);
        values.insert("warm_s", med(&|r| r.warm.total_s));
        values.insert("cache.save_s", med(&|r| r.warm.save_s));
        values.insert("cache.load_s", med(&|r| r.warm.load_s));
        values.insert("cache.warm_pass_s", med(&|r| r.warm.warm_pass_s));
        values.insert("cache.bytes", counters.cache_bytes as f64);
        values.insert("cache.hits", counters.cache_hits as f64);
        values.insert("pareto.frontier_s", med(&|r| r.warm.frontier_s));
        values.insert("pareto.frontier_points", counters.frontier_points as f64);
        let labels: Vec<String> = plan
            .points
            .iter()
            .map(|p| format!("{}@{}", p.workload.name, p.design.label()))
            .collect();
        let path = cfg
            .out_dir
            .join(format!("{}-seed{}.spans.jsonl", spec.name, cfg.seed));
        tracer
            .write_jsonl(&path, &labels)
            .expect("span file is writable");
        checks
            .notes
            .push(format!("spans written to {}", path.display()));
    } else {
        values.insert("sweep_s", sweep_s);
        values.insert("cpu_s", cpu_s);
        values.insert("setup_s", median(&setup_s));
        values.insert("peak_rss_mb", peak_rss);
    }

    let defs: &[(&'static str, &'static str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = defs
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            (name, value, unit)
        })
        .collect();
    let mut notes = vec![format!(
        "{}: {} points ({} kernels: {}) on {threads} threads, {} timed passes, {} infeasible",
        spec.name,
        plan.len(),
        spec.kernels.len(),
        spec.kernels.join(","),
        reps.len(),
        counters.infeasible
    )];
    notes.extend(checks.notes);
    Report {
        correct: checks.failed == 0,
        attempted,
        failed: checks.failed,
        metrics,
        notes,
    }
}

/// One untraced sweep pass on a fresh cache, then its warm phase.
fn timed_pass(
    spec: &BenchSpec,
    cfg: &RunConfig,
    plan: &SweepPlan,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Rep, PassOutput) {
    let policy = if spec.seeded {
        SeedPolicy::Exact
    } else {
        SeedPolicy::Off
    };
    let cache = ResultCache::new();
    let rep = tracer.open("rep", None, None);
    let cpu0 = cpu_seconds();
    let pass = tracer.open("sweep.pass", Some(rep), None);
    let outcome = run_sweep_with(plan, &cache, policy);
    let sweep_s = tracer.close(pass);
    let cpu_s = cpu_seconds() - cpu0;

    let frontier = frontier_json(&outcome.records);
    let mut warm_runs = Vec::new();
    let warm_started = Instant::now();
    let (cache_hits, json, cache_bytes) = loop {
        let (times, warm, json, bytes) = if spec.seeded {
            persisted_warm_phase(spec, cfg, plan, &cache, tracer, rep)
        } else {
            memory_warm_phase(plan, &cache, tracer, rep)
        };
        check_warm(checks, &outcome, &warm, &frontier, &json);
        warm_runs.push(times);
        if spec.seeded || warm_started.elapsed() >= WARM_MIN {
            break (warm.stats.cache_hits, json, bytes);
        }
    };
    tracer.close(rep);
    let pick = |f: fn(&WarmTimes) -> f64| median(&warm_runs.iter().map(f).collect::<Vec<_>>());
    let warm = WarmTimes {
        total_s: pick(|w| w.total_s),
        save_s: pick(|w| w.save_s),
        load_s: pick(|w| w.load_s),
        warm_pass_s: pick(|w| w.warm_pass_s),
        frontier_s: pick(|w| w.frontier_s),
    };
    let frontier_points = FrontierReport::from_records(&outcome.records).frontier_size();
    let rep = Rep {
        sweep_s,
        cpu_s,
        warm,
        counters: Counters {
            infeasible: outcome.stats.failures,
            seed_hints: outcome.stats.seeded,
            seed_hits: outcome.stats.seed_hits,
            cache_hits,
            cache_bytes,
            frontier_points,
            frontier_digest: fnv1a(json.as_bytes()),
        },
    };
    let output = PassOutput {
        records: outcome.records,
        frontier_json: frontier,
    };
    (rep, output)
}

/// The second pass a cold user pays when the cache stays in memory: an
/// all-hit pass and the frontier JSON, no disk.
fn memory_warm_phase(
    plan: &SweepPlan,
    cache: &ResultCache,
    tracer: &mut Tracer,
    rep: usize,
) -> (WarmTimes, SweepOutcome, String, u64) {
    let t = Instant::now();
    let pass = tracer.open("cache.warm_pass", Some(rep), None);
    let warm = run_sweep_with(plan, cache, SeedPolicy::Off);
    let warm_pass_s = tracer.close(pass);
    let span = tracer.open("pareto.frontier", Some(rep), None);
    let json = frontier_json(&warm.records);
    let frontier_s = tracer.close(span);
    let times = WarmTimes {
        total_s: t.elapsed().as_secs_f64(),
        warm_pass_s,
        frontier_s,
        ..WarmTimes::default()
    };
    (times, warm, json, 0)
}

/// What a second `plaid-dse --cache` invocation pays: save the cache, load
/// it back, an all-hit seeded pass, and the frontier JSON written to disk.
fn persisted_warm_phase(
    spec: &BenchSpec,
    cfg: &RunConfig,
    plan: &SweepPlan,
    cache: &ResultCache,
    tracer: &mut Tracer,
    rep: usize,
) -> (WarmTimes, SweepOutcome, String, u64) {
    let cache_path = cfg.out_dir.join(format!("{}-cache.json", spec.name));
    let frontier_path = cfg.out_dir.join(format!("{}-frontier.json", spec.name));
    let t = Instant::now();
    let span = tracer.open("cache.save", Some(rep), None);
    cache.save(&cache_path).expect("cache file is writable");
    let save_s = tracer.close(span);
    let span = tracer.open("cache.load", Some(rep), None);
    let loaded = ResultCache::load(&cache_path).expect("saved cache loads");
    let load_s = tracer.close(span);
    let span = tracer.open("cache.warm_pass", Some(rep), None);
    let warm = run_sweep_with(plan, &loaded, SeedPolicy::Exact);
    let warm_pass_s = tracer.close(span);
    let span = tracer.open("pareto.frontier", Some(rep), None);
    let json = frontier_json(&warm.records);
    std::fs::write(&frontier_path, &json).expect("frontier file is writable");
    let frontier_s = tracer.close(span);
    let times = WarmTimes {
        total_s: t.elapsed().as_secs_f64(),
        save_s,
        load_s,
        warm_pass_s,
        frontier_s,
    };
    let bytes = std::fs::metadata(&cache_path)
        .expect("saved cache exists")
        .len();
    (times, warm, json, bytes)
}

/// The warm phase must reproduce the cold pass exactly from the cache.
fn check_warm(
    checks: &mut Checks,
    cold: &SweepOutcome,
    warm: &SweepOutcome,
    cold_frontier: &str,
    warm_frontier: &str,
) {
    checks.expect(warm.stats.compiled == 0, warm.stats.compiled as u64, || {
        format!("warm pass compiled {} points", warm.stats.compiled)
    });
    let differing = cold
        .records
        .iter()
        .zip(&warm.records)
        .filter(|(a, b)| a != b)
        .count();
    checks.expect(differing == 0, differing as u64, || {
        format!("{differing} records changed through the cache")
    });
    checks.expect(cold_frontier == warm_frontier, 1, || {
        "frontier JSON changed through the cache".to_string()
    });
}

/// What the traced pass yields.
struct Traced {
    values: BTreeMap<&'static str, f64>,
    frontier_json: String,
}

/// Serial traced recomposition of every point, checked against the
/// untraced records and, for modulo mappings, by functional execution.
fn traced_pass(
    cfg: &RunConfig,
    plan: &SweepPlan,
    reference: &[EvalRecord],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Traced {
    let first_span = tracer.spans().len();
    let pass = tracer.open("trace.pass", None, None);
    let mut records = Vec::with_capacity(plan.len());
    let mut ii_attempts = 0u64;
    for (i, point) in plan.points.iter().enumerate() {
        let traced = recompose(tracer, pass, i, point);
        ii_attempts += traced.ii_attempts;
        let label = || format!("{}@{}", point.workload.name, point.design.label());
        checks.expect(
            traced.record.without_seed() == reference[i].without_seed(),
            1,
            || format!("{}: traced result differs from evaluate_point", label()),
        );
        if let Some((dfg, arch, mapping)) = &traced.mapped {
            let memory = MemoryImage::for_kernel(&point.workload.kernel, |name, j| {
                ((name.len() as u64 * 3 + j as u64 + cfg.seed) % 19 + 1) as i64
            });
            let cycles = traced.record.summary.as_ref().map(|s| s.metrics.cycles);
            match execute_mapping(dfg, arch, mapping, &memory) {
                Ok(r) => checks.expect(r.verified && Some(r.cycles) == cycles, 1, || {
                    format!("{}: mapped execution diverged", label())
                }),
                Err(e) => checks.expect(false, 1, || format!("{}: {e}", label())),
            }
        }
        records.push(traced.record);
    }
    tracer.close(pass);

    let spans = &tracer.spans()[first_span..];
    let infeasible: Vec<bool> = records.iter().map(|r| !r.ok).collect();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let sum = |name: &'static str, only_infeasible: bool| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| !only_infeasible || s.point.is_some_and(|p| infeasible[p]))
            .map(|s| s.seconds())
            .fold(0.0, |a, b| a + b)
    };
    let stages = [
        ("arch.build_s", "arch.build"),
        ("dfg.lower_s", "dfg.lower"),
        ("motif.identify_s", "motif.identify"),
        ("sim.config_s", "sim.config"),
        ("sim.cost_s", "sim.cost"),
        ("mapper.mii_s", "mapper.mii"),
        ("mapper.spatial_s", "mapper.spatial"),
    ];
    for (metric, span) in stages {
        values.insert(metric, sum(span, false));
    }
    let plaid = mapper_span(MapperChoice::Plaid);
    let pathfinder = mapper_span(MapperChoice::PathFinder);
    values.insert("mapper.plaid_s", sum(plaid, false));
    values.insert("mapper.plaid_infeasible_s", sum(plaid, true));
    values.insert("mapper.pathfinder_s", sum(pathfinder, false));
    values.insert("mapper.pathfinder_infeasible_s", sum(pathfinder, true));

    let point_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "point")
        .map(|s| s.seconds())
        .collect();
    let serial: f64 = point_s.iter().sum();
    let mut slowest = point_s.clone();
    slowest.sort_by(|a, b| b.total_cmp(a));
    let top10: f64 = slowest.iter().take(10).sum();
    values.insert("mapper.ii_attempts", ii_attempts as f64);
    values.insert(
        "points.infeasible",
        infeasible.iter().filter(|&&b| b).count() as f64,
    );
    values.insert("point.p50_ms", quantile(&point_s, 0.5) * 1e3);
    values.insert("point.p95_ms", quantile(&point_s, 0.95) * 1e3);
    values.insert("point.max_ms", slowest[0] * 1e3);
    values.insert("point.top10_share", top10 / serial);
    values.insert("sweep.serial_work_s", serial);

    let mut shard_points = vec![0usize; SHARDS as usize];
    let mut shard_work = vec![0f64; SHARDS as usize];
    for (point, s) in plan.points.iter().zip(&point_s) {
        let shard = shard_of(point, SHARDS) as usize;
        shard_points[shard] += 1;
        shard_work[shard] += s;
    }
    values.insert(
        "shard.points_max",
        *shard_points.iter().max().expect("shards exist") as f64,
    );
    values.insert(
        "shard.work_max_s",
        shard_work.iter().copied().fold(0.0, f64::max),
    );
    Traced {
        values,
        frontier_json: frontier_json(&records),
    }
}

//! `sweepbench` — end-to-end and stage-by-stage benchmark of the
//! provisioning sweep.
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload cold-216 --seed 0 --seconds 40 --trace 0
//! ```
//!
//! Runs one workload (`cold-216`, `seeded-216` or `st-2160`, see
//! `sweepbench/README.md`) for up to `--seconds`, checks every output, and
//! prints a JSON object as its last stdout line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. Exits non-zero when a check fails.

mod bench;
mod measure;
mod plan;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{run, Report, RunConfig};
use plan::{BenchSpec, DEFAULT_SEED};

/// Where runs leave the cache, frontier and span files (relative to the
/// working directory).
const OUT_DIR: &str = "sweepbench-out";

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {flag} value `{value}` (expected {what})");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad("a number of seconds"))?
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args { workload, config })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics, each
/// with its unit.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One worker per core unless the caller chose otherwise; the sweep's
    // thread pool reads this on every parallel call.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("RAYON_NUM_THREADS", cores.to_string());
    }
    let spec = match BenchSpec::new(&args.workload, args.config.seed) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run(&spec, &args.config);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::SpaceSpec;
    use std::path::Path;

    fn smoke(seeded: bool) -> BenchSpec {
        BenchSpec {
            name: format!("smoke-{}", if seeded { "seeded" } else { "cold" }),
            seeded,
            kernels: vec!["dwconv".into(), "atax_u2".into()],
            space: SpaceSpec::smoke_grid(),
            pin: None,
        }
    }

    /// Each test writes into a directory of its own: tests run in
    /// parallel and the seeded workload saves its cache to a fixed name.
    fn config(trace: bool, test: &str) -> RunConfig {
        RunConfig {
            seed: 7,
            seconds: 0.0,
            trace,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(OUT_DIR)
                .join(test),
        }
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn registered(list: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        json.get(list)
            .and_then(|v| v.as_array())
            .expect("metric list present")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn smoke_runs_emit_the_registered_schema() {
        for seeded in [false, true] {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = run(&smoke(seeded), &config(trace, "schema"));
                assert!(report.correct, "{:?}", report.notes);
                assert_eq!(report.failed, 0);
                assert!(report.attempted >= 12);
                assert_eq!(emitted(&report), registered(list));
                assert!(report.metrics.iter().all(|(_, v, _)| v.is_finite()));

                let line = result_json(&report);
                let json = serde_json::parse_value(&line).expect("result line is JSON");
                let keys: Vec<&String> = json.as_object().unwrap().keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                let metrics = json.get("metrics").unwrap().as_object().unwrap();
                for (name, unit) in registered(list) {
                    let m = &metrics[&name];
                    assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit.as_str()));
                    assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
                }
            }
        }
    }

    #[test]
    fn a_wrong_pinned_digest_fails_the_run() {
        let mut spec = smoke(false);
        let good = run(&spec, &config(false, "pin"));
        assert!(good.correct);
        spec.pin = Some(plan::Pin {
            frontier_digest: 0xdead_beef,
            infeasible: 0,
        });
        let report = run(&spec, &config(false, "pin"));
        assert!(!report.correct);
        assert!(report.failed >= 1);
        assert!(report.notes.iter().any(|n| n.contains("frontier digest")));
    }

    #[test]
    fn exact_counters_repeat_across_runs() {
        let counters = |report: &Report| -> Vec<(&'static str, f64)> {
            report
                .metrics
                .iter()
                .filter(|(n, _, u)| *u == "count" || *u == "bytes" || n.starts_with("seed."))
                .map(|&(n, v, _)| (n, v))
                .collect()
        };
        let spec = smoke(true);
        let first = run(&spec, &config(true, "determinism"));
        let second = run(&spec, &config(true, "determinism"));
        assert!(first.correct && second.correct);
        assert_eq!(counters(&first), counters(&second));
        assert!(counters(&first).len() >= 8);
    }

    #[test]
    fn the_default_seed_keeps_rep8_and_others_draw_registry_kernels() {
        assert_eq!(
            plan::draw_kernels(DEFAULT_SEED),
            ["atax_u2", "doitgen_u4", "fc", "gramsc_u4"]
        );
        let registry: Vec<String> = plaid_workloads::table2_workloads()
            .into_iter()
            .map(|w| w.name)
            .collect();
        let drawn: std::collections::BTreeSet<Vec<String>> =
            (1..40).map(plan::draw_kernels).collect();
        assert_eq!(drawn.len(), 2, "seeds vary the kernels");
        for kernels in &drawn {
            assert_eq!(kernels.len(), 4);
            assert!(kernels.iter().all(|k| registry.contains(k)));
        }
        assert_eq!(plan::draw_kernels(3), plan::draw_kernels(3));
        let st = BenchSpec::new("st-2160", 3).unwrap();
        assert_eq!(st.kernels, registry);
        assert_eq!(st.setup().0.len(), 2160);
        assert_eq!(BenchSpec::new("cold-216", 3).unwrap().setup().0.len(), 216);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload st-2160 --seed 4 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "st-2160");
        assert_eq!(
            (a.config.seed, a.config.seconds, a.config.trace),
            (4, 10.0, true)
        );
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload").is_err());
        assert!(BenchSpec::new("nope", 0).is_err());
    }
}

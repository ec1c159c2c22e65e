//! The headline sharding guarantee, end to end: a 4-way sharded run of the
//! default 216-point sweep, merged through the `plaid-dse merge` subcommand,
//! reproduces the single-process `run_sweep` output byte for byte — frontier
//! JSON and `SweepStats` totals alike.
//!
//! This is the reproducibility contract CI's shard-matrix + merge-verify
//! jobs enforce on real multi-process runs; here the same path runs
//! in-process (shard sweeps + cache saves) with the actual `plaid-dse`
//! binary doing the merge, so `cargo test` covers it on every platform.

use std::process::Command;

use plaid_explore::{
    run_sweep, run_sweep_with, shard_plan, EvalRecord, FrontierReport, ResultCache, SeedPolicy,
    ShardSpec, SweepPlan,
};
use plaid_workloads::table2_workloads;

/// The `plaid-dse` default plan: the 54-point default grid crossed with the
/// `rep8` workload selection (every 8th registry workload) — 216 points.
fn default_plan() -> SweepPlan {
    let workloads: Vec<_> = table2_workloads().into_iter().step_by(8).collect();
    let plan = SweepPlan::cross(&workloads, &plaid_arch::SpaceSpec::default_grid());
    assert_eq!(plan.len(), 216, "the default sweep is 216 points");
    plan
}

fn strip_seeds(records: &[EvalRecord]) -> Vec<EvalRecord> {
    records.iter().map(EvalRecord::without_seed).collect()
}

#[test]
fn four_way_sharded_default_sweep_merges_bit_identically() {
    let plan = default_plan();
    let scratch = std::env::temp_dir().join(format!("plaid-shard-test-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();

    // Single-process reference, computed independently of the shards.
    let whole_cache = ResultCache::new();
    let whole = run_sweep(&plan, &whole_cache);
    let whole_frontier = FrontierReport::from_records(&whole.records);
    let whole_frontier_json = serde_json::to_string_pretty(&whole_frontier).unwrap();

    // Four shard runs, each with its own cache file and seed groups —
    // exactly what four `plaid-dse --shard i/4` processes would do.
    const SHARDS: u32 = 4;
    let merged = ResultCache::new();
    let (mut compiled, mut failures) = (0, 0);
    let mut shard_cache_paths = Vec::new();
    for index in 0..SHARDS {
        let cache = ResultCache::new();
        let shard = shard_plan(
            &plan,
            ShardSpec {
                index,
                count: SHARDS,
            },
        );
        let outcome = run_sweep_with(&shard, &cache, SeedPolicy::Exact);
        assert_eq!(
            cache.len(),
            outcome.records.len(),
            "shard cache holds exactly its shard's records"
        );
        compiled += outcome.stats.compiled;
        failures += outcome.stats.failures;
        assert_eq!(
            merged.union_merge(&cache),
            shard.len(),
            "shards are disjoint"
        );
        let path = scratch.join(format!("shard-{index}.json"));
        cache.save(&path).unwrap();
        shard_cache_paths.push(path);
    }

    // Library-level merge, the path `plaid-dse merge` runs: the union holds
    // the single-process records (seeding counters are intra-shard, so only
    // the deterministic totals compare).
    assert_eq!(compiled, whole.stats.compiled);
    assert_eq!(failures, whole.stats.failures);
    assert_eq!(
        strip_seeds(&merged.canonical_records()),
        strip_seeds(&whole_cache.canonical_records()),
        "merged records are the single-process records"
    );

    // Binary-level merge: `plaid-dse merge` unions the four shard caches
    // and emits the merged frontier JSON.
    let merged_cache_path = scratch.join("merged.json");
    let merged_frontier_path = scratch.join("merged_frontier.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plaid-dse"));
    cmd.arg("merge")
        .arg(&merged_cache_path)
        .args(&shard_cache_paths)
        .arg("--frontier")
        .arg(&merged_frontier_path)
        .arg("--quiet");
    let output = cmd.output().expect("plaid-dse merge runs");
    assert!(
        output.status.success(),
        "plaid-dse merge failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The headline assertion: byte-for-byte identical frontier JSON.
    let merged_frontier_json = std::fs::read_to_string(&merged_frontier_path).unwrap();
    assert_eq!(
        merged_frontier_json, whole_frontier_json,
        "merged frontier JSON diverges from the single-process sweep"
    );

    // The merged cache file holds the library merge's records exactly.
    let reloaded = ResultCache::load(&merged_cache_path).unwrap();
    assert_eq!(reloaded.canonical_records(), merged.canonical_records());

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn shard_cli_flag_runs_the_content_hash_subset() {
    // Cheap end-to-end check of `--shard I/N` on the smoke grid: the saved
    // shard cache holds exactly the shard sub-plan's points.
    let scratch = std::env::temp_dir().join(format!("plaid-shard-cli-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let cache_path = scratch.join("shard-cli.json");
    let output = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
        .args([
            "--grid",
            "smoke",
            "--shard",
            "1/3",
            "--passes",
            "1",
            "--no-frontier-file",
            "--quiet",
            "--cache",
        ])
        .arg(&cache_path)
        .output()
        .expect("plaid-dse --shard runs");
    assert!(
        output.status.success(),
        "plaid-dse --shard failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let workloads: Vec<_> = table2_workloads().into_iter().step_by(8).collect();
    let plan = SweepPlan::cross(&workloads, &plaid_arch::SpaceSpec::smoke_grid());
    let sub = plaid_explore::shard_plan(&plan, ShardSpec { index: 1, count: 3 });
    assert!(!sub.is_empty(), "shard 1/3 of the smoke plan is non-empty");
    let cache = ResultCache::load(&cache_path).unwrap();
    assert_eq!(cache.len(), sub.len());
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn merge_rejects_missing_and_duplicate_shard_caches() {
    // A mistyped or missing shard cache must fail the merge rather than
    // count as empty (which would write a frontier over part of the plan),
    // and a shard listed twice must fail as an overlap.
    let scratch = std::env::temp_dir().join(format!("plaid-merge-reject-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let shard0 = scratch.join("s0.json");
    let sweep = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
        .args(["--grid", "smoke", "--shard", "0/2", "--passes", "1"])
        .args(["--no-frontier-file", "--quiet", "--cache"])
        .arg(&shard0)
        .output()
        .expect("plaid-dse --shard runs");
    assert!(sweep.status.success());
    let merge = |inputs: &[&std::path::Path]| {
        let out = scratch.join("merged.json");
        std::fs::remove_file(&out).ok();
        let output = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
            .arg("merge")
            .arg(&out)
            .args(inputs)
            .args(["--no-frontier-file", "--quiet"])
            .output()
            .expect("plaid-dse merge runs");
        (output.status.success(), out.exists())
    };
    let typo = scratch.join("s1-typo.json");
    assert_eq!(
        merge(&[&shard0, &typo]),
        (false, false),
        "missing shard cache"
    );
    assert_eq!(
        merge(&[&shard0, &shard0]),
        (false, false),
        "duplicated shard"
    );
    assert_eq!(merge(&[&shard0]), (true, true));
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn out_file_is_byte_identical_across_runs() {
    // `--out` is a deterministic output: two runs of one plan must write
    // the same bytes, so no wall-clock figure may be serialized into it.
    let scratch = std::env::temp_dir().join(format!("plaid-out-twice-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let run = |name: &str| {
        let path = scratch.join(name);
        let output = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
            .args(["--grid", "smoke", "--workloads", "dwconv,atax_u2"])
            .args(["--passes", "1", "--no-frontier-file", "--quiet", "--out"])
            .arg(&path)
            .output()
            .expect("plaid-dse --out runs");
        assert!(
            output.status.success(),
            "plaid-dse --out failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(&path).unwrap()
    };
    let first = run("a.json");
    assert!(first == run("b.json"), "two --out runs differ");
    std::fs::remove_dir_all(&scratch).ok();
}

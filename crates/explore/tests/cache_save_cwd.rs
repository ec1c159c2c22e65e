//! Regression: `ResultCache::save` to a *bare filename* must create its
//! temporary file next to the target — i.e. in the working directory the
//! bare name resolves against — and leave nothing else behind. This test
//! changes the process working directory, so it lives in its own test
//! binary where no other test can race it.

use plaid::pipeline::MapperChoice;
use plaid_arch::{ArchClass, CommSpec, DesignPoint};
use plaid_explore::{EvalRecord, ResultCache, SweepPoint};
use plaid_workloads::find_workload;

#[test]
fn save_to_bare_filename_stays_in_the_scratch_cwd() {
    let scratch = std::env::temp_dir().join(format!("plaid-cache-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let original_cwd = std::env::current_dir().unwrap();
    std::env::set_current_dir(&scratch).unwrap();

    let point = SweepPoint {
        workload: find_workload("dwconv").unwrap(),
        design: DesignPoint {
            class: ArchClass::Plaid,
            rows: 2,
            cols: 2,
            config_entries: 16,
            comm: CommSpec::ALIGNED,
        },
        mapper: MapperChoice::Plaid,
    };
    let cache = ResultCache::new();
    cache.insert(EvalRecord::failed(&point, "bare-filename save"));

    // Save to a bare filename (no parent component at all) — the temp file
    // must be created beside it in the scratch cwd, then renamed over it.
    cache
        .save(std::path::Path::new("bare-cache.json"))
        .expect("bare-filename save succeeds");

    let entries: Vec<String> = std::fs::read_dir(&scratch)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        entries.iter().any(|n| n == "bare-cache.json"),
        "cache file missing from scratch cwd: {entries:?}"
    );
    assert!(
        !entries.iter().any(|n| n.contains(".tmp-")),
        "temp file left behind in scratch cwd: {entries:?}"
    );

    // Overwriting through the same bare path also stays put, and the saved
    // cache round-trips.
    cache.save(std::path::Path::new("bare-cache.json")).unwrap();
    let reloaded = ResultCache::load(std::path::Path::new("bare-cache.json")).unwrap();
    assert_eq!(reloaded.len(), 1);
    assert!(reloaded.lookup(&point).is_some());

    std::env::set_current_dir(&original_cwd).unwrap();
    std::fs::remove_dir_all(&scratch).ok();
}

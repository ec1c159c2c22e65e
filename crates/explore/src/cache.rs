//! Content-addressed memoization of sweep evaluations.
//!
//! A record's *identity* is the content that determines its result: the
//! workload descriptor, the full architecture parameterization (the design
//! point) and the mapper, never its position in any particular sweep. The
//! cache holds one record per identity, and lookup, insert and merge all key
//! by it. Overlapping or repeated sweeps therefore share results: a point
//! evaluated once is never compiled again, whether the second request comes
//! from the same process or from a cache file persisted by an earlier
//! `plaid-dse` run.
//!
//! On disk, records are grouped under [`cache_key`], a stable 64-bit content
//! hash of the identity (`key -> [record, ...]`). The hash only names the
//! group; loading re-keys every record by its own identity, so two
//! identities whose hashes collide can never serve each other's lookups.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::RwLock;

use plaid::pipeline::MapperChoice;
use plaid_arch::DesignPoint;
use plaid_workloads::WorkloadDescriptor;

use crate::record::EvalRecord;
use crate::sweep::SweepPoint;

/// FNV-1a 64-bit hash — stable across platforms and runs, unlike
/// `DefaultHasher`, which makes keys safe to persist.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What an evaluation is the result of: two records describe the same point
/// exactly when their identities are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Identity {
    workload: WorkloadDescriptor,
    design: DesignPoint,
    mapper: MapperChoice,
}

impl Identity {
    fn of_point(point: &SweepPoint) -> Self {
        Identity {
            workload: point.workload.descriptor(),
            design: point.design,
            mapper: point.mapper,
        }
    }

    fn of_record(record: &EvalRecord) -> Self {
        Identity {
            workload: record.workload.clone(),
            design: record.design,
            mapper: record.mapper,
        }
    }

    /// See [`cache_key_hash`].
    fn content_hash(&self) -> u64 {
        let canonical = format!(
            "v1|workload={}|kernel={}|unroll={}|iters={}|design={}|params={}|mapper={}",
            self.workload.name,
            self.workload.kernel,
            self.workload.unroll,
            self.workload.iterations,
            serde_json::to_string(&self.design).expect("design point serializes"),
            serde_json::to_string(&self.design.params()).expect("params serialize"),
            self.mapper.label(),
        );
        fnv1a64(canonical.as_bytes())
    }

    /// See [`cache_key`].
    fn key(&self) -> String {
        format!("v1:{:016x}", self.content_hash())
    }
}

/// Computes the raw 64-bit content hash of a sweep point — the number behind
/// [`cache_key`].
///
/// The hash covers the workload identity (name, kernel, unroll, iteration
/// count), the complete architecture parameterization (class, dimensions,
/// configuration depth, communication spec — via the design point's JSON
/// form, which includes every `ArchParams` knob the builders consume) and the
/// mapper. It depends only on the point's *content*, never on its position in
/// a sweep plan, which is what makes it usable both as the cache file's key
/// and as the shard-assignment hash of [`crate::shard::shard_of`] (stable
/// under point reordering).
pub fn cache_key_hash(point: &SweepPoint) -> u64 {
    Identity::of_point(point).content_hash()
}

/// Computes the content-addressed key a point's record is saved under.
///
/// The key is the hex form of [`cache_key_hash`]. The `v1:` prefix versions
/// the scheme so a future format change invalidates old cache files instead
/// of aliasing them.
pub fn cache_key(point: &SweepPoint) -> String {
    Identity::of_point(point).key()
}

/// Thread-safe result cache holding one record per identity.
///
/// Records are boxed: the map keeps up to twice as many slots as entries,
/// and a record is over 500 bytes inline, so unboxed slots would multiply
/// the cache's memory.
#[derive(Debug, Default)]
pub struct ResultCache {
    records: RwLock<HashMap<Identity, Box<EvalRecord>>>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a cache persisted by [`ResultCache::save`]. A missing file
    /// yields an empty cache; a malformed file is an error.
    ///
    /// Both the grouped format (`key -> [record, ...]`) and the legacy
    /// single-record format (`key -> record`) are accepted. Each record is
    /// kept under its own identity, whatever key the file stored it under.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if the file exists but cannot be read or
    /// parsed.
    pub fn load(path: &Path) -> io::Result<Self> {
        if !path.exists() {
            return Ok(Self::new());
        }
        let text = std::fs::read_to_string(path)?;
        let invalid =
            |e: serde_json::Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let raw: HashMap<String, serde_json::Value> =
            serde_json::from_str(&text).map_err(invalid)?;
        let mut records = HashMap::with_capacity(raw.len());
        for value in raw.values() {
            let group = if value.as_array().is_some() {
                serde_json::from_value::<Vec<EvalRecord>>(value).map_err(invalid)?
            } else {
                vec![serde_json::from_value::<EvalRecord>(value).map_err(invalid)?]
            };
            for record in group {
                records.insert(Identity::of_record(&record), Box::new(record));
            }
        }
        Ok(ResultCache {
            records: RwLock::new(records),
        })
    }

    /// Persists the cache as JSON: an object keyed by [`cache_key`], each
    /// key holding the records whose identity hashes to it.
    ///
    /// The write is atomic: the JSON goes to a temporary file in the target's
    /// own directory which is then renamed over `path`, so a crash mid-save
    /// can never leave a truncated cache file behind for
    /// [`ResultCache::load`] to reject on every future run. The temporary
    /// file is created *next to the target* — resolved through
    /// [`Path::parent`], with an empty parent (a bare file name) meaning the
    /// current directory — rather than naively rewriting the path, so the
    /// rename never crosses a filesystem boundary and a bare-filename save
    /// from any working directory lands its temp file beside the cache.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if the file cannot be written or renamed.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let records = self.records.read().expect("cache lock poisoned");
        let text = serde_json::to_string_pretty(&by_key(&records))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        drop(records);
        let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "cache path has no file name")
        })?;
        // `Path::parent` returns `Some("")` for a bare file name — an empty
        // parent means the current directory, made explicit as `.` so the
        // temp file verifiably lands beside the target.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let tmp = parent.join(format!("{file_name}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Unions another cache's records into this one, returning how many
    /// identities were *new*. A record whose identity already exists is
    /// replaced by `other`'s copy, so later merge inputs win.
    ///
    /// This is the merge layer of sharded sweeps: shard-local caches are
    /// disjoint by construction ([`crate::shard::shard_of`] assigns each
    /// point to exactly one shard), so unioning them reconstructs the record
    /// set an unsharded sweep would have produced.
    pub fn union_merge(&self, other: &ResultCache) -> usize {
        // Merging a cache into itself is a no-op (union is idempotent);
        // without this check the read lock on `other` would deadlock
        // against the write lock on `self` — the same RwLock.
        if std::ptr::eq(self, other) {
            return 0;
        }
        let theirs = other.records.read().expect("cache lock poisoned");
        let mut ours = self.records.write().expect("cache lock poisoned");
        let before = ours.len();
        ours.extend(theirs.iter().map(|(id, r)| (id.clone(), r.clone())));
        ours.len() - before
    }

    /// All cached records in a canonical, content-determined order: the
    /// order [`ResultCache::save`] writes them in. Two caches holding the
    /// same record set — regardless of the insertion or merge order that
    /// built them — return identical snapshots, which is what makes
    /// merged-frontier output reproducible and lets tests compare caches for
    /// semantic equality.
    pub fn canonical_records(&self) -> Vec<EvalRecord> {
        let records = self.records.read().expect("cache lock poisoned");
        by_key(&records).into_values().flatten().cloned().collect()
    }

    /// The cached record of `point`, if any.
    pub fn lookup(&self, point: &SweepPoint) -> Option<EvalRecord> {
        self.records
            .read()
            .expect("cache lock poisoned")
            .get(&Identity::of_point(point))
            .map(|record| EvalRecord::clone(record))
    }

    /// Stores an evaluated record, replacing any record of the same
    /// identity.
    pub fn insert(&self, record: EvalRecord) {
        self.records
            .write()
            .expect("cache lock poisoned")
            .insert(Identity::of_record(&record), Box::new(record));
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.records.read().expect("cache lock poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Groups records under their [`cache_key`], keys ascending. Records sharing
/// a key (a 64-bit hash collision) are ordered by serialized form, so the
/// grouping never depends on the map's iteration order.
fn by_key(records: &HashMap<Identity, Box<EvalRecord>>) -> BTreeMap<String, Vec<&EvalRecord>> {
    let mut groups: BTreeMap<String, Vec<&EvalRecord>> = BTreeMap::new();
    for (id, record) in records {
        groups.entry(id.key()).or_default().push(record);
    }
    for group in groups.values_mut().filter(|g| g.len() > 1) {
        group.sort_by_cached_key(|r| serde_json::to_string(r).expect("record serializes"));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{ArchClass, BwClass, CommLevel, CommSpec, Topology};
    use plaid_workloads::find_workload;

    fn spec_point(workload: &str, comm: CommSpec) -> SweepPoint {
        SweepPoint {
            workload: find_workload(workload).unwrap(),
            design: DesignPoint {
                class: ArchClass::Plaid,
                rows: 2,
                cols: 2,
                config_entries: 16,
                comm,
            },
            mapper: MapperChoice::Plaid,
        }
    }

    fn point(workload: &str, comm: CommLevel) -> SweepPoint {
        spec_point(workload, comm.spec())
    }

    #[test]
    fn keys_are_stable_and_content_sensitive() {
        let a = cache_key(&point("dwconv", CommLevel::Aligned));
        let b = cache_key(&point("dwconv", CommLevel::Aligned));
        assert_eq!(a, b, "same content, same key");
        let c = cache_key(&point("dwconv", CommLevel::Lean));
        assert_ne!(a, c, "different comm level, different key");
        let d = cache_key(&point("fc", CommLevel::Aligned));
        assert_ne!(a, d, "different workload, different key");
        assert!(a.starts_with("v1:"));
    }

    #[test]
    fn structured_comm_specs_never_alias_a_preset_key() {
        // Regression for the scalar-era latent bug: a key derived from a
        // 3-valued comm scalar cannot distinguish specs that share a
        // bandwidth level but differ in topology or per-group allocation.
        // The key must cover the *full* comm structure.
        let aligned = spec_point("dwconv", CommSpec::ALIGNED);
        let torus = spec_point("dwconv", CommSpec::uniform(Topology::Torus, BwClass::Base));
        let express = spec_point(
            "dwconv",
            CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base),
        );
        let split = spec_point(
            "dwconv",
            CommSpec {
                topology: Topology::Mesh,
                link_bw: plaid_arch::LinkBw {
                    local: BwClass::Half,
                    global: BwClass::Base,
                },
                select_policy: plaid_arch::SelectPolicy::Proportional,
            },
        );
        let keys = [
            cache_key(&aligned),
            cache_key(&torus),
            cache_key(&express),
            cache_key(&split),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "specs {i} and {j} alias one cache key");
                }
            }
        }
        // The design embeds the full spec, so a torus record never serves
        // an aligned lookup.
        let cache = ResultCache::new();
        cache.insert(EvalRecord::failed(&torus, "torus"));
        assert!(
            cache.lookup(&aligned).is_none(),
            "a torus record must never serve an aligned lookup"
        );
    }

    /// A scratch cache file path, unique per test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("plaid-explore-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.json")
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = ResultCache::new();
        let p = point("dwconv", CommLevel::Aligned);
        assert!(cache.lookup(&p).is_none(), "an empty cache misses");
        cache.insert(EvalRecord::failed(&p, "probe"));
        assert_eq!(
            cache.lookup(&p).unwrap().error.as_deref(),
            Some("probe"),
            "the inserted record hits"
        );
        // A second insert of the same identity replaces the first.
        cache.insert(EvalRecord::failed(&p, "updated"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&p).unwrap().error.as_deref(), Some("updated"));
    }

    #[test]
    fn colliding_key_with_wrong_identity_is_a_miss() {
        // A file that stores another point's record under this point's key
        // (a 64-bit hash collision, or a hand-edited file) must not serve
        // this point; the record is kept for its own identity.
        let p = point("dwconv", CommLevel::Aligned);
        let other = point("fc", CommLevel::Rich);
        let record = serde_json::to_string(&EvalRecord::failed(&other, "imposter")).unwrap();
        let path = scratch("imposter");
        std::fs::write(&path, format!("{{\"{}\": [{record}]}}", cache_key(&p))).unwrap();
        let cache = ResultCache::load(&path).unwrap();
        assert!(cache.lookup(&p).is_none(), "mismatched identity served");
        assert_eq!(
            cache.lookup(&other).unwrap().error.as_deref(),
            Some("imposter")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_sharing_a_file_key_load_and_save_under_their_own_keys() {
        // Two records of different identity under one key (the grouped
        // format a hash collision produces) both load, and each is saved
        // under the key of its own identity.
        let p = point("dwconv", CommLevel::Aligned);
        let other = point("fc", CommLevel::Rich);
        let (mine, theirs) = (
            EvalRecord::failed(&p, "mine"),
            EvalRecord::failed(&other, "collider"),
        );
        let path = scratch("shared-key");
        std::fs::write(
            &path,
            format!(
                "{{\"v1:00000000c0111de5\": [{}, {}]}}",
                serde_json::to_string(&mine).unwrap(),
                serde_json::to_string(&theirs).unwrap()
            ),
        )
        .unwrap();
        let cache = ResultCache::load(&path).unwrap();
        assert_eq!(cache.len(), 2, "both records load");
        assert_eq!(cache.lookup(&p), Some(mine.clone()));
        assert_eq!(cache.lookup(&other), Some(theirs.clone()));
        cache.save(&path).unwrap();
        let saved: HashMap<String, Vec<EvalRecord>> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let expected = HashMap::from([
            (cache_key(&p), vec![mine]),
            (cache_key(&other), vec![theirs]),
        ]);
        assert_eq!(saved, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn union_merge_counts_new_identities_and_self_merge_is_a_noop() {
        let cache = ResultCache::new();
        let p = point("dwconv", CommLevel::Aligned);
        let other_point = point("fc", CommLevel::Rich);
        cache.insert(EvalRecord::failed(&p, "mine"));
        // Self-merge must neither deadlock nor duplicate.
        assert_eq!(cache.union_merge(&cache), 0);
        assert_eq!(cache.len(), 1);
        let incoming = ResultCache::new();
        incoming.insert(EvalRecord::failed(&other_point, "new"));
        incoming.insert(EvalRecord::failed(&p, "updated"));
        assert_eq!(cache.union_merge(&incoming), 1, "only one identity is new");
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.lookup(&p).unwrap().error.as_deref(),
            Some("updated"),
            "same identity replaced by the merge input"
        );
        // Canonical snapshots are identical however the records arrived.
        let rebuilt = ResultCache::new();
        rebuilt.insert(EvalRecord::failed(&p, "updated"));
        rebuilt.insert(EvalRecord::failed(&other_point, "new"));
        assert_eq!(cache.canonical_records(), rebuilt.canonical_records());
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let cache = ResultCache::new();
        let p = point("dwconv", CommLevel::Lean);
        cache.insert(EvalRecord::failed(&p, "v1"));
        let dir = std::env::temp_dir().join("plaid-explore-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        // Overwriting an existing file goes through the same tmp+rename.
        cache.insert(EvalRecord::failed(&p, "v2"));
        cache.save(&path).unwrap();
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.lookup(&p).unwrap().error.as_deref(), Some("v2"));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_single_record_format_still_loads() {
        let p = point("dwconv", CommLevel::Aligned);
        let key = cache_key(&p);
        let record = EvalRecord::failed(&p, "legacy");
        let legacy = format!("{{\"{key}\": {}}}", serde_json::to_string(&record).unwrap());
        let dir = std::env::temp_dir().join("plaid-explore-legacy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, legacy).unwrap();
        let cache = ResultCache::load(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&p).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_load_round_trip() {
        // save -> load -> save writes the same bytes: loading re-keys each
        // record by its identity and saving groups it under the same key.
        let cache = ResultCache::new();
        let mapped = crate::sweep::evaluate_point(&point("dwconv", CommLevel::Aligned), &cache);
        assert!(mapped.ok, "dwconv maps on plaid-2x2");
        for (workload, comm) in [("dwconv", CommLevel::Rich), ("fc", CommLevel::Lean)] {
            let p = point(workload, comm);
            cache.insert(EvalRecord::failed(&p, format!("{workload} persisted")));
        }
        let path = scratch("round-trip");
        cache.save(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.canonical_records(), cache.canonical_records());
        reloaded.save(&path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            first,
            "re-saved bytes differ"
        );
        std::fs::remove_file(&path).ok();
        // Missing file loads as empty.
        let empty = ResultCache::load(&path).unwrap();
        assert!(empty.is_empty());
    }
}

//! The persistent calibration store: (analytical, simulated) pairs keyed
//! by `(board, precision, metric)`.
//!
//! The store is the durable half of the calibration loop. Every promoted
//! design that survives a simulator run contributes one [`Pair`] per
//! calibrated metric; the store accumulates them across sessions so
//! corrections sharpen as evidence accumulates. Design points:
//!
//! * **Deterministic bytes.** Serialization is compact [`Json`] with
//!   insertion-ordered keys and pairs and *no wall-clock fields*, so the
//!   same pairs always produce the same file — the CI fixed-point check
//!   (`merge` of a store into itself changes nothing) rests on this.
//! * **Idempotent merge.** A pair's identity is its measurement site
//!   `(model, batch, design)` within its key; re-inserting an identical
//!   measurement is a no-op, and re-running the same calibration against
//!   the same store leaves the file byte-identical.
//! * **Bounded.** Each key holds at most `max_pairs_per_key` pairs;
//!   inserting into a full key evicts the oldest pair (FIFO), keeping
//!   store size — and fit cost — bounded without a clock.
//! * **Linear-time loads.** Keys and measurement sites are hash-indexed
//!   and eviction advances a live-range offset instead of shifting the
//!   pair vector, so every insertion is amortized O(1) and an untrusted
//!   file with a huge `max_pairs_per_key` loads in linear time.
//! * **Typed errors.** Loading reports I/O, JSON, and schema faults as
//!   distinct [`CalibError`] variants naming the file.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::mem;
use std::path::Path;

use mccm_core::Metric;
use mccm_json::{Json, JsonError};

/// Store schema version written to and checked from the file.
pub const STORE_VERSION: u64 = 1;

/// Default bound on pairs retained per `(board, precision, metric)` key.
pub const DEFAULT_MAX_PAIRS_PER_KEY: usize = 256;

/// Identifies one correction population: all pairs measured on the same
/// board at the same precision for the same metric.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Board name (e.g. `zc706`).
    pub board: String,
    /// Precision token (e.g. `w8a8`).
    pub precision: String,
    /// The calibrated metric.
    pub metric: Metric,
}

/// One (analytical, simulated) measurement of one design.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// CNN model name the design was built for.
    pub model: String,
    /// Batch size of the evaluation.
    pub batch: usize,
    /// Accelerator notation identifying the design.
    pub design: String,
    /// The analytical model's prediction.
    pub analytical: f64,
    /// The simulator's measurement.
    pub simulated: f64,
}

impl Pair {
    /// Whether `other` measures the same site (same model, batch, and
    /// design) — the dedup identity inside a key.
    pub fn same_site(&self, other: &Pair) -> bool {
        self.model == other.model && self.batch == other.batch && self.design == other.design
    }

    fn site(&self) -> Site {
        (self.model.clone(), self.batch, self.design.clone())
    }
}

/// A pair's measurement site `(model, batch, design)`.
type Site = (String, usize, String);

/// Error loading, parsing, or saving a calibration store.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibError {
    /// The file could not be read or written.
    Io {
        /// Store path.
        path: String,
        /// OS error text.
        detail: String,
    },
    /// The file is not valid JSON.
    Json {
        /// Store path.
        path: String,
        /// Parse error with byte offset.
        error: JsonError,
    },
    /// The JSON is well-formed but not a calibration store.
    Format {
        /// Store path.
        path: String,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for CalibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "calibration store `{path}`: {detail}"),
            Self::Json { path, error } => write!(f, "calibration store `{path}`: {error}"),
            Self::Format { path, detail } => {
                write!(f, "calibration store `{path}`: {detail}")
            }
        }
    }
}

impl Error for CalibError {}

/// Serialization token of a metric inside the store file (parsed back by
/// [`Metric::by_name`]).
pub fn metric_token(metric: Metric) -> &'static str {
    match metric {
        Metric::Latency => "latency",
        Metric::Throughput => "throughput",
        Metric::OnChipBuffers => "buffers",
        Metric::OffChipAccesses => "access",
        Metric::Energy => "energy",
    }
}

/// Insertion-ordered, bounded collection of calibration pairs (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct CalibStore {
    max_pairs_per_key: usize,
    /// Keys in insertion order.
    entries: Vec<KeyPairs>,
    /// Position of each key in `entries`.
    index: HashMap<StoreKey, usize>,
}

impl PartialEq for CalibStore {
    fn eq(&self, other: &Self) -> bool {
        self.max_pairs_per_key == other.max_pairs_per_key
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.key == b.key && a.live() == b.live())
    }
}

/// One key's pairs. `pairs[..dead]` are evicted entries awaiting
/// compaction; the live, insertion-ordered pairs are `pairs[dead..]`.
#[derive(Debug, Clone)]
struct KeyPairs {
    key: StoreKey,
    pairs: Vec<Pair>,
    dead: usize,
    /// Position in `pairs` of each live pair's site.
    sites: HashMap<Site, usize>,
}

impl KeyPairs {
    fn live(&self) -> &[Pair] {
        &self.pairs[self.dead..]
    }

    /// Drops the oldest live pair, compacting once half the vector is
    /// dead so eviction stays amortized O(1).
    fn evict_oldest(&mut self) {
        let oldest = &mut self.pairs[self.dead];
        let site = (
            mem::take(&mut oldest.model),
            oldest.batch,
            mem::take(&mut oldest.design),
        );
        self.sites.remove(&site);
        self.dead += 1;
        if 2 * self.dead >= self.pairs.len() {
            self.pairs.drain(..self.dead);
            for i in self.sites.values_mut() {
                *i -= self.dead;
            }
            self.dead = 0;
        }
    }
}

impl Default for CalibStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CalibStore {
    /// An empty store with the default per-key bound.
    pub fn new() -> Self {
        Self::with_max_pairs(DEFAULT_MAX_PAIRS_PER_KEY)
    }

    /// An empty store retaining at most `max_pairs_per_key` pairs per key
    /// (clamped to ≥ 1).
    pub fn with_max_pairs(max_pairs_per_key: usize) -> Self {
        Self {
            max_pairs_per_key: max_pairs_per_key.max(1),
            entries: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The per-key pair bound.
    pub fn max_pairs_per_key(&self) -> usize {
        self.max_pairs_per_key
    }

    /// Total pairs across all keys.
    pub fn pair_count(&self) -> usize {
        self.entries.iter().map(|e| e.live().len()).sum()
    }

    /// Whether the store holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pair_count() == 0
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &StoreKey> {
        self.entries.iter().map(|e| &e.key)
    }

    /// Pairs under `key`, in insertion order.
    pub fn pairs(&self, key: &StoreKey) -> &[Pair] {
        self.index.get(key).map_or(&[], |&i| self.entries[i].live())
    }

    /// Pairs for a `(board, precision, metric)` triple.
    pub fn pairs_for(&self, board: &str, precision: &str, metric: Metric) -> &[Pair] {
        self.pairs(&StoreKey {
            board: board.to_string(),
            precision: precision.to_string(),
            metric,
        })
    }

    /// Inserts one pair, returning whether the store changed.
    ///
    /// A pair for an already-measured site with identical values is a
    /// no-op (the idempotence `merge` relies on); with different values
    /// it replaces the stale measurement in place. A new site appends,
    /// evicting the oldest pair if the key is at its bound.
    pub fn insert(&mut self, key: StoreKey, pair: Pair) -> bool {
        let max = self.max_pairs_per_key;
        let entries = &mut self.entries;
        let idx = *self.index.entry(key).or_insert_with_key(|key| {
            entries.push(KeyPairs {
                key: key.clone(),
                pairs: Vec::new(),
                dead: 0,
                sites: HashMap::new(),
            });
            entries.len() - 1
        });
        let entry = &mut entries[idx];
        let site = pair.site();
        if let Some(&i) = entry.sites.get(&site) {
            let existing = &mut entry.pairs[i];
            if *existing == pair {
                return false;
            }
            *existing = pair;
            return true;
        }
        if entry.live().len() >= max {
            entry.evict_oldest();
        }
        entry.sites.insert(site, entry.pairs.len());
        entry.pairs.push(pair);
        true
    }

    /// Records one design's measurement — `(metric, analytical,
    /// simulated)` triples from [`crate::metric_pairs`] — under the
    /// `(board, precision)` platform, returning how many insertions
    /// changed the store.
    pub fn record(
        &mut self,
        board: &str,
        precision: &str,
        model: &str,
        batch: usize,
        design: &str,
        pairs: &[(Metric, f64, f64)],
    ) -> usize {
        let mut changed = 0;
        for &(metric, analytical, simulated) in pairs {
            let key = StoreKey {
                board: board.to_string(),
                precision: precision.to_string(),
                metric,
            };
            let pair = Pair {
                model: model.to_string(),
                batch,
                design: design.to_string(),
                analytical,
                simulated,
            };
            if self.insert(key, pair) {
                changed += 1;
            }
        }
        changed
    }

    /// Merges every pair of `other` into `self` (insertion order),
    /// returning how many insertions changed the store. Merging a store
    /// into an identical one returns 0 and leaves the bytes fixed.
    pub fn merge(&mut self, other: &CalibStore) -> usize {
        let mut changed = 0;
        for entry in &other.entries {
            for pair in entry.live() {
                if self.insert(entry.key.clone(), pair.clone()) {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// The store as a JSON value (insertion-ordered, no wall-clock
    /// fields).
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.push("version", STORE_VERSION);
        root.push("max_pairs_per_key", self.max_pairs_per_key);
        let mut keys = Vec::new();
        for entry in &self.entries {
            let key = &entry.key;
            let mut k = Json::object();
            k.push("board", key.board.as_str());
            k.push("precision", key.precision.as_str());
            k.push("metric", metric_token(key.metric));
            let mut ps = Vec::new();
            for p in entry.live() {
                let mut pj = Json::object();
                pj.push("model", p.model.as_str());
                pj.push("batch", p.batch);
                pj.push("design", p.design.as_str());
                pj.push("analytical", p.analytical);
                pj.push("simulated", p.simulated);
                ps.push(pj);
            }
            k.push("pairs", ps);
            keys.push(k);
        }
        root.push("keys", keys);
        root
    }

    /// Serializes to the compact on-disk byte form (deterministic).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_compact();
        s.push('\n');
        s
    }

    /// Parses a store from a JSON value; `path` labels errors.
    pub fn from_json(json: &Json, path: &str) -> Result<Self, CalibError> {
        let bad = |detail: String| CalibError::Format {
            path: path.to_string(),
            detail,
        };
        let version = json
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing `version`".into()))?;
        if version != STORE_VERSION {
            return Err(bad(format!(
                "unsupported store version {version} (expected {STORE_VERSION})"
            )));
        }
        let max = json
            .get("max_pairs_per_key")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing `max_pairs_per_key`".into()))?;
        let mut store = Self::with_max_pairs(max);
        let keys = json
            .get("keys")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing `keys` array".into()))?;
        for (i, k) in keys.iter().enumerate() {
            let field = |name: &str| {
                k.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("keys[{i}]: missing string `{name}`")))
            };
            let metric_name = field("metric")?;
            let metric = Metric::by_name(&metric_name)
                .ok_or_else(|| bad(format!("keys[{i}]: unknown metric `{metric_name}`")))?;
            let key = StoreKey {
                board: field("board")?,
                precision: field("precision")?,
                metric,
            };
            let pairs = k
                .get("pairs")
                .and_then(Json::as_array)
                .ok_or_else(|| bad(format!("keys[{i}]: missing `pairs` array")))?;
            for (j, p) in pairs.iter().enumerate() {
                let strf = |name: &str| {
                    p.get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| {
                            bad(format!("keys[{i}].pairs[{j}]: missing string `{name}`"))
                        })
                };
                let numf = |name: &str| {
                    p.get(name).and_then(Json::as_f64).ok_or_else(|| {
                        bad(format!("keys[{i}].pairs[{j}]: missing number `{name}`"))
                    })
                };
                let pair = Pair {
                    model: strf("model")?,
                    batch: p
                        .get("batch")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| bad(format!("keys[{i}].pairs[{j}]: missing `batch`")))?,
                    design: strf("design")?,
                    analytical: numf("analytical")?,
                    simulated: numf("simulated")?,
                };
                store.insert(key.clone(), pair);
            }
        }
        Ok(store)
    }

    /// Parses a store from its serialized text; `path` labels errors.
    pub fn from_json_str(text: &str, path: &str) -> Result<Self, CalibError> {
        let json = Json::parse(text).map_err(|error| CalibError::Json {
            path: path.to_string(),
            error,
        })?;
        Self::from_json(&json, path)
    }

    /// Loads a store from disk.
    ///
    /// # Errors
    ///
    /// [`CalibError`] naming the path for unreadable files, invalid
    /// JSON, or schema mismatches.
    pub fn load(path: &Path) -> Result<Self, CalibError> {
        let text = fs::read_to_string(path).map_err(|e| CalibError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_json_str(&text, &path.display().to_string())
    }

    /// Loads a store, treating a missing file as an empty store (the
    /// first run of a fresh store path).
    pub fn load_or_empty(path: &Path) -> Result<Self, CalibError> {
        if path.exists() {
            Self::load(path)
        } else {
            Ok(Self::new())
        }
    }

    /// Writes the store's deterministic byte form to disk.
    ///
    /// # Errors
    ///
    /// [`CalibError::Io`] naming the path.
    pub fn save(&self, path: &Path) -> Result<(), CalibError> {
        fs::write(path, self.to_json_string()).map_err(|e| CalibError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(metric: Metric) -> StoreKey {
        StoreKey {
            board: "zc706".into(),
            precision: "w8a8".into(),
            metric,
        }
    }

    fn pair(design: &str, analytical: f64, simulated: f64) -> Pair {
        Pair {
            model: "mobilenetv2".into(),
            batch: 1,
            design: design.into(),
            analytical,
            simulated,
        }
    }

    #[test]
    fn insert_is_idempotent_per_site() {
        let mut s = CalibStore::new();
        assert!(s.insert(key(Metric::Latency), pair("d1", 1.0, 1.1)));
        assert!(!s.insert(key(Metric::Latency), pair("d1", 1.0, 1.1)));
        assert_eq!(s.pair_count(), 1);
        // Same site, new values: replaces in place.
        assert!(s.insert(key(Metric::Latency), pair("d1", 1.0, 1.2)));
        assert_eq!(s.pair_count(), 1);
        assert_eq!(s.pairs(&key(Metric::Latency))[0].simulated, 1.2);
    }

    #[test]
    fn bound_evicts_oldest() {
        let mut s = CalibStore::with_max_pairs(2);
        s.insert(key(Metric::Latency), pair("d1", 1.0, 1.1));
        s.insert(key(Metric::Latency), pair("d2", 2.0, 2.1));
        s.insert(key(Metric::Latency), pair("d3", 3.0, 3.1));
        let pairs = s.pairs(&key(Metric::Latency));
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].design, "d2");
        assert_eq!(pairs[1].design, "d3");
    }

    #[test]
    fn merge_into_self_is_fixed_point() {
        let mut s = CalibStore::new();
        s.insert(key(Metric::Latency), pair("d1", 1.0, 1.1));
        s.insert(key(Metric::Throughput), pair("d1", 100.0, 95.0));
        let before = s.to_json_string();
        let twin = s.clone();
        assert_eq!(s.merge(&twin), 0);
        assert_eq!(s.to_json_string(), before);
    }

    /// Ratio guard, not an absolute time: a store file holding `8 * n`
    /// pairs under one key must load in under 16x the time of one with
    /// `n` (a quadratic insert takes ~64x). `max_of(pairs)` sets the
    /// file's per-key bound. Best of 3 loads per size.
    fn assert_loads_linearly(n: usize, max_of: impl Fn(usize) -> usize) {
        let best_load_secs = |pairs: usize| {
            let mut s = CalibStore::with_max_pairs(pairs);
            for i in 0..pairs {
                s.insert(key(Metric::Latency), pair(&format!("d{i}"), 1.0, 1.1));
            }
            let max = max_of(pairs);
            s.max_pairs_per_key = max;
            let text = s.to_json_string();
            (0..3)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let back = CalibStore::from_json_str(&text, "test").unwrap();
                    let secs = start.elapsed().as_secs_f64();
                    let live = back.pairs(&key(Metric::Latency));
                    assert_eq!(live.len(), pairs.min(max));
                    assert_eq!(live[live.len() - 1].design, format!("d{}", pairs - 1));
                    secs
                })
                .fold(f64::INFINITY, f64::min)
        };
        let small = best_load_secs(n);
        let large = best_load_secs(8 * n);
        assert!(
            large < 16.0 * small,
            "8x pairs took {:.1}x the time ({large:.6}s vs {small:.6}s)",
            large / small
        );
    }

    #[test]
    fn store_load_scales_linearly() {
        assert_loads_linearly(2048, |pairs| pairs);
    }

    #[test]
    fn store_load_with_eviction_scales_linearly() {
        // Three quarters of the file's pairs are evicted while it loads.
        assert_loads_linearly(2048, |pairs| pairs / 4);
    }

    #[test]
    fn eviction_and_compaction_keep_sites_indexed() {
        let mut s = CalibStore::with_max_pairs(3);
        for i in 0..10 {
            assert!(s.insert(key(Metric::Latency), pair(&format!("d{i}"), 1.0, 1.1)));
        }
        let designs: Vec<&str> = s
            .pairs(&key(Metric::Latency))
            .iter()
            .map(|p| p.design.as_str())
            .collect();
        assert_eq!(designs, ["d7", "d8", "d9"]);
        // Surviving sites still dedupe and update in place; evicted ones
        // come back as new pairs.
        assert!(!s.insert(key(Metric::Latency), pair("d8", 1.0, 1.1)));
        assert!(s.insert(key(Metric::Latency), pair("d8", 1.0, 1.2)));
        assert_eq!(s.pairs(&key(Metric::Latency))[1].simulated, 1.2);
        assert!(s.insert(key(Metric::Latency), pair("d0", 1.0, 1.1)));
        assert_eq!(s.pairs(&key(Metric::Latency))[2].design, "d0");
        assert_eq!(s.pair_count(), 3);
    }

    #[test]
    fn json_round_trip_preserves_bytes() {
        let mut s = CalibStore::new();
        s.insert(key(Metric::Latency), pair("d1", 0.01, 0.0125));
        s.insert(key(Metric::OnChipBuffers), pair("d1", 1024.0, 4608.0));
        let text = s.to_json_string();
        let back = CalibStore::from_json_str(&text, "test").unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn format_errors_name_the_fault() {
        let err = CalibStore::from_json_str("{\"version\": 9}", "p").unwrap_err();
        match err {
            CalibError::Format { detail, .. } => assert!(detail.contains("version 9")),
            other => panic!("unexpected {other:?}"),
        }
        let err = CalibStore::from_json_str("not json", "p").unwrap_err();
        assert!(matches!(err, CalibError::Json { .. }));
    }
}

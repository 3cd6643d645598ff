//! [`DatasetRegistry`]: a cache of served datasets keyed by dataset id.
//!
//! A long-lived server answers queries against many datasets, and preparing
//! one (loading it into its own external-memory context) is the cost
//! [`MaxRsEngine::prepare`] pays once per dataset.  The registry caches
//! prepared datasets behind ref-counted handles so concurrent batches share
//! one preparation, and it enforces a configurable memory budget with LRU
//! eviction: when the retained footprint
//! ([`PreparedDataset::resident_bytes`]) of the cached datasets exceeds the
//! budget, the least-recently-used entries are dropped from the cache.
//!
//! Eviction never invalidates in-flight work: a [`DatasetHandle`] is an
//! `Arc`, so a dataset stays alive (and its retained file on disk) until the
//! last handle drops — eviction only stops *new* lookups from finding it.
//! The RAII drop of [`PreparedDataset`] then deletes the retained blocks, so
//! a registry churning through datasets never leaks disk space.
//!
//! Entries come in two serving shapes (see [`ServedDataset`]): prepared
//! datasets ([`DatasetRegistry::insert`]) and **cluster** entries
//! ([`DatasetRegistry::insert_cluster`]) fronting a
//! [`ClusterCoordinator`] whose shards live on shard servers.  Cluster
//! entries charge nothing against the memory budget — their data is
//! resident on the servers, not in this process.
//!
//! # Dynamic datasets
//!
//! An entry registered with [`DatasetRegistry::insert_dynamic`] additionally
//! carries a live [`DeltaDataset`]: [`DatasetRegistry::apply`] applies a
//! batch of [`Event`]s to its live objects, takes a fresh immutable snapshot
//! (a prepare of the live objects) and swaps it in as the entry's served
//! dataset.  Readers are never torn: queries in flight keep their pre-update
//! snapshot handle, queries admitted after the swap see the post-update
//! snapshot, and nothing in between exists.

use std::collections::HashMap;
use std::sync::Arc;

use maxrs_cluster::ClusterCoordinator;
use maxrs_core::{
    DeltaDataset, DeltaOptions, Event, MaxRsEngine, PreparedDataset, Query, QueryBatch, QueryRun,
};
use maxrs_em::IoSnapshot;
use maxrs_geometry::WeightedPoint;
use parking_lot::Mutex;

use crate::error::{Result, ServeError};

/// A ref-counted handle to a cached dataset.  Cloning is cheap; the dataset
/// (and its retained object files) lives until the last handle drops.
pub type DatasetHandle = Arc<ServedDataset>;

/// What a registry entry serves: an unsharded [`PreparedDataset`] or a
/// [`ClusterCoordinator`] whose shards live on shard servers behind a
/// transport.  Both answer every [`Query`] variant bit-identically through
/// the same interface, so the batching executor treats them uniformly.
#[derive(Debug)]
pub enum ServedDataset {
    /// A single prepared dataset (one object file, one device).
    Prepared(PreparedDataset<'static>),
    /// A multi-node cluster of shard servers
    /// ([`maxrs_cluster::ClusterCoordinator`]).
    Cluster(ClusterCoordinator),
}

impl ServedDataset {
    /// Answers one query.
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        match self {
            ServedDataset::Prepared(d) => Ok(d.run(query)?),
            ServedDataset::Cluster(d) => Ok(d.run(query)?),
        }
    }

    /// Plans and answers a batch of queries in shared sweep passes.
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        match self {
            ServedDataset::Prepared(d) => Ok(d.run_batch(queries)?),
            ServedDataset::Cluster(d) => Ok(d.run_batch(queries)?),
        }
    }

    /// Executes an already planned batch.
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        match self {
            ServedDataset::Prepared(d) => Ok(d.run_planned(batch)?),
            ServedDataset::Cluster(d) => Ok(d.run_planned(batch)?),
        }
    }

    /// Total number of objects.
    pub fn len(&self) -> u64 {
        match self {
            ServedDataset::Prepared(d) => d.len(),
            ServedDataset::Cluster(d) => d.len(),
        }
    }

    /// `true` when the dataset holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated retained bytes **in this process** — the quantity the
    /// registry's memory budget bounds.  Cluster entries report 0: their
    /// shard data is resident on the remote servers, so caching the
    /// coordinator costs this process nothing the budget should account
    /// for.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            ServedDataset::Prepared(d) => d.resident_bytes(),
            ServedDataset::Cluster(_) => 0,
        }
    }

    /// Blocks transferred by the one-time preparation (summed over shards
    /// when clustered).
    pub fn prepare_io(&self) -> IoSnapshot {
        match self {
            ServedDataset::Prepared(d) => d.prepare_io(),
            ServedDataset::Cluster(d) => d.prepare_io(),
        }
    }

    /// `true` when the dataset is stored externally (cluster datasets
    /// always are; a prepared dataset may have stayed in memory).
    pub fn is_external(&self) -> bool {
        match self {
            ServedDataset::Prepared(d) => d.is_external(),
            ServedDataset::Cluster(_) => true,
        }
    }

    /// Storage-backend name of the dataset's context, when it has one
    /// (`None` for a prepared dataset that stayed fully in memory; for
    /// clusters, the backend the remote servers reported at handshake when
    /// it is one of the known names).
    pub fn backend_name(&self) -> Option<&'static str> {
        match self {
            ServedDataset::Prepared(d) => d.backend_name(),
            ServedDataset::Cluster(d) => match d.backend_name() {
                "sim" => Some("sim"),
                "fs" => Some("fs"),
                _ => None,
            },
        }
    }

    /// Number of shards serving this dataset: 1 unless clustered.
    pub fn num_shards(&self) -> usize {
        match self {
            ServedDataset::Prepared(_) => 1,
            ServedDataset::Cluster(d) => d.num_shards(),
        }
    }
}

struct Entry {
    data: DatasetHandle,
    /// The [`DeltaDataset`] behind a dynamic entry; `None` for static
    /// datasets registered with [`DatasetRegistry::insert`].
    dynamic: Option<Arc<Mutex<DeltaDataset>>>,
    bytes: u64,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    /// Logical clock for LRU ordering: bumped on every insert/get.
    tick: u64,
    /// Sum of `bytes` over the cached entries.
    resident: u64,
}

/// A concurrent cache of prepared datasets keyed by dataset id, with
/// ref-counted handles and LRU eviction under a memory budget.
///
/// ```
/// use maxrs_core::{MaxRsEngine, Query};
/// use maxrs_geometry::{RectSize, WeightedPoint};
/// use maxrs_serve::DatasetRegistry;
///
/// let registry = DatasetRegistry::new(MaxRsEngine::new());
/// let cafes = vec![
///     WeightedPoint::unit(1.0, 1.0),
///     WeightedPoint::unit(1.4, 1.2),
///     WeightedPoint::unit(6.0, 6.0),
/// ];
/// registry.insert("cafes", &cafes).unwrap();
///
/// let handle = registry.get("cafes").unwrap();
/// let run = handle.run(&Query::max_rs(RectSize::square(2.0))).unwrap();
/// assert_eq!(run.answer.best_weight(), 2.0);
/// ```
pub struct DatasetRegistry {
    engine: MaxRsEngine,
    budget_bytes: Option<u64>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for DatasetRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("DatasetRegistry")
            .field("datasets", &inner.entries.len())
            .field("resident_bytes", &inner.resident)
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

impl DatasetRegistry {
    /// Creates an unbounded registry preparing datasets with `engine`'s
    /// configuration (memory budget disabled: nothing is ever evicted).
    pub fn new(engine: MaxRsEngine) -> Self {
        DatasetRegistry {
            engine,
            budget_bytes: None,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                resident: 0,
            }),
        }
    }

    /// Creates a registry evicting least-recently-used datasets once the
    /// cached retained footprint exceeds `budget_bytes`.  The most recently
    /// touched dataset is never evicted, so a single dataset larger than the
    /// budget still serves (the budget bounds the *cache*, not one dataset).
    pub fn with_budget(engine: MaxRsEngine, budget_bytes: u64) -> Self {
        DatasetRegistry {
            budget_bytes: Some(budget_bytes),
            ..Self::new(engine)
        }
    }

    /// Prepares `objects` (loads them once) and caches the result under
    /// `id`, returning a handle.  Replaces any dataset already
    /// cached under the same id — existing handles to the replaced dataset
    /// stay valid until dropped.  May evict least-recently-used *other*
    /// entries to respect the memory budget.
    ///
    /// Preparation runs outside the registry lock, so concurrent lookups of
    /// other datasets never stall behind a slow load.
    pub fn insert(&self, id: &str, objects: &[WeightedPoint]) -> Result<DatasetHandle> {
        let prepared: DatasetHandle =
            Arc::new(ServedDataset::Prepared(self.engine.prepare(objects)?));
        self.install(id, prepared, None)
    }

    /// Caches an already-connected [`ClusterCoordinator`] under `id`, so a
    /// multi-node cluster serves behind the same [`DatasetHandle`] interface
    /// (and through [`MaxRsServer`](crate::MaxRsServer)'s batching executor)
    /// as local datasets.  Cluster entries charge **0 bytes** against the
    /// registry's memory budget: the shard data is resident on the remote
    /// servers, not in this process, so a cluster entry is never the reason
    /// an LRU eviction fires — and is itself evicted only by replacement or
    /// [`evict`](DatasetRegistry::evict).
    pub fn insert_cluster(&self, id: &str, cluster: ClusterCoordinator) -> Result<DatasetHandle> {
        let served: DatasetHandle = Arc::new(ServedDataset::Cluster(cluster));
        self.install(id, served, None)
    }

    /// Registers a **dynamic** dataset under `id`: a [`DeltaDataset`] seeded
    /// by replaying `events`, whose current snapshot is cached and served
    /// exactly like a static dataset.  Later [`apply`](DatasetRegistry::apply)
    /// calls apply further events to it and swap in fresh snapshots.
    /// Replaces any dataset (static or dynamic) already cached under the id.
    pub fn insert_dynamic(
        &self,
        id: &str,
        events: &[Event],
        options: DeltaOptions,
    ) -> Result<DatasetHandle> {
        let mut delta = DeltaDataset::new(&self.engine, options)?;
        delta.apply(events)?;
        let prepared: DatasetHandle = Arc::new(ServedDataset::Prepared(delta.snapshot()?));
        self.install(id, prepared, Some(Arc::new(Mutex::new(delta))))
    }

    /// Applies a batch of events to the dynamic dataset under `id` and swaps
    /// a fresh snapshot in as the served dataset, returning a handle to it.
    ///
    /// The update and the snapshot both run under a **per-dataset** lock,
    /// outside the registry lock: lookups and queries against other datasets
    /// never stall, and queries against this one keep answering from the
    /// pre-update snapshot until the swap.
    /// Every concurrent reader therefore sees exactly one of the two legal
    /// snapshots — pre-batch or post-batch — never a torn intermediate.
    ///
    /// Errors with [`ServeError::UnknownDataset`] for unregistered/evicted
    /// ids and [`ServeError::StaticDataset`] for datasets registered with
    /// [`insert`](DatasetRegistry::insert).
    pub fn apply(&self, id: &str, events: &[Event]) -> Result<DatasetHandle> {
        let dynamic = {
            let inner = self.inner.lock();
            let entry = inner
                .entries
                .get(id)
                .ok_or_else(|| ServeError::UnknownDataset(id.to_string()))?;
            entry
                .dynamic
                .clone()
                .ok_or_else(|| ServeError::StaticDataset(id.to_string()))?
        };
        let prepared: DatasetHandle = {
            let mut delta = dynamic.lock();
            delta.apply(events)?;
            Arc::new(ServedDataset::Prepared(delta.snapshot()?))
        };
        let bytes = prepared.resident_bytes();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(id) {
            Some(entry)
                if entry
                    .dynamic
                    .as_ref()
                    .is_some_and(|d| Arc::ptr_eq(d, &dynamic)) =>
            {
                inner.resident = inner.resident - entry.bytes + bytes;
                entry.bytes = bytes;
                entry.data = Arc::clone(&prepared);
                entry.last_used = tick;
            }
            // The entry was evicted or replaced while the update ran: the
            // events are safely in the delta we hold, but the cache has moved
            // on — don't resurrect the entry behind its replacement's back.
            _ => {}
        }
        self.evict_over_budget(inner);
        Ok(prepared)
    }

    /// `true` when `id` is cached and carries an update path.
    pub fn is_dynamic(&self, id: &str) -> bool {
        self.inner
            .lock()
            .entries
            .get(id)
            .is_some_and(|e| e.dynamic.is_some())
    }

    /// Caches `prepared` under `id`, replacing and re-accounting any previous
    /// entry and evicting over budget.
    fn install(
        &self,
        id: &str,
        prepared: DatasetHandle,
        dynamic: Option<Arc<Mutex<DeltaDataset>>>,
    ) -> Result<DatasetHandle> {
        let bytes = prepared.resident_bytes();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let last_used = inner.tick;
        if let Some(old) = inner.entries.insert(
            id.to_string(),
            Entry {
                data: Arc::clone(&prepared),
                dynamic,
                bytes,
                last_used,
            },
        ) {
            inner.resident -= old.bytes;
        }
        inner.resident += bytes;
        self.evict_over_budget(&mut inner);
        Ok(prepared)
    }

    /// Looks up a dataset, refreshing its LRU position.  `None` when the id
    /// was never registered or has been evicted.
    pub fn get(&self, id: &str) -> Option<DatasetHandle> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(id)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.data))
    }

    /// Drops `id` from the cache, returning whether it was present.  Handles
    /// already given out stay valid; the dataset's retained file is deleted
    /// when the last one drops.
    pub fn evict(&self, id: &str) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.remove(id) {
            Some(entry) => {
                inner.resident -= entry.bytes;
                true
            }
            None => false,
        }
    }

    /// `true` when a dataset is cached under `id`.
    pub fn contains(&self, id: &str) -> bool {
        self.inner.lock().entries.contains_key(id)
    }

    /// Number of cached datasets.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// `true` when no datasets are cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }

    /// Estimated retained bytes of the cached datasets (the quantity the
    /// memory budget bounds).
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().resident
    }

    /// The configured memory budget, `None` when unbounded.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Evicts least-recently-used entries until the footprint fits the
    /// budget, always keeping the most recently touched entry.
    fn evict_over_budget(&self, inner: &mut Inner) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while inner.resident > budget && inner.entries.len() > 1 {
            let (victim, newest) = {
                let mut by_use = inner.entries.iter().map(|(id, e)| (e.last_used, id));
                let first = by_use.next().expect("len > 1 checked above");
                let (mut victim, mut newest) = (first, first);
                for candidate in by_use {
                    if candidate.0 < victim.0 {
                        victim = candidate;
                    }
                    if candidate.0 > newest.0 {
                        newest = candidate;
                    }
                }
                (victim.1.clone(), newest.1.clone())
            };
            if victim == newest {
                break;
            }
            let entry = inner.entries.remove(&victim).expect("victim exists");
            inner.resident -= entry.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_core::{EngineOptions, ExactMaxRsOptions, Query};
    use maxrs_em::EmConfig;
    use maxrs_geometry::RectSize;

    fn objects(n: usize, seed: u64) -> Vec<WeightedPoint> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                WeightedPoint::at(
                    next() * 1000.0,
                    next() * 1000.0,
                    1.0 + (next() * 4.0).floor(),
                )
            })
            .collect()
    }

    fn external_engine() -> MaxRsEngine {
        MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 32 * 512).unwrap(),
            exact: ExactMaxRsOptions {
                memory_rects: Some(64),
                parallelism: 1,
                ..Default::default()
            },
            force_strategy: None,
        })
    }

    #[test]
    fn insert_get_evict_roundtrip() {
        let registry = DatasetRegistry::new(MaxRsEngine::new());
        assert!(registry.is_empty());
        assert!(registry.get("missing").is_none());
        registry.insert("a", &objects(50, 3)).unwrap();
        assert!(registry.contains("a"));
        assert_eq!(registry.len(), 1);
        let handle = registry.get("a").unwrap();
        let run = handle.run(&Query::max_rs(RectSize::square(100.0))).unwrap();
        assert!(run.answer.best_weight() >= 1.0);
        assert!(registry.evict("a"));
        assert!(!registry.evict("a"));
        // The outstanding handle still answers after eviction.
        assert!(handle.run(&Query::max_rs(RectSize::square(100.0))).is_ok());
        assert!(registry.is_empty());
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let engine = external_engine();
        let probe = Arc::new(engine.prepare(&objects(600, 1)).unwrap());
        let per_dataset = probe.resident_bytes();
        assert!(per_dataset > 0);
        drop(probe);

        // Budget fits two datasets of this size, not three.
        let registry = DatasetRegistry::with_budget(external_engine(), 2 * per_dataset);
        registry.insert("a", &objects(600, 1)).unwrap();
        registry.insert("b", &objects(600, 2)).unwrap();
        assert_eq!(registry.len(), 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert!(registry.get("a").is_some());
        registry.insert("c", &objects(600, 3)).unwrap();
        assert_eq!(registry.len(), 2);
        assert!(registry.contains("a"), "recently used survives");
        assert!(!registry.contains("b"), "LRU entry evicted");
        assert!(registry.contains("c"), "new entry never self-evicts");
        assert!(registry.resident_bytes() <= 2 * per_dataset);
    }

    #[test]
    fn single_oversized_dataset_is_kept() {
        let registry = DatasetRegistry::with_budget(external_engine(), 1);
        registry.insert("huge", &objects(600, 9)).unwrap();
        assert!(registry.contains("huge"));
        assert!(registry.resident_bytes() > 1);
        // A second insert evicts the older oversized entry.
        registry.insert("huge2", &objects(600, 10)).unwrap();
        assert!(!registry.contains("huge"));
        assert!(registry.contains("huge2"));
    }

    #[test]
    fn dynamic_datasets_apply_events_and_swap_snapshots() {
        use maxrs_core::{DeltaOptions, Event};

        let registry = DatasetRegistry::new(external_engine());
        let seed: Vec<Event> = objects(600, 21)
            .iter()
            .enumerate()
            .map(|(i, o)| Event::insert(i as u64, o.point.x, o.point.y, o.weight, i as f64))
            .collect();
        let before = registry
            .insert_dynamic("live", &seed, DeltaOptions::default())
            .unwrap();
        assert!(registry.is_dynamic("live"));
        assert!(!registry.is_dynamic("missing"));

        // Updates swap the served snapshot; the old handle keeps answering.
        let events: Vec<Event> = (0..100)
            .map(|i| Event::delete(i as u64, 1000.0 + i as f64))
            .collect();
        let after = registry.apply("live", &events).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.len(), before.len() - 100);
        let current = registry.get("live").unwrap();
        assert!(Arc::ptr_eq(&current, &after));
        let query = Query::max_rs(RectSize::square(150.0));
        assert!(before.run(&query).is_ok());
        assert_eq!(
            after.run(&query).unwrap().answer,
            current.run(&query).unwrap().answer
        );

        // Static entries refuse updates; unknown ids fail lookup.
        registry.insert("static", &objects(50, 5)).unwrap();
        assert!(!registry.is_dynamic("static"));
        assert!(matches!(
            registry.apply("static", &events),
            Err(crate::ServeError::StaticDataset(id)) if id == "static"
        ));
        assert!(matches!(
            registry.apply("nope", &events),
            Err(crate::ServeError::UnknownDataset(id)) if id == "nope"
        ));
    }

    #[test]
    fn applying_after_eviction_still_returns_a_valid_handle() {
        use maxrs_core::{DeltaOptions, Event};

        let registry = DatasetRegistry::new(external_engine());
        let seed: Vec<Event> = (0..50)
            .map(|i| Event::insert(i, i as f64, i as f64, 1.0, i as f64))
            .collect();
        registry
            .insert_dynamic("live", &seed, DeltaOptions::default())
            .unwrap();
        let dynamic_handle = registry.get("live").unwrap();
        assert!(registry.evict("live"));
        drop(dynamic_handle);
        // The id is gone; apply reports it rather than resurrecting it.
        assert!(matches!(
            registry.apply("live", &[Event::delete(0, 100.0)]),
            Err(crate::ServeError::UnknownDataset(_))
        ));
    }

    #[test]
    fn replacing_an_id_updates_accounting() {
        let registry = DatasetRegistry::new(external_engine());
        registry.insert("a", &objects(600, 4)).unwrap();
        let before = registry.resident_bytes();
        registry.insert("a", &objects(600, 5)).unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.resident_bytes(), before);
    }
}

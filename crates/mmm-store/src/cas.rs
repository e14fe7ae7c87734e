//! Content-addressed blob store with chunk-level deduplication, refcount
//! GC, and an LRU recovery cache.
//!
//! Motivated by NeurStore-style tensor deduplication: the paper's Update
//! approach exploits redundancy only between a model and its immediate
//! base version, while a content-addressed store deduplicates identical
//! layers across *all* models, sets, and versions at once.
//!
//! # Layout
//!
//! A logical blob `key` is stored as a small **manifest** file at `key`
//! itself, listing chunk digests, while chunk payloads live under
//! `cas/chunks/<hash>-<len>.bin`. Chunk identity is the pair
//! (xxhash64 of the bytes, byte length); the length component guards the
//! non-cryptographic hash against accidental collisions between blobs of
//! different sizes. Callers pass *semantic* chunk boundaries (per-layer
//! parameter spans) via [`CasStore::put_with_boundaries`] so identical
//! layers become identical chunks regardless of their position in the
//! enclosing blob; boundary-less puts fall back to fixed-size chunking.
//!
//! # Accounting
//!
//! A deduplicated chunk costs no store round-trip: only *new* chunk
//! payloads and the manifest are written through the charged
//! [`FileStore`] path. Storage consumption as measured by
//! [`crate::stats::StoreStats`] therefore drops exactly by the bytes that
//! dedup avoided writing. Symmetrically, a recovery-cache hit serves
//! chunk bytes from memory with **zero** simulated latency, which is what
//! makes warm `recover_models` runs measurably faster on the virtual
//! clock.
//!
//! # Crash consistency
//!
//! The manifest write is the commit point of a put: chunks are written
//! first, so a crash can only leak *unreferenced* chunks (plus in-memory
//! refcount drift that dies with the process). Leaked chunks are found by
//! [`CasStore::audit`] and reclaimed by [`CasStore::reclaim_orphans`];
//! they never corrupt live blobs. The in-memory indexes (chunk
//! refcounts, and each logical key's length) are rebuilt from the
//! manifests on every [`CasStore::open`], so they never have to be
//! persisted atomically.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use mmm_obs::Observer;
use mmm_util::{codec, xxhash64, Error, Result, Unpoison, VirtualClock};

use crate::fault::FaultInjector;
use crate::file_store::FileStore;
use crate::profile::LatencyProfile;
use crate::stats::StoreStats;

/// Reserved key namespace for chunk payloads (and any future CAS
/// bookkeeping). Logical blob keys must not start with this prefix.
pub const CAS_PREFIX: &str = "cas/";

/// Directory prefix under which chunk payloads are stored.
const CHUNK_PREFIX: &str = "cas/chunks/";

/// Manifest magic bytes ("MMCS" = mmm content store).
const MANIFEST_MAGIC: [u8; 4] = *b"MMCS";

/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;

/// Default maximum chunk size for boundary-less puts, and the cap applied
/// to caller-supplied spans. 64 KiB keeps manifests small while still
/// splitting multi-megabyte parameter buffers into reusable pieces.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// Default recovery-cache budget (64 MiB).
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Each logical key's length, as its manifest states it; `None` for a
/// manifest that is on disk but does not decode.
type KeyIndex = BTreeMap<String, Option<u64>>;

/// Identity of one stored chunk: content digest plus exact length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ChunkId {
    hash: u64,
    len: u32,
}

impl ChunkId {
    fn of(data: &[u8]) -> Self {
        ChunkId { hash: xxhash64(data, 0), len: data.len() as u32 }
    }

    /// The blob key the chunk payload is stored under.
    fn key(&self) -> String {
        format!("{CHUNK_PREFIX}{:016x}-{:08x}.bin", self.hash, self.len)
    }

    /// Inverse of [`ChunkId::key`]; `None` for foreign keys.
    fn parse_key(key: &str) -> Option<ChunkId> {
        let name = key.strip_prefix(CHUNK_PREFIX)?.strip_suffix(".bin")?;
        let (h, l) = name.split_once('-')?;
        Some(ChunkId {
            hash: u64::from_str_radix(h, 16).ok()?,
            len: u32::from_str_radix(l, 16).ok()?,
        })
    }
}

/// Tuning knobs for a [`CasStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CasConfig {
    /// Maximum chunk size in bytes; spans larger than this are split.
    pub chunk_size: usize,
    /// Recovery-cache byte budget; `0` disables caching entirely.
    pub cache_bytes: u64,
}

impl Default for CasConfig {
    fn default() -> Self {
        CasConfig { chunk_size: DEFAULT_CHUNK_SIZE, cache_bytes: DEFAULT_CACHE_BYTES }
    }
}

/// Monotone counters describing dedup and cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CasCounters {
    /// Chunk payloads actually written to the underlying store.
    pub chunk_puts: u64,
    /// Bytes of chunk payloads actually written.
    pub chunk_put_bytes: u64,
    /// Chunks deduplicated on put (refcount bumped, no write).
    pub dedup_hits: u64,
    /// Bytes that deduplication avoided writing.
    pub dedup_bytes: u64,
    /// Chunk reads served from the recovery cache.
    pub cache_hits: u64,
    /// Bytes served from the recovery cache.
    pub cache_hit_bytes: u64,
    /// Chunk reads that missed the cache and hit the store.
    pub cache_misses: u64,
}

#[derive(Debug, Default)]
struct AtomicCounters {
    chunk_puts: AtomicU64,
    chunk_put_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    dedup_bytes: AtomicU64,
    cache_hits: AtomicU64,
    cache_hit_bytes: AtomicU64,
    cache_misses: AtomicU64,
}

/// One cached chunk payload with its LRU stamp.
#[derive(Debug)]
struct CacheEntry {
    bytes: Vec<u8>,
    stamp: u64,
}

/// Mutable CAS bookkeeping: refcount index plus the LRU cache. One mutex
/// guards both so a put's check-then-write on a chunk is atomic with
/// respect to concurrent puts of the same content from parallel lanes.
#[derive(Debug, Default)]
struct CasState {
    /// Live references per chunk, as implied by the stored manifests.
    refs: HashMap<ChunkId, u32>,
    /// Recovery cache: chunk → payload, LRU-evicted by byte budget.
    cache: HashMap<ChunkId, CacheEntry>,
    cache_used: u64,
    tick: u64,
}

impl CasState {
    fn cache_insert(&mut self, id: ChunkId, bytes: Vec<u8>, budget: u64) {
        let len = bytes.len() as u64;
        if len == 0 || len > budget || self.cache.contains_key(&id) {
            return;
        }
        while self.cache_used + len > budget {
            // Evict the least-recently-used entry (linear scan: the cache
            // holds at most budget/len entries and eviction is rare
            // relative to hits).
            let Some((&victim, _)) = self.cache.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            if let Some(e) = self.cache.remove(&victim) {
                self.cache_used -= e.bytes.len() as u64;
            }
        }
        self.cache_used += len;
        self.tick += 1;
        let stamp = self.tick;
        self.cache.insert(id, CacheEntry { bytes, stamp });
    }

    fn cache_remove(&mut self, id: &ChunkId) {
        if let Some(e) = self.cache.remove(id) {
            self.cache_used -= e.bytes.len() as u64;
        }
    }
}

/// Result of a [`CasStore::audit`]: how the on-disk chunk population
/// relates to what the manifests reference.
#[derive(Debug, Clone, Default)]
pub struct CasAudit {
    /// Logical blobs (manifests) scanned.
    pub manifests: usize,
    /// Distinct chunks referenced by at least one manifest.
    pub referenced_chunks: usize,
    /// Chunk keys present on disk but referenced by no manifest
    /// (crash-leaked or left by interrupted GC) — safe to reclaim.
    pub orphan_chunks: Vec<String>,
    /// Chunks whose stored bytes no longer match their digest or length,
    /// with the logical blob keys that reference them.
    pub corrupt_chunks: Vec<(String, Vec<String>)>,
    /// Chunks referenced by a manifest but missing on disk, with the
    /// logical blob keys that reference them.
    pub missing_chunks: Vec<(String, Vec<String>)>,
    /// Entries where the in-memory refcount disagreed with the manifests
    /// (e.g. drift from a failed put); the index is resynced by the audit.
    pub refcount_drift: usize,
}

impl CasAudit {
    /// Whether the chunk store is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.orphan_chunks.is_empty()
            && self.corrupt_chunks.is_empty()
            && self.missing_chunks.is_empty()
            && self.refcount_drift == 0
    }
}

/// A content-addressed blob store layered over a [`FileStore`].
///
/// Presents the same logical key→blob API as [`FileStore`] (put / get /
/// ranged get / delete / list), but stores blobs as chunk manifests so
/// identical content is written and billed once. See the module docs for
/// the layout, accounting, and crash-consistency model.
#[derive(Debug)]
pub struct CasStore {
    inner: FileStore,
    profile: LatencyProfile,
    config: CasConfig,
    state: Mutex<CasState>,
    /// Answers `size`, `exists` and `list_keys` without a disk read; kept
    /// in step by put and delete. Its own lock, because `state` is held
    /// across every chunk write of a put.
    keys: RwLock<KeyIndex>,
    counters: AtomicCounters,
    obs: Observer,
}

impl CasStore {
    /// Open (creating if needed) a content-addressed store rooted at
    /// `dir`, rebuilding both indexes from the stored manifests.
    pub fn open(
        dir: impl AsRef<Path>,
        profile: LatencyProfile,
        clock: VirtualClock,
        stats: StoreStats,
        faults: FaultInjector,
        config: CasConfig,
    ) -> Result<Self> {
        let inner = FileStore::open_with_faults(dir, profile, clock, stats, faults)?;
        let mut refs: HashMap<ChunkId, u32> = HashMap::new();
        let keys = scan_manifests(&inner, |_, ids| {
            ids.into_iter().for_each(|id| *refs.entry(id).or_insert(0) += 1)
        })?;
        Ok(CasStore {
            inner,
            profile,
            config,
            state: Mutex::new(CasState { refs, ..CasState::default() }),
            keys: RwLock::new(keys),
            counters: AtomicCounters::default(),
            obs: Observer::disabled(),
        })
    }

    /// Install an observer mirroring dedup/cache activity into metrics.
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs.clone();
        self.inner.set_observer(obs);
    }

    /// The store's fault-injection handle.
    pub fn faults(&self) -> &FaultInjector {
        self.inner.faults()
    }

    /// The store's tuning knobs.
    pub fn config(&self) -> CasConfig {
        self.config
    }

    /// Snapshot of the dedup/cache counters.
    pub fn counters(&self) -> CasCounters {
        CasCounters {
            chunk_puts: self.counters.chunk_puts.load(Ordering::Relaxed),
            chunk_put_bytes: self.counters.chunk_put_bytes.load(Ordering::Relaxed),
            dedup_hits: self.counters.dedup_hits.load(Ordering::Relaxed),
            dedup_bytes: self.counters.dedup_bytes.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_hit_bytes: self.counters.cache_hit_bytes.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently held by the recovery cache.
    pub fn cache_used_bytes(&self) -> u64 {
        self.state.lock().unpoison().cache_used
    }

    /// Store a blob with fixed-size chunking. See
    /// [`CasStore::put_with_boundaries`] for the boundary-aware form.
    pub fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        self.put_with_boundaries(key, bytes, &[])
    }

    /// Store a blob, chunking at the given byte offsets (typically layer
    /// boundaries so identical layers dedup across blobs). Boundaries
    /// outside `(0, len)` are ignored; spans larger than the configured
    /// chunk size are further split. Overwrites release the previous
    /// version's chunk references.
    pub fn put_with_boundaries(&self, key: &str, bytes: &[u8], boundaries: &[usize]) -> Result<()> {
        if key.starts_with(CAS_PREFIX) {
            return Err(Error::invalid(format!(
                "blob key {key:?} collides with the reserved {CAS_PREFIX:?} namespace"
            )));
        }
        // Chunks a previous version of this key referenced, to release
        // after the new manifest lands. Only a key the index holds has one.
        let old_ids = if self.keys.read().unpoison().contains_key(key) {
            self.inner.read_local(key).ok().and_then(|m| decode_manifest(&m).ok())
        } else {
            None
        };
        let spans = chunk_spans(bytes.len(), boundaries, self.config.chunk_size);
        let ids = self.store_chunks(bytes, &spans)?;
        let manifest = encode_manifest(bytes.len() as u64, &ids);
        if let Err(e) = self.inner.put(key, &manifest) {
            // The manifest never landed: drop the references we took.
            // Chunk files written for them may survive as orphans; audit
            // reclaims those.
            let mut st = self.state.lock().unpoison();
            for id in &ids {
                if let Some(r) = st.refs.get_mut(id) {
                    *r = r.saturating_sub(1);
                    if *r == 0 {
                        st.refs.remove(id);
                    }
                }
            }
            return Err(e);
        }
        self.keys.write().unpoison().insert(key.to_string(), Some(bytes.len() as u64));
        if let Some((_, old)) = old_ids {
            self.release_chunks(&old)?;
        }
        Ok(())
    }

    /// Write (or dedup) every chunk of a put, returning the chunk ids in
    /// order. Holds the state lock across the whole loop so concurrent
    /// puts of identical content from parallel lanes cannot race the
    /// exists-check against each other's in-flight writes.
    fn store_chunks(&self, bytes: &[u8], spans: &[(usize, usize)]) -> Result<Vec<ChunkId>> {
        let mut ids = Vec::with_capacity(spans.len());
        let mut st = self.state.lock().unpoison();
        for &(start, end) in spans {
            let data = &bytes[start..end];
            let id = ChunkId::of(data);
            let entry = st.refs.entry(id).or_insert(0);
            if *entry > 0 || self.inner.exists(&id.key()) {
                // Dedup hit (or adoption of an orphan already on disk):
                // no store round-trip, no bytes billed.
                *entry += 1;
                self.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                self.counters.dedup_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                self.obs.inc("mmm_cas_dedup_hits_total", 1);
                self.obs.inc("mmm_cas_dedup_bytes_total", data.len() as u64);
            } else {
                if let Err(e) = self.inner.put(&id.key(), data) {
                    st.refs.remove(&id);
                    // Release references taken so far; the caller's put
                    // failed as a whole.
                    for taken in &ids {
                        if let Some(r) = st.refs.get_mut(taken) {
                            *r = r.saturating_sub(1);
                            if *r == 0 {
                                st.refs.remove(taken);
                            }
                        }
                    }
                    return Err(e);
                }
                *st.refs.entry(id).or_insert(0) += 1;
                self.counters.chunk_puts.fetch_add(1, Ordering::Relaxed);
                self.counters.chunk_put_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                self.obs.inc("mmm_cas_puts_total", 1);
                self.obs.inc("mmm_cas_put_bytes_total", data.len() as u64);
            }
            ids.push(id);
        }
        Ok(ids)
    }

    /// Drop one reference per listed chunk, deleting payloads whose count
    /// reaches zero. Missing payload files are tolerated (already
    /// reclaimed or never landed).
    fn release_chunks(&self, ids: &[ChunkId]) -> Result<()> {
        for id in ids {
            let reclaim = {
                let mut st = self.state.lock().unpoison();
                match st.refs.get_mut(id) {
                    Some(r) => {
                        *r = r.saturating_sub(1);
                        if *r == 0 {
                            st.refs.remove(id);
                            st.cache_remove(id);
                            true
                        } else {
                            false
                        }
                    }
                    None => false,
                }
            };
            if reclaim {
                match self.inner.delete(&id.key()) {
                    Ok(()) | Err(Error::NotFound(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Read a whole blob, assembling it from (possibly cached) chunks.
    pub fn get(&self, key: &str) -> Result<Vec<u8>> {
        let manifest = self.inner.get(key)?;
        let (total, ids) = decode_manifest(&manifest)
            .map_err(|_| Error::corrupt(format!("blob {key:?} has a corrupt CAS manifest")))?;
        let mut out = Vec::with_capacity(total as usize);
        for id in &ids {
            out.extend_from_slice(&self.chunk_bytes(id, key)?);
        }
        if out.len() as u64 != total {
            return Err(Error::corrupt(format!(
                "blob {key:?}: chunks sum to {} bytes, manifest says {total}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Ranged read: fetches only the chunks covering
    /// `[offset, offset+len)`, through the cache.
    pub fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let manifest = self.inner.get(key)?;
        let (total, ids) = decode_manifest(&manifest)
            .map_err(|_| Error::corrupt(format!("blob {key:?} has a corrupt CAS manifest")))?;
        let end = offset.checked_add(len as u64).ok_or_else(|| {
            Error::invalid(format!("range {offset}+{len} overflows for blob {key:?}"))
        })?;
        if end > total {
            return Err(Error::invalid(format!(
                "range {offset}+{len} exceeds blob {key:?} of {total} bytes"
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = 0u64;
        for id in &ids {
            let c_start = pos;
            let c_end = pos + id.len as u64;
            pos = c_end;
            if c_end <= offset {
                continue;
            }
            if c_start >= end {
                break;
            }
            let bytes = self.chunk_bytes(id, key)?;
            let lo = offset.saturating_sub(c_start) as usize;
            let hi = (end.min(c_end) - c_start) as usize;
            out.extend_from_slice(&bytes[lo..hi]);
        }
        Ok(out)
    }

    /// Fetch one chunk, preferring the recovery cache. A hit serves the
    /// bytes with zero simulated latency and records the round-trip cost
    /// it avoided; a miss reads through the charged store path and
    /// populates the cache.
    fn chunk_bytes(&self, id: &ChunkId, owner: &str) -> Result<Vec<u8>> {
        {
            let mut st = self.state.lock().unpoison();
            st.tick += 1;
            let tick = st.tick;
            if let Some(e) = st.cache.get_mut(id) {
                e.stamp = tick;
                let bytes = e.bytes.clone();
                drop(st);
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.counters.cache_hit_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                let saved = self.profile.blob_get.cost(bytes.len() as u64);
                self.obs.cache_hit(bytes.len() as u64, saved);
                return Ok(bytes);
            }
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        let bytes = self.inner.get(&id.key()).map_err(|e| match e {
            Error::NotFound(_) => {
                Error::corrupt(format!("blob {owner:?}: missing chunk {}", id.key()))
            }
            other => other,
        })?;
        if bytes.len() != id.len as usize {
            return Err(Error::corrupt(format!(
                "blob {owner:?}: chunk {} is {} bytes, expected {}",
                id.key(),
                bytes.len(),
                id.len
            )));
        }
        self.state.lock().unpoison().cache_insert(*id, bytes.clone(), self.config.cache_bytes);
        Ok(bytes)
    }

    /// Whether a logical blob exists (not charged; from the key index).
    pub fn exists(&self, key: &str) -> bool {
        self.keys.read().unpoison().contains_key(key)
    }

    /// Logical size of a stored blob in bytes (not charged — the length
    /// its manifest states, from the key index).
    pub fn size(&self, key: &str) -> Result<u64> {
        match self.keys.read().unpoison().get(key) {
            Some(Some(total)) => Ok(*total),
            Some(None) => Err(Error::corrupt(format!("blob {key:?} has a corrupt CAS manifest"))),
            None => Err(Error::not_found(format!("blob {key:?}"))),
        }
    }

    /// Delete a logical blob: removes its manifest (one charged delete)
    /// and releases its chunk references, reclaiming payloads that reach
    /// refcount zero.
    pub fn delete(&self, key: &str) -> Result<()> {
        if key.starts_with(CAS_PREFIX) {
            // Maintenance path (fsck repair of an orphan chunk): delete
            // the chunk file directly and drop any index entry.
            self.inner.delete(key)?;
            if let Some(id) = ChunkId::parse_key(key) {
                let mut st = self.state.lock().unpoison();
                st.refs.remove(&id);
                st.cache_remove(&id);
            }
            return Ok(());
        }
        let ids = match self.inner.read_local(key) {
            Ok(m) => decode_manifest(&m).map(|(_, ids)| ids).unwrap_or_default(),
            Err(_) => Vec::new(), // missing → let inner.delete report NotFound
        };
        let deleted = self.inner.delete(key);
        if let Ok(()) | Err(Error::NotFound(_)) = deleted {
            self.keys.write().unpoison().remove(key);
        }
        deleted?;
        self.release_chunks(&ids)
    }

    /// All logical keys under a prefix, sorted, from the key index, with
    /// [`FileStore::list_keys`]'s path semantics: `""` lists every key,
    /// otherwise the key `prefix` itself or the keys under `prefix/`.
    pub fn list_keys(&self, prefix: &str) -> Result<Vec<String>> {
        let keys = self.keys.read().unpoison();
        Ok(match prefix {
            "" => keys.keys().cloned().collect(),
            _ if keys.contains_key(prefix) => vec![prefix.to_string()],
            _ => {
                let dir = format!("{}/", prefix.trim_end_matches('/'));
                let under = keys.range(dir.clone()..).map(|(k, _)| k);
                under.take_while(|k| k.starts_with(&dir)).cloned().collect()
            }
        })
    }

    /// Ground-truth disk usage: manifests plus deduplicated chunk
    /// payloads.
    pub fn disk_bytes(&self) -> u64 {
        self.inner.disk_bytes()
    }

    /// Verify that a logical blob is structurally recoverable: its
    /// manifest parses and every referenced chunk payload exists with the
    /// advertised length (not charged — maintenance path used by fsck).
    pub fn verify(&self, key: &str) -> Result<()> {
        let manifest = self
            .inner
            .read_local(key)
            .map_err(|_| Error::not_found(format!("blob {key:?}")))?;
        let (_, ids) = decode_manifest(&manifest)
            .map_err(|_| Error::corrupt(format!("blob {key:?} has a corrupt CAS manifest")))?;
        for id in &ids {
            let size = self
                .inner
                .size(&id.key())
                .map_err(|_| Error::corrupt(format!("blob {key:?}: missing chunk {}", id.key())))?;
            if size != id.len as u64 {
                return Err(Error::corrupt(format!(
                    "blob {key:?}: chunk {} is {size} bytes, expected {}",
                    id.key(),
                    id.len
                )));
            }
        }
        Ok(())
    }

    /// Cross-check manifests, the refcount index, and the on-disk chunk
    /// population; resyncs both in-memory indexes to the manifests.
    /// Entirely uncharged (maintenance path).
    pub fn audit(&self) -> Result<CasAudit> {
        let mut report = CasAudit::default();
        // Who references which chunk, straight from the manifests.
        let mut owners: HashMap<ChunkId, Vec<String>> = HashMap::new();
        let keys = scan_manifests(&self.inner, |key, ids| {
            ids.into_iter().for_each(|id| owners.entry(id).or_default().push(key.to_string()))
        })?;
        report.manifests = keys.values().filter(|total| total.is_some()).count();
        report.referenced_chunks = owners.len();
        let mut refs: HashMap<ChunkId, u32> = HashMap::new();
        for (id, who) in &owners {
            refs.insert(*id, who.len() as u32);
        }
        // Compare the on-disk population against the references.
        let mut on_disk = HashSet::new();
        for key in self.inner.list_keys(CHUNK_PREFIX)? {
            let Some(id) = ChunkId::parse_key(&key) else {
                report.orphan_chunks.push(key);
                continue;
            };
            on_disk.insert(id);
            match owners.get(&id) {
                None => report.orphan_chunks.push(key),
                Some(who) => {
                    let bytes = self.inner.read_local(&key)?;
                    if ChunkId::of(&bytes) != id {
                        report.corrupt_chunks.push((key, who.clone()));
                    }
                }
            }
        }
        for (id, who) in &owners {
            if !on_disk.contains(id) {
                report.missing_chunks.push((id.key(), who.clone()));
            }
        }
        report.orphan_chunks.sort();
        report.corrupt_chunks.sort();
        report.missing_chunks.sort();
        // Resync the live indexes, counting how far refcounts had drifted.
        *self.keys.write().unpoison() = keys;
        let mut st = self.state.lock().unpoison();
        let mut drift = 0usize;
        for (id, n) in &refs {
            if st.refs.get(id).copied().unwrap_or(0) != *n {
                drift += 1;
            }
        }
        for id in st.refs.keys() {
            if !refs.contains_key(id) {
                drift += 1;
            }
        }
        report.refcount_drift = drift;
        st.refs = refs;
        Ok(report)
    }

    /// Delete every chunk payload no manifest references. Returns the
    /// number of chunks and payload bytes reclaimed.
    pub fn reclaim_orphans(&self) -> Result<(usize, u64)> {
        let audit = self.audit()?;
        let mut count = 0usize;
        let mut bytes = 0u64;
        for key in &audit.orphan_chunks {
            let size = self.inner.size(key).unwrap_or(0);
            match self.inner.delete(key) {
                Ok(()) => {
                    count += 1;
                    bytes += size;
                    if let Some(id) = ChunkId::parse_key(key) {
                        let mut st = self.state.lock().unpoison();
                        st.refs.remove(&id);
                        st.cache_remove(&id);
                    }
                }
                Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((count, bytes))
    }
}

/// Read every stored manifest once (uncharged local reads): each logical
/// key's length for the key index, and each decoded manifest's chunk
/// list handed to `each`. A key that vanishes mid-walk is skipped.
fn scan_manifests(inner: &FileStore, mut each: impl FnMut(&str, Vec<ChunkId>)) -> Result<KeyIndex> {
    let mut keys = KeyIndex::new();
    for key in inner.list_keys("")?.into_iter().filter(|k| !k.starts_with(CAS_PREFIX)) {
        let Ok(bytes) = inner.read_local(&key) else { continue };
        let total = decode_manifest(&bytes).ok().map(|(total, ids)| {
            each(&key, ids);
            total
        });
        keys.insert(key, total);
    }
    Ok(keys)
}

/// Split `[0, len)` into chunk spans: cuts at each caller boundary inside
/// `(0, len)`, then caps every span at `max` bytes.
fn chunk_spans(len: usize, boundaries: &[usize], max: usize) -> Vec<(usize, usize)> {
    let max = max.max(1);
    let mut cuts: Vec<usize> = boundaries.iter().copied().filter(|&b| b > 0 && b < len).collect();
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts.dedup();
    let mut spans = Vec::new();
    for w in cuts.windows(2) {
        let (mut start, end) = (w[0], w[1]);
        while end - start > max {
            spans.push((start, start + max));
            start += max;
        }
        if start < end {
            spans.push((start, end));
        }
    }
    spans
}

/// Encode a manifest: magic, version, logical length, chunk list.
fn encode_manifest(total: u64, ids: &[ChunkId]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(20 + 12 * ids.len());
    buf.extend_from_slice(&MANIFEST_MAGIC);
    codec::put_u32(&mut buf, MANIFEST_VERSION);
    codec::put_u64(&mut buf, total);
    codec::put_u32(&mut buf, ids.len() as u32);
    for id in ids {
        codec::put_u64(&mut buf, id.hash);
        codec::put_u32(&mut buf, id.len);
    }
    buf
}

/// Decode a manifest; errors on anything that is not a well-formed
/// version-1 manifest whose chunk lengths sum to the logical length.
fn decode_manifest(bytes: &[u8]) -> Result<(u64, Vec<ChunkId>)> {
    let mut r = codec::Reader::new(bytes);
    if r.bytes(4)? != MANIFEST_MAGIC {
        return Err(Error::corrupt("bad CAS manifest magic"));
    }
    let version = r.u32()?;
    if version != MANIFEST_VERSION {
        return Err(Error::corrupt(format!("unsupported CAS manifest version {version}")));
    }
    let total = r.u64()?;
    let n = r.u32()? as usize;
    if r.remaining() != 12 * n {
        return Err(Error::corrupt("CAS manifest length mismatch"));
    }
    let mut ids = Vec::with_capacity(n);
    let mut sum = 0u64;
    for _ in 0..n {
        let hash = r.u64()?;
        let len = r.u32()?;
        sum += len as u64;
        ids.push(ChunkId { hash, len });
    }
    if sum != total {
        return Err(Error::corrupt("CAS manifest chunk lengths do not sum to total"));
    }
    Ok((total, ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::TempDir;

    fn open(dir: &Path, config: CasConfig) -> CasStore {
        CasStore::open(
            dir,
            LatencyProfile::zero(),
            VirtualClock::new(),
            StoreStats::new(),
            FaultInjector::new(),
            config,
        )
        .unwrap()
    }

    fn store(config: CasConfig) -> (TempDir, CasStore) {
        let dir = TempDir::new("mmm-cas").unwrap();
        let cas = open(dir.path(), config);
        (dir, cas)
    }

    #[test]
    fn chunk_spans_respect_boundaries_and_cap() {
        assert_eq!(chunk_spans(10, &[], 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(chunk_spans(10, &[3, 7], 100), vec![(0, 3), (3, 7), (7, 10)]);
        assert_eq!(chunk_spans(10, &[0, 10, 99], 100), vec![(0, 10)]);
        assert_eq!(chunk_spans(0, &[], 4), Vec::<(usize, usize)>::new());
        // Boundaries and the cap compose.
        assert_eq!(chunk_spans(10, &[5], 3), vec![(0, 3), (3, 5), (5, 8), (8, 10)]);
    }

    #[test]
    fn roundtrip_and_logical_listing() {
        let (_d, cas) = store(CasConfig::default());
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        cas.put("a/params.bin", &data).unwrap();
        assert_eq!(cas.get("a/params.bin").unwrap(), data);
        assert_eq!(cas.size("a/params.bin").unwrap(), data.len() as u64);
        assert!(cas.exists("a/params.bin"));
        assert_eq!(cas.list_keys("").unwrap(), vec!["a/params.bin".to_string()]);
        assert!(matches!(cas.get("missing"), Err(Error::NotFound(_))));
        assert!(matches!(cas.size("missing"), Err(Error::NotFound(_))));
    }

    #[test]
    fn identical_blobs_share_chunks() {
        let (_d, cas) = store(CasConfig::default());
        let data = vec![7u8; 50_000];
        cas.put("one.bin", &data).unwrap();
        let before = cas.counters();
        cas.put("two.bin", &data).unwrap();
        let after = cas.counters();
        assert_eq!(after.chunk_puts, before.chunk_puts, "second copy wrote no chunks");
        assert_eq!(after.dedup_bytes - before.dedup_bytes, data.len() as u64);
        assert_eq!(cas.get("two.bin").unwrap(), data);
        // Deleting one copy keeps the shared chunks alive.
        cas.delete("one.bin").unwrap();
        assert_eq!(cas.get("two.bin").unwrap(), data);
        cas.delete("two.bin").unwrap();
        assert!(cas.inner.list_keys(CHUNK_PREFIX).unwrap().is_empty(), "chunks reclaimed");
    }

    #[test]
    fn boundary_chunking_dedups_shared_layers() {
        let (_d, cas) = store(CasConfig::default());
        let layer_a = vec![1u8; 1000];
        let layer_b = vec![2u8; 1000];
        let layer_c = vec![3u8; 1000];
        let blob1: Vec<u8> = [layer_a.clone(), layer_b.clone()].concat();
        let blob2: Vec<u8> = [layer_a.clone(), layer_c.clone()].concat();
        cas.put_with_boundaries("m1", &blob1, &[1000]).unwrap();
        let before = cas.counters();
        cas.put_with_boundaries("m2", &blob2, &[1000]).unwrap();
        let after = cas.counters();
        assert_eq!(after.chunk_puts - before.chunk_puts, 1, "only layer_c is new");
        assert_eq!(after.dedup_bytes - before.dedup_bytes, 1000);
        assert_eq!(cas.get("m2").unwrap(), blob2);
    }

    #[test]
    fn overwrite_releases_old_chunks() {
        let (_d, cas) = store(CasConfig::default());
        cas.put("k", &vec![1u8; 5000]).unwrap();
        cas.put("k", &vec![2u8; 5000]).unwrap();
        assert_eq!(cas.get("k").unwrap(), vec![2u8; 5000]);
        assert_eq!(cas.inner.list_keys(CHUNK_PREFIX).unwrap().len(), 1, "old chunk reclaimed");
        let audit = cas.audit().unwrap();
        assert!(audit.is_clean(), "{audit:?}");
    }

    #[test]
    fn ranged_reads_match_file_store_semantics() {
        let (_d, cas) = store(CasConfig { chunk_size: 64, ..CasConfig::default() });
        let data: Vec<u8> = (0..=255).collect();
        cas.put("blob", &data).unwrap();
        assert_eq!(cas.get_range("blob", 0, 4).unwrap(), &data[..4]);
        assert_eq!(cas.get_range("blob", 100, 50).unwrap(), &data[100..150]);
        assert_eq!(cas.get_range("blob", 252, 4).unwrap(), &data[252..]);
        assert_eq!(cas.get_range("blob", 10, 0).unwrap(), Vec::<u8>::new());
        assert!(matches!(cas.get_range("blob", 250, 10), Err(Error::Invalid(_))));
        assert!(matches!(cas.get_range("blob", u64::MAX, 2), Err(Error::Invalid(_))));
        assert!(matches!(cas.get_range("missing", 0, 1), Err(Error::NotFound(_))));
    }

    #[test]
    fn cache_serves_repeat_reads_and_tracks_bytes() {
        let (_d, cas) = store(CasConfig { chunk_size: 1024, cache_bytes: 1 << 20 });
        // Distinct content per chunk, so a cold read can't hit the
        // cache via intra-blob dedup.
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        cas.put("k", &data).unwrap();
        assert_eq!(cas.counters().cache_hits, 0);
        let _ = cas.get("k").unwrap(); // cold: misses populate the cache
        let cold = cas.counters();
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.cache_misses > 0);
        let _ = cas.get("k").unwrap(); // warm: all chunks cached
        let warm = cas.counters();
        assert_eq!(warm.cache_misses, cold.cache_misses);
        assert_eq!(warm.cache_hit_bytes, data.len() as u64);
        assert!(cas.cache_used_bytes() >= data.len() as u64);
    }

    #[test]
    fn cache_hits_charge_no_simulated_latency() {
        let dir = TempDir::new("mmm-cas").unwrap();
        let clock = VirtualClock::new();
        let cas = CasStore::open(
            dir.path(),
            LatencyProfile::m1(),
            clock.clone(),
            StoreStats::new(),
            FaultInjector::new(),
            CasConfig { chunk_size: 1024, cache_bytes: 1 << 20 },
        )
        .unwrap();
        cas.put("k", &vec![5u8; 8192]).unwrap();
        let _ = cas.get("k").unwrap();
        let cold = clock.simulated();
        let _ = cas.get("k").unwrap();
        let warm = clock.simulated();
        // The warm read still pays for the manifest get, but not for the
        // chunk payloads.
        let manifest_only = LatencyProfile::m1().blob_get.cost(cas.inner.size("k").unwrap());
        assert!(
            warm - cold <= manifest_only + std::time::Duration::from_micros(1),
            "warm read cost {:?} exceeds manifest-only cost {:?}",
            warm - cold,
            manifest_only
        );
    }

    #[test]
    fn cache_respects_byte_budget_with_lru_eviction() {
        let (_d, cas) = store(CasConfig { chunk_size: 1000, cache_bytes: 2500 });
        for (k, fill) in [("a", 1u8), ("b", 2), ("c", 3)] {
            cas.put(k, &vec![fill; 1000]).unwrap();
        }
        let _ = cas.get("a").unwrap();
        let _ = cas.get("b").unwrap();
        assert_eq!(cas.cache_used_bytes(), 2000);
        let _ = cas.get("c").unwrap(); // evicts "a", the LRU entry
        assert!(cas.cache_used_bytes() <= 2500);
        let before = cas.counters();
        let _ = cas.get("b").unwrap(); // still cached
        assert_eq!(cas.counters().cache_misses, before.cache_misses);
        let _ = cas.get("a").unwrap(); // was evicted → miss
        assert!(cas.counters().cache_misses > before.cache_misses);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (_d, cas) = store(CasConfig { chunk_size: 1024, cache_bytes: 0 });
        cas.put("k", &vec![1u8; 4096]).unwrap();
        let _ = cas.get("k").unwrap();
        let _ = cas.get("k").unwrap();
        assert_eq!(cas.counters().cache_hits, 0);
        assert_eq!(cas.cache_used_bytes(), 0);
    }

    #[test]
    fn dedup_survives_reopen() {
        let dir = TempDir::new("mmm-cas").unwrap();
        let data = vec![4u8; 20_000];
        {
            let cas = open(dir.path(), CasConfig::default());
            cas.put("first", &data).unwrap();
        }
        let cas = open(dir.path(), CasConfig::default());
        let before = cas.counters();
        cas.put("second", &data).unwrap();
        assert_eq!(cas.counters().chunk_puts, before.chunk_puts, "index rebuilt on open");
        // Deleting one keeps the chunks for the other.
        cas.delete("first").unwrap();
        assert_eq!(cas.get("second").unwrap(), data);
        let audit = cas.audit().unwrap();
        assert!(audit.is_clean(), "{audit:?}");
    }

    #[test]
    fn logical_keys_may_not_enter_the_cas_namespace() {
        let (_d, cas) = store(CasConfig::default());
        assert!(matches!(cas.put("cas/evil", b"x"), Err(Error::Invalid(_))));
    }

    #[test]
    fn audit_finds_orphans_and_reclaim_removes_them() {
        let (_d, cas) = store(CasConfig::default());
        cas.put("live", &vec![1u8; 3000]).unwrap();
        // Simulate a crash-leaked chunk: a payload no manifest references.
        let leaked = ChunkId::of(b"leaked payload");
        cas.inner.put(&leaked.key(), b"leaked payload").unwrap();
        let audit = cas.audit().unwrap();
        assert_eq!(audit.orphan_chunks, vec![leaked.key()]);
        assert!(audit.corrupt_chunks.is_empty());
        let (n, bytes) = cas.reclaim_orphans().unwrap();
        assert_eq!((n, bytes), (1, b"leaked payload".len() as u64));
        assert!(cas.audit().unwrap().is_clean());
        assert_eq!(cas.get("live").unwrap(), vec![1u8; 3000]);
    }

    #[test]
    fn audit_reports_corrupt_and_missing_chunks_with_owners() {
        let (_d, cas) = store(CasConfig { chunk_size: 1000, ..CasConfig::default() });
        cas.put("victim", &vec![1u8; 1000]).unwrap();
        cas.put("other", &vec![2u8; 1000]).unwrap();
        let victim_chunk = ChunkId::of(&vec![1u8; 1000]);
        // Corrupt the payload behind the manifest's back.
        cas.inner.put(&victim_chunk.key(), &vec![9u8; 1000]).unwrap();
        let audit = cas.audit().unwrap();
        assert_eq!(audit.corrupt_chunks.len(), 1);
        assert_eq!(audit.corrupt_chunks[0].1, vec!["victim".to_string()]);
        assert!(cas.verify("other").is_ok());
        // Now remove it entirely → missing, and verify flags the blob.
        cas.inner.delete(&victim_chunk.key()).unwrap();
        let audit = cas.audit().unwrap();
        assert_eq!(audit.missing_chunks.len(), 1);
        assert_eq!(audit.missing_chunks[0].1, vec!["victim".to_string()]);
        assert!(matches!(cas.verify("victim"), Err(Error::Corrupt(_))));
        assert!(matches!(cas.get("victim"), Err(Error::Corrupt(_))));
    }

    #[test]
    fn dedup_reduces_billed_bytes() {
        let dir = TempDir::new("mmm-cas").unwrap();
        let stats = StoreStats::new();
        let cas = CasStore::open(
            dir.path(),
            LatencyProfile::zero(),
            VirtualClock::new(),
            stats.clone(),
            FaultInjector::new(),
            CasConfig::default(),
        )
        .unwrap();
        let data = vec![3u8; 40_000];
        cas.put("a", &data).unwrap();
        let first = stats.snapshot().bytes_written;
        cas.put("b", &data).unwrap();
        let second = stats.snapshot().bytes_written - first;
        assert!(
            second < data.len() as u64 / 100,
            "dedup'd put billed {second} bytes for a {} byte blob",
            data.len()
        );
    }

    /// Keys that share stems (`a/1`, `a/10`, `a/1x`) and directories.
    const KEYS: [&str; 7] = ["a/1", "a/10", "a/1x", "a/2/x", "b/1/p.bin", "b/1/q.bin", "c"];

    /// `list_keys`, `exists` and `size` against the disk: the logical
    /// keys `inner` lists, and the lengths their manifests decode to.
    fn assert_index_matches_disk(cas: &CasStore, step: &str) {
        let disk = |prefix: &str| -> Vec<String> {
            let keys = cas.inner.list_keys(prefix).unwrap().into_iter();
            keys.filter(|k| !k.starts_with(CAS_PREFIX)).collect()
        };
        for prefix in ["", "a", "a/", "b/1", "a/2", "a/1", "a/10", "b/1/p.bin", "missing", "c"] {
            let on_disk = disk(prefix);
            assert_eq!(cas.list_keys(prefix).unwrap(), on_disk, "{step}: list_keys({prefix:?})");
            let is_blob = on_disk.iter().any(|k| k == prefix);
            assert_eq!(cas.exists(prefix), is_blob, "{step}: exists({prefix:?})");
        }
        for key in KEYS {
            let manifest = cas.inner.read_local(key);
            match (cas.size(key), manifest.map(|m| decode_manifest(&m).map(|(total, _)| total))) {
                (Ok(size), Ok(Ok(total))) => assert_eq!(size, total, "{step}: size({key:?})"),
                (Err(Error::Corrupt(_)), Ok(Err(_))) | (Err(Error::NotFound(_)), Err(_)) => {}
                (size, disk) => panic!("{step}: size({key:?}) = {size:?}, disk says {disk:?}"),
            }
        }
    }

    /// Seeded sequences of puts, overwrites, deletes of present and
    /// missing keys, torn, crashed and bit-flipped writes, and reopens:
    /// after every step the key index answers what the disk says. A
    /// flipped manifest is only on disk, so flip steps are checked after
    /// a reopen has rebuilt the index.
    #[test]
    fn key_index_matches_the_disk() {
        use crate::fault::{FaultPlan, FaultTarget, OpClass};
        use mmm_util::{Rng, SplitMix64};
        let config = CasConfig { chunk_size: 64, ..CasConfig::default() };
        for seed in 0..12u64 {
            let dir = TempDir::new("mmm-cas").unwrap();
            let mut cas = open(dir.path(), config);
            let mut rng = SplitMix64::new(seed);
            for step in 0..80 {
                let key = KEYS[rng.below(KEYS.len() as u64) as usize];
                // Few distinct fills, so chunks dedup across keys.
                let data = vec![rng.below(3) as u8; rng.below(300) as usize];
                let puts = FaultTarget::Class(OpClass::BlobPut);
                let at = rng.below(6);
                let (op, reopen) = match rng.below(9) {
                    0..=2 => ("put", false),
                    3 | 4 => ("delete", false),
                    5 => {
                        cas.faults().arm(FaultPlan::torn_write_at(puts, at, 10));
                        ("torn put", false)
                    }
                    6 => {
                        cas.faults().arm(FaultPlan::crash_at(puts, at));
                        ("crashed put", false)
                    }
                    7 => {
                        cas.faults().arm(FaultPlan::bit_flip_at(puts, at, 3, step));
                        ("flipped put", true)
                    }
                    _ => ("reopen", true),
                };
                match op {
                    "delete" => drop(cas.delete(key)),
                    "reopen" => {}
                    _ => drop(cas.put(key, &data)),
                }
                cas.faults().disarm_all();
                if reopen {
                    drop(cas);
                    cas = open(dir.path(), config);
                }
                assert_index_matches_disk(&cas, &format!("seed {seed} step {step}: {op} {key}"));
            }
        }
    }

    #[test]
    fn concurrent_identical_puts_keep_consistent_refcounts() {
        let (_d, cas) = store(CasConfig::default());
        let data = vec![0u8; 10_000];
        std::thread::scope(|s| {
            for i in 0..4 {
                let cas = &cas;
                let data = &data;
                s.spawn(move || {
                    cas.put(&format!("copy-{i}"), data).unwrap();
                });
            }
        });
        let audit = cas.audit().unwrap();
        assert!(audit.is_clean(), "{audit:?}");
        for i in 0..4 {
            assert_eq!(cas.get(&format!("copy-{i}")).unwrap(), data);
        }
    }
}

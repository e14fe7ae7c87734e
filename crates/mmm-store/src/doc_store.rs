//! Embedded document store: JSON documents in named collections.
//!
//! Plays the role MongoDB plays for MMlib. Documents are
//! `serde_json::Value` objects; each collection is persisted as an
//! append-only JSON-lines log and replayed on open, so the store is
//! durable across process restarts. Every insert and query charges the
//! profile's round-trip latency — the `Θ(n)` document writes of saving
//! `n` models individually are exactly what the paper's optimization O3
//! eliminates.
//!
//! Durability: each record carries an xxhash64 checksum
//! (`<json>\t#<16 hex>\n`). On replay, a record without its trailing
//! newline is a torn tail from a crash mid-append — the log is
//! truncated back to the last whole record and the store opens clean
//! (the torn write was never acknowledged). A *complete* record that
//! fails its checksum or does not parse is real corruption and
//! surfaces as [`Error::Corrupt`] naming the collection and byte
//! offset. Checksum-less records (logs written before checksums
//! existed) still replay.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde_json::{json, Value};

use mmm_obs::{EventLevel, Observer};
use mmm_util::{hash::xxhash64, Error, Result, Unpoison, VirtualClock};

use crate::fault::{flip_bits, FaultEffect, FaultInjector, OpClass};
use crate::profile::LatencyProfile;
use crate::stats::StoreStats;

/// Document id within a collection.
pub type DocId = u64;

/// Seed for per-record log checksums (any fixed value works; changing
/// it would orphan existing logs' checksums).
const RECORD_CHECKSUM_SEED: u64 = 0x6d6d_5f64_6f63;

/// Serialize one log record: the document JSON, a tab (JSON strings
/// escape raw tabs, so it cannot appear inside the payload), `#`, the
/// checksum as 16 lowercase hex digits, newline.
fn format_record(json: &str) -> Vec<u8> {
    format!("{json}\t#{:016x}\n", xxhash64(json.as_bytes(), RECORD_CHECKSUM_SEED)).into_bytes()
}

/// The canonical log line of document `id`: `doc` (an object) with
/// its `_id` set.
fn line_of(id: DocId, doc: &Value) -> Result<String> {
    let mut on_disk = doc.clone();
    let obj = on_disk
        .as_object_mut()
        .ok_or_else(|| Error::invalid("documents must be JSON objects"))?;
    obj.insert("_id".into(), json!(id));
    Ok(on_disk.to_string())
}

/// Parse and verify one complete log record (without its newline):
/// its id, and the document it holds unless it is a tombstone.
fn parse_record(line: &[u8], collection: &str, offset: usize) -> Result<(DocId, Option<Held>)> {
    let corrupt = |what: &str| {
        Error::corrupt(format!(
            "collection {collection:?}: {what} at byte {offset}"
        ))
    };
    let text = std::str::from_utf8(line).map_err(|_| corrupt("non-utf8 record"))?;
    let (json, checksummed) = match text.rsplit_once('\t') {
        Some((json, sum)) => {
            let expected = sum
                .strip_prefix('#')
                .filter(|h| h.len() == 16)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| corrupt("malformed record checksum"))?;
            if xxhash64(json.as_bytes(), RECORD_CHECKSUM_SEED) != expected {
                return Err(corrupt("record checksum mismatch"));
            }
            (json, true)
        }
        // Legacy record written before checksums: the JSON is the line.
        None => (text, false),
    };
    let parsed = serde_json::from_str(json);
    let mut doc: Value = parsed.map_err(|e| corrupt(&format!("bad record ({e})")))?;
    let id = doc.get("_id").and_then(Value::as_u64);
    let id = id.ok_or_else(|| corrupt("record without _id"))?;
    if doc.get("_deleted").and_then(Value::as_bool) == Some(true) {
        return Ok((id, None));
    }
    if let Some(obj) = doc.as_object_mut() {
        obj.remove("_id");
    }
    // This store wrote a checksummed line canonically, from the document.
    let len = match checksummed {
        true => len_without_id(json.len(), id, &doc),
        false => doc.to_string().len() as u64,
    };
    Ok((id, Some(Held { doc, len })))
}

/// `doc.to_string().len()` of a document held without `_id`, from the
/// length of the canonical line `{..,"_id":<id>,..}` the store wrote for
/// it: that line less the `"_id":<id>` member and the comma joining it
/// to the others.
fn len_without_id(line_len: usize, id: DocId, doc: &Value) -> u64 {
    let digits = id.checked_ilog10().map_or(1, |d| d as usize + 1);
    let comma = usize::from(doc.as_object().is_some_and(|o| !o.is_empty()));
    line_len.saturating_sub("\"_id\":".len() + digits + comma) as u64
}

/// The keys one document is filed under in a secondary index: none
/// (not indexed), one (a scalar field) or several (a batched record).
type KeysOf = Arc<dyn Fn(&Value) -> Vec<String> + Send + Sync>;

/// A declared secondary index: its name, how a document is keyed, and
/// whether it is the index of the field it is named after — the only
/// kind [`DocumentStore::find_eq`] may answer from.
#[derive(Clone)]
struct IndexDef {
    name: String,
    keys_of: KeysOf,
    of_field: bool,
}

/// One secondary index of a collection: key → ids of the documents
/// filed under it. Lives and dies with the in-memory collection, so it
/// says exactly what a scan of the collection would.
struct Index {
    def: IndexDef,
    buckets: HashMap<String, Vec<DocId>>,
}

impl Index {
    fn insert(&mut self, id: DocId, doc: &Value) {
        for key in (self.def.keys_of)(doc) {
            self.buckets.entry(key).or_default().push(id);
        }
    }

    fn remove(&mut self, id: DocId, doc: &Value) {
        for key in (self.def.keys_of)(doc) {
            if let Entry::Occupied(mut bucket) = self.buckets.entry(key) {
                bucket.get_mut().retain(|&d| d != id);
                // A key whose last document is gone leaves nothing behind.
                if bucket.get().is_empty() {
                    bucket.remove();
                }
            }
        }
    }
}

/// A held document and its encoded length (`to_string().len()`, what a
/// read of it is charged), taken from its log line when it was appended
/// or replayed so no read re-serialises it.
struct Held {
    doc: Value,
    len: u64,
}

struct Collection {
    log: File,
    /// Documents keyed by id (BTreeMap: O(log n) point lookups, ordered
    /// iteration for scans).
    docs: BTreeMap<DocId, Held>,
    next_id: DocId,
    /// Secondary indexes by name, maintained on insert/delete; declared
    /// via [`DocumentStore::create_keyed_index`].
    indexes: HashMap<String, Index>,
}

impl Collection {
    /// (Re)build the index `def` declares from the documents held now.
    fn build_index(&mut self, def: IndexDef) {
        let name = def.name.clone();
        let mut index = Index {
            def,
            buckets: HashMap::new(),
        };
        self.docs
            .iter()
            .for_each(|(&id, held)| index.insert(id, &held.doc));
        self.indexes.insert(name, index);
    }

    /// The documents filed under any of `keys` in index `name`, each
    /// once, id-ascending, and their bytes; an index nobody declared is
    /// [`Error::Invalid`].
    fn indexed(&self, collection: &str, name: &str, keys: &[String]) -> Result<Found> {
        let index = self.indexes.get(name).ok_or_else(|| {
            Error::invalid(format!("collection {collection:?} has no index {name:?}"))
        })?;
        let ids: BTreeSet<DocId> = keys
            .iter()
            .filter_map(|k| index.buckets.get(k))
            .flatten()
            .copied()
            .collect();
        Ok(self.fetch(ids))
    }

    /// The documents with the given ids that exist, in the order given,
    /// and their bytes.
    fn fetch(&self, ids: impl IntoIterator<Item = DocId>) -> Found {
        let (mut found, mut bytes) = (Vec::new(), 0);
        let held = ids
            .into_iter()
            .filter_map(|id| Some((id, self.docs.get(&id)?)));
        for (id, held) in held {
            found.push((id, held.doc.clone()));
            bytes += held.len;
        }
        (found, bytes)
    }

    /// Pass every document to `accept`, id-ascending; the bytes of those
    /// it accepted. The one scan loop under every whole-collection read.
    fn scan(&self, mut accept: impl FnMut(DocId, &Value) -> bool) -> u64 {
        let accepted = self.docs.iter().filter(|(&id, held)| accept(id, &held.doc));
        accepted.map(|(_, held)| held.len).sum()
    }

    /// `scan` keeping copies of the documents `keep` accepts.
    fn collect(&self, mut keep: impl FnMut(&Value) -> bool) -> Found {
        let mut rows = Vec::new();
        let bytes = self.scan(|id, doc| {
            let hit = keep(doc);
            if hit {
                rows.push((id, doc.clone()));
            }
            hit
        });
        (rows, bytes)
    }
}

/// What a find returns, and the bytes it is charged for.
type Found = (Vec<(DocId, Value)>, u64);

/// The collections whose name hashes into one shard, and the indexes
/// declared for them (a declaration outlives, and may precede, the
/// collection it names).
#[derive(Default)]
struct Shard {
    collections: HashMap<String, Collection>,
    index_defs: HashMap<String, Vec<IndexDef>>,
}

/// Number of collection-map shards. Operations on different collections
/// contend only when their names hash to the same shard, so parallel
/// savers touching disjoint collections (sets, commits, quarantine)
/// proceed without serializing on one global lock.
const SHARDS: usize = 8;

/// The document store. Thread-safe; cheap to clone is *not* provided —
/// share it behind the owning environment instead.
///
/// Locking is sharded per collection name: each shard owns the
/// collections whose name hashes into it, and every operation takes only
/// its collection's shard lock. Operations within one collection are
/// still fully serialized, which keeps id assignment dense and the
/// append-only log free of interleaved records.
pub struct DocumentStore {
    root: PathBuf,
    clock: VirtualClock,
    profile: LatencyProfile,
    stats: StoreStats,
    faults: FaultInjector,
    /// Observability sink; disabled (a no-op) unless installed via
    /// [`DocumentStore::set_observer`]. Mirrors op latencies and fault
    /// activations into metrics without touching behaviour.
    obs: Observer,
    shards: [Mutex<Shard>; SHARDS],
}

fn shard_of(name: &str) -> usize {
    (xxhash64(name.as_bytes(), 0x6d6d_5f73_6861_7264) % SHARDS as u64) as usize
}

impl DocumentStore {
    /// Open (creating if needed) a store rooted at `dir`, replaying any
    /// existing collection logs.
    pub fn open(
        dir: impl AsRef<Path>,
        profile: LatencyProfile,
        clock: VirtualClock,
        stats: StoreStats,
    ) -> Result<Self> {
        Self::open_with_faults(dir, profile, clock, stats, FaultInjector::new())
    }

    /// Open a store with a fault-injection handle (tests of the
    /// crash-recovery protocol; a disarmed injector is free).
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        profile: LatencyProfile,
        clock: VirtualClock,
        stats: StoreStats,
        faults: FaultInjector,
    ) -> Result<Self> {
        let root = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let mut shards: [Shard; SHARDS] = Default::default();
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                let name = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .ok_or_else(|| Error::corrupt("non-utf8 collection name"))?
                    .to_string();
                let coll = Self::replay(&path, &name)?;
                shards[shard_of(&name)].collections.insert(name, coll);
            }
        }
        Ok(DocumentStore {
            root,
            clock,
            profile,
            stats,
            faults,
            obs: Observer::disabled(),
            shards: shards.map(Mutex::new),
        })
    }

    /// Install an observer that mirrors op latencies, payload sizes, and
    /// fault activations into metrics. Purely additive: the store's
    /// behaviour, accounting, and stored bytes are unchanged.
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Run the fault gate for one operation, counting any activation
    /// (damage effect or injected error) in the observer's metrics.
    fn fault_gate(&self, class: OpClass, op: &'static str, bytes: usize) -> Result<FaultEffect> {
        match self.faults.on_op(class, bytes) {
            Ok(FaultEffect::Clean) => Ok(FaultEffect::Clean),
            Ok(effect) => {
                self.obs.inc(&format!("mmm_fault_activations_total{{op=\"{op}\"}}"), 1);
                self.obs
                    .event(EventLevel::Warn, || format!("fault injected during {op}: {effect:?}"));
                Ok(effect)
            }
            Err(e) => {
                self.obs.inc(&format!("mmm_fault_activations_total{{op=\"{op}\"}}"), 1);
                self.obs.event(EventLevel::Warn, || format!("fault injected during {op}: {e}"));
                Err(e)
            }
        }
    }

    /// Record one successful charged operation into the observer.
    fn observe_op(&self, op: &'static str, bytes: u64, cost: std::time::Duration) {
        self.obs.store_op(op, bytes, cost);
    }

    fn replay(path: &Path, name: &str) -> Result<Collection> {
        let data = std::fs::read(path)?;
        let mut docs = BTreeMap::new();
        let mut next_id = 0;
        let mut pos = 0usize;
        let mut valid_len = data.len();
        while pos < data.len() {
            let Some(rel) = data[pos..].iter().position(|&b| b == b'\n') else {
                // Torn tail: a crash mid-append left a record without
                // its newline. The write was never acknowledged, so we
                // truncate back to the last whole record and move on.
                valid_len = pos;
                break;
            };
            let line = &data[pos..pos + rel];
            if !line.is_empty() {
                let (id, held) = parse_record(line, name, pos)?;
                match held {
                    Some(held) => docs.insert(id, held),
                    // Tombstone: drop the document but never reuse its id.
                    None => docs.remove(&id),
                };
                next_id = next_id.max(id + 1);
            }
            pos += rel + 1;
        }
        if valid_len < data.len() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(valid_len as u64)?;
        }
        let log = OpenOptions::new().append(true).open(path)?;
        Ok(Collection { log, docs, next_id, indexes: HashMap::new() })
    }

    fn with_collection<T>(&self, name: &str, f: impl FnOnce(&mut Collection) -> Result<T>) -> Result<T> {
        let mut shard = self.shards[shard_of(name)].lock().unpoison();
        let Shard {
            collections,
            index_defs,
        } = &mut *shard;
        let coll = match collections.entry(name.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let path = self.root.join(format!("{name}.jsonl"));
                let log = OpenOptions::new().create(true).append(true).open(&path)?;
                let mut coll = Collection {
                    log,
                    docs: BTreeMap::new(),
                    next_id: 0,
                    indexes: HashMap::new(),
                };
                for def in index_defs.get(name).into_iter().flatten() {
                    coll.build_index(def.clone());
                }
                v.insert(coll)
            }
        };
        f(coll)
    }

    /// Insert a document (must be a JSON object). Returns its id.
    /// Charged as one `doc_insert` round-trip plus transfer cost.
    ///
    /// On failure nothing is acknowledged: the id is not consumed and
    /// the in-memory state is unchanged (a torn append leaves bytes on
    /// disk that the next open truncates away).
    pub fn insert(&self, collection: &str, doc: Value) -> Result<DocId> {
        if !doc.is_object() {
            return Err(Error::invalid("documents must be JSON objects"));
        }
        self.with_collection(collection, |coll| {
            let id = coll.next_id;
            let line = line_of(id, &doc)?;
            // A caller's own `_id` is held but not written.
            let len = match doc.get("_id") {
                None => len_without_id(line.len(), id, &doc),
                Some(_) => doc.to_string().len() as u64,
            };
            let mut record = format_record(&line);
            match self.fault_gate(OpClass::DocInsert, "doc_insert", record.len())? {
                FaultEffect::Clean => {}
                FaultEffect::Torn { keep } => {
                    // Crash mid-append: part of the record (never its
                    // newline) reaches the log, then the writer dies.
                    let keep = keep.min(record.len() - 1);
                    coll.log.write_all(&record[..keep])?;
                    return Err(Error::Io(std::io::Error::other(format!(
                        "injected torn append to collection {collection:?}"
                    ))));
                }
                FaultEffect::Flip { seed, flips } => {
                    // Silent corruption: the persisted bytes rot but the
                    // writer (and this process's memory) believe the
                    // clean document landed. Only replay notices. The
                    // framing newline is spared so the record stays one
                    // line.
                    let n = record.len();
                    flip_bits(&mut record[..n - 1], seed, flips);
                }
            }
            let bytes = record.len() as u64;
            coll.log.write_all(&record)?;
            coll.next_id += 1;
            for index in coll.indexes.values_mut() {
                index.insert(id, &doc);
            }
            coll.docs.insert(id, Held { doc, len });
            let cost = self.profile.doc_insert.cost(bytes);
            self.stats.record_doc_insert(bytes);
            self.clock.charge(cost);
            self.observe_op("doc_insert", bytes, cost);
            Ok(id)
        })
    }

    /// Fetch one document by id. Charged as one `doc_query` round-trip.
    pub fn get(&self, collection: &str, id: DocId) -> Result<Value> {
        // Queries have no payload to tear or flip; only crash/transient
        // faults apply.
        self.fault_gate(OpClass::DocQuery, "doc_query", 0)?;
        self.with_collection(collection, |coll| {
            let held = coll
                .docs
                .get(&id)
                .ok_or_else(|| Error::not_found(format!("document {id} in {collection:?}")))?;
            self.charge_query("doc_query", held.len);
            Ok(held.doc.clone())
        })
    }

    /// Charge one query round-trip that transferred `bytes`.
    fn charge_query(&self, op: &'static str, bytes: u64) {
        let cost = self.profile.doc_query.cost(bytes);
        self.stats.record_doc_query(bytes);
        self.clock.charge(cost);
        self.observe_op(op, bytes, cost);
    }

    /// One find() call: fault-gated, then charged as one `doc_query`
    /// round-trip plus the bytes `select` reports for what it returned.
    fn find<T>(
        &self,
        collection: &str,
        select: impl FnOnce(&Collection) -> Result<(T, u64)>,
    ) -> Result<T> {
        self.fault_gate(OpClass::DocQuery, "doc_find", 0)?;
        self.with_collection(collection, |coll| {
            let (found, bytes) = select(coll)?;
            self.charge_query("doc_find", bytes);
            Ok(found)
        })
    }

    /// Pass every document of `collection` to `accept` by reference,
    /// id-ascending. One find() call with a server-side filter: fault
    /// gated once and charged as one `doc_query` round-trip plus the
    /// bytes of the documents `accept` returned `true` for — what such
    /// a find would ship. A missing collection is an empty one.
    ///
    /// `accept` runs under the collection's lock: it must not call this
    /// store (that deadlocks) and should not do slow work (it stalls
    /// every other op on the collection). Copy out what it needs and
    /// act on it after `visit` returns.
    pub fn visit(&self, collection: &str, accept: impl FnMut(DocId, &Value) -> bool) -> Result<()> {
        self.find(collection, |coll| Ok(((), coll.scan(accept))))
    }

    /// Find all documents whose `field` equals `value`.
    /// Charged as one `doc_query` round-trip (one find() call).
    pub fn find_eq(&self, collection: &str, field: &str, value: &Value) -> Result<Vec<(DocId, Value)>> {
        self.find(collection, |coll| {
            if coll.indexes.get(field).is_some_and(|i| i.def.of_field) {
                // Indexed path: O(hits).
                return coll.indexed(collection, field, &[value.to_string()]);
            }
            // Unindexed path: `visit`'s scan, keeping the matches.
            Ok(coll.collect(|doc| doc.get(field) == Some(value)))
        })
    }

    /// All documents filed under any of `keys` in the secondary index
    /// `index` (see [`DocumentStore::create_keyed_index`]), each once,
    /// id-ascending: O(hits), whatever the collection holds. Charged
    /// like [`DocumentStore::find_eq`] — one `doc_query` round-trip for
    /// any number of keys, bytes of the documents returned. An index
    /// nobody declared is [`Error::Invalid`].
    pub fn find_by_key(
        &self,
        collection: &str,
        index: &str,
        keys: &[String],
    ) -> Result<Vec<(DocId, Value)>> {
        self.find(collection, |coll| coll.indexed(collection, index, keys))
    }

    /// The documents with the given ids, in the order given; ids that
    /// name no document are skipped. One `$in`-style find: charged as
    /// one `doc_query` round-trip for any number of ids, bytes of the
    /// documents returned.
    pub fn get_many(&self, collection: &str, ids: &[DocId]) -> Result<Vec<(DocId, Value)>> {
        self.find(collection, |coll| Ok(coll.fetch(ids.iter().copied())))
    }

    /// Delete one document by id (append a tombstone to the log). The id
    /// is never reused. Charged as one delete round-trip.
    pub fn delete(&self, collection: &str, id: DocId) -> Result<()> {
        self.with_collection(collection, |coll| {
            if !coll.docs.contains_key(&id) {
                return Err(Error::not_found(format!("document {id} in {collection:?}")));
            }
            let record = format_record(&json!({"_id": id, "_deleted": true}).to_string());
            match self.fault_gate(OpClass::DocDelete, "doc_delete", record.len())? {
                FaultEffect::Clean => {}
                FaultEffect::Torn { keep } => {
                    let keep = keep.min(record.len() - 1);
                    coll.log.write_all(&record[..keep])?;
                    return Err(Error::Io(std::io::Error::other(format!(
                        "injected torn tombstone append to collection {collection:?}"
                    ))));
                }
                // A flipped tombstone surfaces as Corrupt on replay, but
                // this process already dropped the document; nothing
                // more to model here.
                FaultEffect::Flip { .. } => {}
            }
            coll.log.write_all(&record)?;
            if let Some(held) = coll.docs.remove(&id) {
                for index in coll.indexes.values_mut() {
                    index.remove(id, &held.doc);
                }
            }
            let bytes = record.len() as u64;
            let cost = self.profile.doc_insert.cost(bytes);
            self.stats.record_doc_delete(bytes);
            self.clock.charge(cost);
            self.observe_op("doc_delete", bytes, cost);
            Ok(())
        })
    }

    /// Compact a collection's log: rewrite it with only the live
    /// documents, dropping tombstones and deleted rows. Returns the
    /// number of bytes reclaimed on disk. Atomic (write-then-rename);
    /// ids, indexes and in-memory state are unaffected. Not charged
    /// (server-side maintenance).
    pub fn compact(&self, collection: &str) -> Result<u64> {
        let path = self.root.join(format!("{collection}.jsonl"));
        self.with_collection(collection, |coll| {
            let before = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let tmp = self.root.join(format!(".{collection}.compact"));
            {
                let mut out = std::io::BufWriter::new(File::create(&tmp)?);
                for (&id, held) in &coll.docs {
                    out.write_all(&format_record(&line_of(id, &held.doc)?))?;
                }
                // Preserve the id horizon so compaction never allows
                // id reuse, even when the newest documents were
                // deleted.
                if coll.docs.keys().next_back().map(|&m| m + 1) != Some(coll.next_id)
                    && coll.next_id > 0
                {
                    let horizon = json!({"_id": coll.next_id - 1, "_deleted": true});
                    out.write_all(&format_record(&horizon.to_string()))?;
                }
                out.flush()?;
            }
            std::fs::rename(&tmp, &path)?;
            // Reopen the append handle on the new file.
            coll.log = OpenOptions::new().append(true).open(&path)?;
            let after = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            Ok(before.saturating_sub(after))
        })
    }

    /// Create (or rebuild) a secondary index on `field`, making
    /// [`DocumentStore::find_eq`] on that field O(hits) instead of a
    /// collection scan: the one-key case of
    /// [`DocumentStore::create_keyed_index`], named after the field.
    pub fn create_index(&self, collection: &str, field: &str) -> Result<()> {
        let name = field.to_string();
        self.declare_index(collection, field, true, move |doc| {
            doc.get(&name).map(Value::to_string).into_iter().collect()
        });
        Ok(())
    }

    /// Declare (or redeclare) the secondary index `index` on
    /// `collection`: every document is filed under each key `keys_of`
    /// returns for it — none, one, or one per member of a batched
    /// record. The index is rebuilt from the documents the collection
    /// holds now and updated by every later insert and delete in the
    /// critical section that updates the collection itself, so a lookup
    /// can never disagree with a scan. The declaration applies whenever
    /// the collection comes into being (replayed at open, or created by
    /// its first insert) and creates nothing on disk: indexes are
    /// in-memory only, redeclare after reopening. Only
    /// [`DocumentStore::find_by_key`] reads it — `find_eq` never
    /// mistakes it for the index of a field of the same name. Not
    /// charged (a server-side maintenance operation).
    pub fn create_keyed_index(
        &self,
        collection: &str,
        index: &str,
        keys_of: impl Fn(&Value) -> Vec<String> + Send + Sync + 'static,
    ) {
        self.declare_index(collection, index, false, keys_of);
    }

    fn declare_index(
        &self,
        collection: &str,
        name: &str,
        of_field: bool,
        keys_of: impl Fn(&Value) -> Vec<String> + Send + Sync + 'static,
    ) {
        let def = IndexDef {
            name: name.to_string(),
            keys_of: Arc::new(keys_of),
            of_field,
        };
        let mut shard = self.shards[shard_of(collection)].lock().unpoison();
        if let Some(coll) = shard.collections.get_mut(collection) {
            coll.build_index(def.clone());
        }
        let defs = shard.index_defs.entry(collection.to_string()).or_default();
        defs.retain(|d| d.name != def.name);
        defs.push(def);
    }

    /// Number of documents in a collection (not charged — local check
    /// used by tests and assertions, not by the savers).
    pub fn count(&self, collection: &str) -> usize {
        self.shards[shard_of(collection)]
            .lock()
            .unpoison()
            .collections
            .get(collection)
            .map(|c| c.docs.len())
            .unwrap_or(0)
    }

    /// All documents of a collection, id-ascending: the scan of
    /// [`DocumentStore::visit`], accepting and copying every document.
    pub fn all(&self, collection: &str) -> Result<Vec<(DocId, Value)>> {
        self.find(collection, |coll| Ok(coll.collect(|_| true)))
    }

    /// The store's fault-injection handle.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }
}

/// Outcome of one [`salvage`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Collection logs scanned.
    pub collections: usize,
    /// Valid records kept across all logs.
    pub records_kept: u64,
    /// Complete-but-invalid records moved to quarantine sidecars.
    pub records_dropped: u64,
    /// Torn trailing records truncated (and quarantined).
    pub torn_tails: u64,
}

impl SalvageReport {
    /// True when the pass changed nothing (the logs were already clean).
    pub fn is_noop(&self) -> bool {
        self.records_dropped == 0 && self.torn_tails == 0
    }
}

/// Last-resort recovery for a document directory whose strict open fails
/// with [`Error::Corrupt`]: scan every collection log, keep the records
/// that verify, and move everything else (flipped records, garbled
/// spans, torn tails) into a `<collection>.jsonl.quarantine` sidecar,
/// rewriting the log atomically (tmp + rename).
///
/// The normal open stays fail-stop — a complete record that fails its
/// checksum is evidence of real corruption and refusing to serve is the
/// safe default. Salvage is the explicit operator action for when
/// refusing is no longer useful: it is to the log layer what
/// fsck/repair is to the object graph. After a salvage the store opens,
/// and the regular fsck pass classifies whatever the dropped records
/// orphaned (dangling commits, uncommitted debris, ...). Nothing is
/// destroyed: every dropped byte is preserved in the sidecar.
pub fn salvage(dir: impl AsRef<Path>) -> Result<SalvageReport> {
    let dir = dir.as_ref();
    let mut report = SalvageReport::default();
    if !dir.exists() {
        return Ok(report);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "jsonl") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| Error::corrupt("non-utf8 collection name"))?
            .to_string();
        report.collections += 1;
        let data = std::fs::read(&path)?;
        let mut kept: Vec<u8> = Vec::with_capacity(data.len());
        let mut quarantined: Vec<u8> = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let Some(rel) = data[pos..].iter().position(|&b| b == b'\n') else {
                report.torn_tails += 1;
                quarantined.extend_from_slice(&data[pos..]);
                quarantined.push(b'\n');
                break;
            };
            let line = &data[pos..pos + rel];
            if !line.is_empty() {
                if parse_record(line, &name, pos).is_ok() {
                    report.records_kept += 1;
                    kept.extend_from_slice(&data[pos..pos + rel + 1]);
                } else {
                    report.records_dropped += 1;
                    quarantined.extend_from_slice(&data[pos..pos + rel + 1]);
                }
            }
            pos += rel + 1;
        }
        if !quarantined.is_empty() {
            let mut sidecar = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path.with_extension("jsonl.quarantine"))?;
            sidecar.write_all(&quarantined)?;
            let tmp = path.with_extension("jsonl.tmp");
            std::fs::write(&tmp, &kept)?;
            std::fs::rename(&tmp, &path)?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::TempDir;

    fn open(dir: &Path, profile: LatencyProfile) -> DocumentStore {
        DocumentStore::open(dir, profile, VirtualClock::new(), StoreStats::new()).unwrap()
    }

    #[test]
    fn insert_and_get() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        let id = db.insert("models", json!({"arch": "FFNN-48", "n": 5000})).unwrap();
        let doc = db.get("models", id).unwrap();
        assert_eq!(doc["arch"], "FFNN-48");
        assert_eq!(db.count("models"), 1);
    }

    #[test]
    fn ids_are_sequential_per_collection() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.insert("a", json!({"x": 1})).unwrap(), 0);
        assert_eq!(db.insert("a", json!({"x": 2})).unwrap(), 1);
        assert_eq!(db.insert("b", json!({"x": 3})).unwrap(), 0, "collections are independent");
    }

    #[test]
    fn non_object_documents_are_rejected() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        assert!(db.insert("a", json!(42)).is_err());
        assert!(db.insert("a", json!([1, 2])).is_err());
    }

    #[test]
    fn missing_document_is_not_found() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        assert!(matches!(db.get("a", 7), Err(Error::NotFound(_))));
    }

    #[test]
    fn find_eq_filters() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        db.insert("sets", json!({"kind": "baseline", "uc": 1})).unwrap();
        db.insert("sets", json!({"kind": "update", "uc": 2})).unwrap();
        db.insert("sets", json!({"kind": "baseline", "uc": 3})).unwrap();
        let hits = db.find_eq("sets", "kind", &json!("baseline")).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|(_, v)| v["kind"] == "baseline"));
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = TempDir::new("mmm-doc").unwrap();
        {
            let db = open(dir.path(), LatencyProfile::zero());
            db.insert("models", json!({"v": 1})).unwrap();
            db.insert("models", json!({"v": 2})).unwrap();
        }
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("models"), 2);
        assert_eq!(db.get("models", 1).unwrap()["v"], 2);
        // Ids continue after the replayed maximum.
        assert_eq!(db.insert("models", json!({"v": 3})).unwrap(), 2);
    }

    #[test]
    fn latency_and_stats_are_charged() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let clock = VirtualClock::new();
        let stats = StoreStats::new();
        let db = DocumentStore::open(dir.path(), LatencyProfile::server(), clock.clone(), stats.clone()).unwrap();
        db.insert("a", json!({"k": "v"})).unwrap();
        assert_eq!(stats.snapshot().doc_inserts, 1);
        assert!(clock.simulated() >= LatencyProfile::server().doc_insert.fixed);
        let before = clock.simulated();
        let _ = db.get("a", 0).unwrap();
        assert!(clock.simulated() - before >= LatencyProfile::server().doc_query.fixed);
        assert_eq!(stats.snapshot().doc_queries, 1);
    }

    #[test]
    fn delete_removes_and_never_reuses_ids() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        let a = db.insert("c", json!({"v": 1})).unwrap();
        let b = db.insert("c", json!({"v": 2})).unwrap();
        db.delete("c", a).unwrap();
        assert!(matches!(db.get("c", a), Err(Error::NotFound(_))));
        assert_eq!(db.get("c", b).unwrap()["v"], 2);
        assert_eq!(db.count("c"), 1);
        let c = db.insert("c", json!({"v": 3})).unwrap();
        assert!(c > b, "deleted ids must not be reused");
        // Deleting twice fails.
        assert!(db.delete("c", a).is_err());
    }

    #[test]
    fn tombstones_survive_reopen() {
        let dir = TempDir::new("mmm-doc").unwrap();
        {
            let db = open(dir.path(), LatencyProfile::zero());
            db.insert("c", json!({"v": 1})).unwrap();
            db.insert("c", json!({"v": 2})).unwrap();
            db.delete("c", 0).unwrap();
        }
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("c"), 1);
        assert!(matches!(db.get("c", 0), Err(Error::NotFound(_))));
        assert_eq!(db.get("c", 1).unwrap()["v"], 2);
        assert_eq!(db.insert("c", json!({"v": 3})).unwrap(), 2);
    }

    #[test]
    fn compaction_reclaims_space_and_preserves_state() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        for i in 0..40 {
            db.insert("c", json!({"i": i, "payload": "x".repeat(100)})).unwrap();
        }
        for i in 0..30 {
            db.delete("c", i).unwrap();
        }
        let reclaimed = db.compact("c").unwrap();
        assert!(reclaimed > 3000, "reclaimed {reclaimed} bytes");
        assert_eq!(db.count("c"), 10);
        assert_eq!(db.get("c", 35).unwrap()["i"], 35);
        assert!(db.get("c", 5).is_err());
        // Appends after compaction work and ids continue.
        assert_eq!(db.insert("c", json!({"i": 40})).unwrap(), 40);
        // Everything survives a reopen of the compacted log.
        drop(db);
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("c"), 11);
        assert!(db.get("c", 12).is_err());
        assert_eq!(db.get("c", 40).unwrap()["i"], 40);
    }

    #[test]
    fn compaction_preserves_id_horizon_when_tail_was_deleted() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        db.insert("c", json!({"v": 0})).unwrap();
        db.insert("c", json!({"v": 1})).unwrap();
        db.delete("c", 1).unwrap(); // newest doc deleted
        db.compact("c").unwrap();
        drop(db);
        let db = open(dir.path(), LatencyProfile::zero());
        // Id 1 must not be reused after reopen.
        assert_eq!(db.insert("c", json!({"v": 2})).unwrap(), 2);
    }

    #[test]
    fn indexed_find_eq_matches_scan() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        for i in 0..30 {
            db.insert("s", json!({"kind": if i % 3 == 0 { "a" } else { "b" }, "i": i})).unwrap();
        }
        let scan = db.find_eq("s", "kind", &json!("a")).unwrap();
        db.create_index("s", "kind").unwrap();
        let indexed = db.find_eq("s", "kind", &json!("a")).unwrap();
        assert_eq!(scan, indexed);
        assert_eq!(indexed.len(), 10);
        // The index tracks subsequent inserts and deletes.
        let id = db.insert("s", json!({"kind": "a"})).unwrap();
        assert_eq!(db.find_eq("s", "kind", &json!("a")).unwrap().len(), 11);
        db.delete("s", id).unwrap();
        assert_eq!(db.find_eq("s", "kind", &json!("a")).unwrap().len(), 10);
        // Missing value → empty, not an error.
        assert!(db.find_eq("s", "kind", &json!("zzz")).unwrap().is_empty());
    }

    /// The keys of a test document: every string in its `keys` array.
    fn keys_field(doc: &Value) -> Vec<String> {
        let keys = doc.get("keys").and_then(Value::as_array);
        keys.into_iter()
            .flatten()
            .filter_map(Value::as_str)
            .map(String::from)
            .collect()
    }

    /// What index `by_key` must answer for `key`: the scan it replaces.
    fn scan_for(db: &DocumentStore, key: &str) -> Vec<(DocId, Value)> {
        let all = db.all("s").unwrap();
        all.into_iter()
            .filter(|(_, doc)| keys_field(doc).iter().any(|k| k == key))
            .collect()
    }

    #[test]
    fn declaring_an_index_creates_nothing_and_applies_to_the_first_insert() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        db.create_keyed_index("s", "by_key", keys_field);
        db.create_index("s", "kind").unwrap();
        assert_eq!(
            std::fs::read_dir(dir.path()).unwrap().count(),
            0,
            "no file for a declaration"
        );
        let id = db
            .insert("s", json!({"keys": ["a", "b"], "kind": "x"}))
            .unwrap();
        for key in ["a", "b"] {
            assert_eq!(
                db.find_by_key("s", "by_key", &[key.into()]).unwrap()[0].0,
                id
            );
        }
        assert_eq!(db.find_eq("s", "kind", &json!("x")).unwrap().len(), 1);
        assert!(matches!(
            db.find_by_key("s", "nope", &[]),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn find_eq_ignores_a_keyed_index_named_after_the_field() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        // Keyed by something unrelated to the field `kind`.
        db.create_keyed_index("s", "kind", keys_field);
        let id = db
            .insert("s", json!({"keys": ["full"], "kind": "diff"}))
            .unwrap();
        let found = |kind: &str| db.find_eq("s", "kind", &json!(kind)).unwrap();
        assert_eq!(found("diff")[0].0, id, "answered by the scan");
        assert!(found("full").is_empty());
        assert_eq!(
            db.find_by_key("s", "kind", &["full".into()]).unwrap()[0].0,
            id
        );
        // Declaring the field's own index takes the name over.
        db.create_index("s", "kind").unwrap();
        assert_eq!(found("diff")[0].0, id);
        assert!(found("full").is_empty());
    }

    #[test]
    fn keyed_lookups_cost_one_query_and_the_bytes_they_return() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let stats = StoreStats::new();
        let db = DocumentStore::open(
            dir.path(),
            LatencyProfile::m1(),
            VirtualClock::new(),
            stats.clone(),
        )
        .unwrap();
        db.create_keyed_index("s", "by_key", keys_field);
        let docs = [
            json!({"keys": ["a", "b"]}),
            json!({"keys": ["b"]}),
            json!({"unkeyed": true}),
        ];
        let ids: Vec<DocId> = docs
            .iter()
            .map(|d| db.insert("s", d.clone()).unwrap())
            .collect();
        let len = |i: usize| docs[i].to_string().len() as u64;

        let before = stats.snapshot();
        let hits = db
            .find_by_key("s", "by_key", &["a".into(), "b".into(), "zzz".into()])
            .unwrap();
        let delta = stats.snapshot() - before;
        assert_eq!(
            hits,
            vec![(ids[0], docs[0].clone()), (ids[1], docs[1].clone())],
            "each once"
        );
        assert_eq!((delta.doc_queries, delta.bytes_read), (1, len(0) + len(1)));

        let before = stats.snapshot();
        let got = db.get_many("s", &[ids[2], 99, ids[0]]).unwrap();
        let delta = stats.snapshot() - before;
        assert_eq!(
            got,
            vec![(ids[2], docs[2].clone()), (ids[0], docs[0].clone())]
        );
        assert_eq!((delta.doc_queries, delta.bytes_read), (1, len(2) + len(0)));
    }

    #[test]
    fn deleting_the_last_document_of_a_key_removes_its_bucket() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        db.create_keyed_index("s", "by_key", keys_field);
        db.create_index("s", "n").unwrap();
        let buckets = |index: &str| {
            db.with_collection("s", |coll| Ok(coll.indexes[index].buckets.len()))
                .unwrap()
        };
        let ids: Vec<DocId> = (0..10_000)
            .map(|n| {
                db.insert(
                    "s",
                    json!({"keys": [format!("k{n}").as_str(), "shared"], "n": n}),
                )
                .unwrap()
            })
            .collect();
        assert_eq!((buckets("by_key"), buckets("n")), (10_001, 10_000));
        ids.iter().for_each(|&id| db.delete("s", id).unwrap());
        assert_eq!(
            (buckets("by_key"), buckets("n")),
            (0, 0),
            "empty buckets must not pile up"
        );
    }

    #[test]
    fn concurrent_inserts_are_safe_and_complete() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..50 {
                        db.insert("conc", json!({"thread": t, "i": i})).unwrap();
                    }
                });
            }
        });
        assert_eq!(db.count("conc"), 200);
        // Ids are unique and dense.
        let all = db.find_eq("conc", "thread", &json!(0)).unwrap();
        assert_eq!(all.len(), 50);
        // Reopen replays everything written under contention.
        drop(db);
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("conc"), 200);
    }

    #[test]
    fn stores_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DocumentStore>();
        assert_send_sync::<crate::FileStore>();
        assert_send_sync::<StoreStats>();
    }

    #[test]
    fn concurrent_writers_on_distinct_collections_stay_isolated() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        std::thread::scope(|s| {
            for t in 0..6 {
                let db = &db;
                s.spawn(move || {
                    let coll = format!("shard_test_{t}");
                    for i in 0..40 {
                        db.insert(&coll, json!({"i": i})).unwrap();
                    }
                });
            }
        });
        for t in 0..6 {
            let coll = format!("shard_test_{t}");
            assert_eq!(db.count(&coll), 40);
            // Per-collection id assignment stayed dense despite the
            // cross-collection parallelism.
            let all = db.all(&coll).unwrap();
            let ids: Vec<u64> = all.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, (0..40).collect::<Vec<u64>>());
        }
        // Reopen replays every shard's logs.
        drop(db);
        let db = open(dir.path(), LatencyProfile::zero());
        for t in 0..6 {
            assert_eq!(db.count(&format!("shard_test_{t}")), 40);
        }
    }

    mod model_based {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap as Oracle;

        /// A random operation against one collection.
        #[derive(Debug, Clone)]
        enum Op {
            Insert(u8),
            Delete(u8),
            Compact,
            Reopen,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => any::<u8>().prop_map(Op::Insert),
                2 => any::<u8>().prop_map(Op::Delete),
                1 => Just(Op::Compact),
                1 => Just(Op::Reopen),
            ]
        }

        /// A random operation against an indexed collection.
        #[derive(Debug, Clone)]
        enum IndexOp {
            /// Insert a document filed under these keys (of a pool of 6).
            Insert(Vec<u8>),
            /// Insert a document the key function has nothing to say about.
            InsertUnkeyed,
            /// The same insert, torn by an injected fault: never acknowledged.
            TornInsert(Vec<u8>),
            Delete(u8),
            Compact,
            Reopen,
        }

        fn arb_index_op() -> impl Strategy<Value = IndexOp> {
            let keys = || proptest::collection::vec(0u8..6, 0..4);
            prop_oneof![
                5 => keys().prop_map(IndexOp::Insert),
                1 => Just(IndexOp::InsertUnkeyed),
                1 => keys().prop_map(IndexOp::TornInsert),
                3 => any::<u8>().prop_map(IndexOp::Delete),
                1 => Just(IndexOp::Compact),
                1 => Just(IndexOp::Reopen),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The index is the collection, read another way: after any
            /// sequence of inserts (keyed under several keys, one, none),
            /// torn inserts, deletes, compactions and reopens, a lookup
            /// of every key returns exactly what filtering `all()` by
            /// the key function does, and the index holds a bucket for
            /// exactly the keys some document has.
            #[test]
            fn keyed_index_matches_scan(ops in proptest::collection::vec(arb_index_op(), 1..40)) {
                use crate::fault::{FaultPlan, FaultTarget};
                let dir = TempDir::new("mmm-doc-prop").unwrap();
                let faults = FaultInjector::new();
                let open_indexed = || {
                    let db = DocumentStore::open_with_faults(
                        dir.path(),
                        LatencyProfile::zero(),
                        VirtualClock::new(),
                        StoreStats::new(),
                        faults.clone(),
                    )
                    .unwrap();
                    db.create_keyed_index("s", "by_key", keys_field);
                    db
                };
                let doc_of = |keys: &[u8]| {
                    let keys: Vec<String> = keys.iter().map(|k| format!("k{k}")).collect();
                    json!({ "keys": keys })
                };
                let mut db = open_indexed();
                let mut next_id: DocId = 0;
                for op in ops {
                    match op {
                        IndexOp::Insert(keys) => {
                            db.insert("s", doc_of(&keys)).unwrap();
                            next_id += 1;
                        }
                        IndexOp::InsertUnkeyed => {
                            db.insert("s", json!({"keys": 7, "other": true})).unwrap();
                            next_id += 1;
                        }
                        IndexOp::TornInsert(keys) => {
                            faults.arm(FaultPlan::torn_write_at(FaultTarget::Class(OpClass::DocInsert), 0, 9));
                            prop_assert!(db.insert("s", doc_of(&keys)).is_err());
                            faults.disarm_all();
                            // The torn bytes sit in the log until the next
                            // open truncates them; appending behind them
                            // would glue two records together.
                            drop(db);
                            db = open_indexed();
                        }
                        IndexOp::Delete(sel) => {
                            let _ = db.delete("s", u64::from(sel) % (next_id + 1));
                        }
                        IndexOp::Compact => {
                            db.compact("s").unwrap();
                        }
                        IndexOp::Reopen => {
                            drop(db);
                            db = open_indexed();
                        }
                    }
                    let mut live_keys = 0;
                    for k in 0..6u8 {
                        let key = format!("k{k}");
                        let scanned = scan_for(&db, &key);
                        prop_assert_eq!(&db.find_by_key("s", "by_key", &[key]).unwrap(), &scanned);
                        live_keys += usize::from(!scanned.is_empty());
                    }
                    let buckets = db.with_collection("s", |coll| Ok(coll.indexes["by_key"].buckets.len()));
                    prop_assert_eq!(buckets.unwrap(), live_keys);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Any interleaving of inserts, deletes, compactions and
            /// reopens leaves the store agreeing with a simple in-memory
            /// oracle — including id assignment and never-reuse.
            #[test]
            fn store_agrees_with_oracle(ops in proptest::collection::vec(arb_op(), 1..40)) {
                let dir = TempDir::new("mmm-doc-prop").unwrap();
                let mut db = open(dir.path(), LatencyProfile::zero());
                let mut oracle: Oracle<DocId, u8> = Oracle::new();
                let mut next_id: DocId = 0;

                for op in ops {
                    match op {
                        Op::Insert(v) => {
                            let id = db.insert("c", json!({"v": v})).unwrap();
                            prop_assert_eq!(id, next_id, "ids are dense and never reused");
                            oracle.insert(id, v);
                            next_id += 1;
                        }
                        Op::Delete(sel) => {
                            // Pick a pseudo-random existing id (or a missing one).
                            let target = u64::from(sel) % (next_id + 1).max(1);
                            let expect_ok = oracle.contains_key(&target);
                            let got = db.delete("c", target);
                            prop_assert_eq!(got.is_ok(), expect_ok);
                            oracle.remove(&target);
                        }
                        Op::Compact => {
                            db.compact("c").unwrap();
                        }
                        Op::Reopen => {
                            drop(db);
                            db = open(dir.path(), LatencyProfile::zero());
                        }
                    }
                    // Full-state agreement after every step.
                    prop_assert_eq!(db.count("c"), oracle.len());
                    for (&id, &v) in &oracle {
                        prop_assert_eq!(db.get("c", id).unwrap()["v"].as_u64(), Some(u64::from(v)));
                    }
                }
            }
        }
    }

    /// The laws behind charging a read from the length held with a
    /// document instead of re-serialising it.
    mod charge_laws {
        use super::*;
        use proptest::prelude::*;

        /// A random document from `seed`: nested objects and arrays,
        /// unicode and escaped strings, integers of every sign and size,
        /// floats that print long or short, the empty object, and now
        /// and then a caller-supplied `_id`.
        fn doc_of(seed: u64) -> Value {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let mut doc = value(&mut rng, 0);
            if rng.below(8) == 0 {
                if let Some(obj) = doc.as_object_mut() {
                    obj.insert("_id".into(), json!("mine"));
                }
            }
            doc
        }

        fn value(rng: &mut proptest::TestRng, depth: u32) -> Value {
            const STRINGS: [&str; 7] = [
                "",
                "plain",
                "é ü ß",
                "日本😀",
                "q\"uo\\te",
                "\n\t\r\u{1}\u{8}\u{c}",
                "\u{7f}/",
            ];
            const FLOATS: [f64; 8] = [0.5, -2.0, 1e300, 5e-324, 0.1, -0.0, 123456.789, f64::NAN];
            let pick = if depth == 0 { 0 } else { rng.below(9) };
            match pick {
                0 | 1 if depth < 3 => {
                    let n = rng.below(5);
                    let member = |rng: &mut proptest::TestRng| {
                        let key = STRINGS[rng.below(7) as usize].to_string() + "k";
                        (key, value(rng, depth + 1))
                    };
                    Value::Object((0..n).map(|_| member(rng)).collect())
                }
                2 if depth < 3 => {
                    Value::Array((0..rng.below(4)).map(|_| value(rng, depth + 1)).collect())
                }
                3 => json!(STRINGS[rng.below(7) as usize]),
                4 => json!(FLOATS[rng.below(8) as usize]),
                5 => json!(rng.next_u64()),
                6 => json!(-(rng.below(1 << 40) as i64) - 1),
                7 => json!(rng.below(2) == 0),
                _ => Value::Null,
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u64),
            Delete(u8),
            Compact,
            Reopen,
            /// Close, append a checksum-less record in a spelling the
            /// store would not write, reopen.
            Legacy(u8),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                5 => any::<u64>().prop_map(Op::Insert),
                2 => any::<u8>().prop_map(Op::Delete),
                1 => Just(Op::Compact),
                1 => Just(Op::Reopen),
                1 => any::<u8>().prop_map(Op::Legacy),
            ]
        }

        struct Charged {
            stats: StoreStats,
            clock: VirtualClock,
        }

        impl Charged {
            /// `read`'s result and its (queries, bytes read, simulated time).
            fn measure<T>(&self, read: impl FnOnce() -> T) -> (T, (u64, u64, std::time::Duration)) {
                let (s0, t0) = (self.stats.snapshot(), self.clock.simulated());
                let out = read();
                let d = self.stats.snapshot() - s0;
                (
                    out,
                    (d.doc_queries, d.bytes_read, self.clock.simulated() - t0),
                )
            }
        }

        fn encoded(found: &[(DocId, Value)]) -> u64 {
            found.iter().map(|(_, v)| v.to_string().len() as u64).sum()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// After any history of inserts, deletes, compactions,
            /// reopens and legacy records, every read is charged exactly
            /// `to_string().len()` of what it returns, and `visit`
            /// filtering like `find_eq` is charged like it and visits
            /// the same ids in the same order.
            #[test]
            fn reads_charge_the_encoded_length_of_what_they_return(
                ops in proptest::collection::vec(arb_op(), 1..30),
            ) {
                let dir = TempDir::new("mmm-doc-charge").unwrap();
                let charged = Charged { stats: StoreStats::new(), clock: VirtualClock::new() };
                let open = || DocumentStore::open(
                    dir.path(), LatencyProfile::m1(), charged.clock.clone(), charged.stats.clone(),
                ).unwrap();
                let mut db = open();
                let mut next_id: DocId = 0;
                for op in ops {
                    match op {
                        Op::Insert(seed) => {
                            let doc = doc_of(seed);
                            prop_assert_eq!(db.insert("c", doc.clone()).unwrap(), next_id);
                            next_id += 1;
                            // The clean document is charged, not a
                            // re-serialisation of it.
                            let (got, (_, bytes, _)) = charged.measure(|| db.get("c", next_id - 1).unwrap());
                            prop_assert_eq!(bytes, doc.to_string().len() as u64);
                            prop_assert_eq!(got.to_string(), doc.to_string());
                        }
                        Op::Delete(sel) => {
                            let _ = db.delete("c", u64::from(sel) % (next_id + 1));
                        }
                        Op::Compact => {
                            db.compact("c").unwrap();
                        }
                        Op::Reopen => {
                            drop(db);
                            db = open();
                        }
                        Op::Legacy(v) => {
                            drop(db);
                            let line = format!("{{ \"v\" : {v}.50, \"_id\": {next_id}, \"s\":\"\\u00e9\" }}\n");
                            let mut log = OpenOptions::new().create(true).append(true).open(dir.path().join("c.jsonl")).unwrap();
                            log.write_all(line.as_bytes()).unwrap();
                            drop(log);
                            next_id += 1;
                            db = open();
                        }
                    }
                    let (all, (queries, bytes, _)) = charged.measure(|| db.all("c").unwrap());
                    prop_assert_eq!((queries, bytes), (1, encoded(&all)));
                    for (id, doc) in &all {
                        let (got, (_, bytes, _)) = charged.measure(|| db.get("c", *id).unwrap());
                        prop_assert_eq!(got.to_string(), doc.to_string());
                        prop_assert_eq!(bytes, doc.to_string().len() as u64);
                    }
                    let ids: Vec<DocId> = all.iter().map(|(id, _)| *id).collect();
                    let (got, (_, bytes, _)) = charged.measure(|| db.get_many("c", &ids).unwrap());
                    prop_assert_eq!(bytes, encoded(&got));
                    // Every value some document holds under some key.
                    let probes = all.iter().filter_map(|(_, doc)| doc.as_object()?.iter().next());
                    let probes: Vec<(String, Value)> = probes.map(|(k, v)| (k.clone(), v.clone())).collect();
                    for (field, value) in &probes {
                        let (hits, find_cost) = charged.measure(|| db.find_eq("c", field, value).unwrap());
                        prop_assert_eq!(find_cost.1, encoded(&hits));
                        let mut visited = Vec::new();
                        let ((), visit_cost) = charged.measure(|| db.visit("c", |id, doc| {
                            let hit = doc.get(field) == Some(value);
                            if hit {
                                visited.push(id);
                            }
                            hit
                        }).unwrap());
                        let hit_ids: Vec<DocId> = hits.iter().map(|(id, _)| *id).collect();
                        prop_assert_eq!(visited, hit_ids);
                        prop_assert_eq!(visit_cost, find_cost);
                    }
                }
            }
        }

        /// `visit` is one find whatever the collection holds: one fault
        /// gate op (the injected crash of a find stops it before its
        /// closure runs), one query, ids ascending.
        #[test]
        fn a_visit_is_one_gated_find() {
            use crate::fault::{FaultPlan, FaultTarget};
            let dir = TempDir::new("mmm-doc").unwrap();
            let faults = FaultInjector::new();
            let stats = StoreStats::new();
            let db = DocumentStore::open_with_faults(
                dir.path(),
                LatencyProfile::m1(),
                VirtualClock::new(),
                stats.clone(),
                faults.clone(),
            )
            .unwrap();
            db.insert("full", json!({"a": 1})).unwrap();
            db.insert("full", json!({"a": 2})).unwrap();
            db.insert("emptied", json!({})).unwrap();
            db.delete("emptied", 0).unwrap();
            for collection in ["full", "emptied", "never-written"] {
                let (ops, queries) = (faults.ops_observed(), stats.snapshot().doc_queries);
                let mut seen = Vec::new();
                db.visit(collection, |id, _| {
                    seen.push(id);
                    false
                })
                .unwrap();
                assert_eq!(faults.ops_observed() - ops, 1, "{collection}");
                assert_eq!(stats.snapshot().doc_queries - queries, 1, "{collection}");
                let expect: Vec<DocId> = if collection == "full" {
                    vec![0, 1]
                } else {
                    vec![]
                };
                assert_eq!(seen, expect, "{collection}");
                assert_eq!(
                    stats.snapshot().bytes_read,
                    0,
                    "nothing accepted, nothing shipped"
                );
            }
            faults.arm(FaultPlan::crash_at(
                FaultTarget::Class(OpClass::DocQuery),
                0,
            ));
            let before = stats.snapshot();
            assert!(db
                .visit("full", |_, _| panic!("ran past the gate"))
                .is_err());
            assert_eq!(
                stats.snapshot() - before,
                Default::default(),
                "a failed find is not charged"
            );
        }
    }

    #[test]
    fn corrupt_log_line_is_reported() {
        let dir = TempDir::new("mmm-doc").unwrap();
        std::fs::write(dir.path().join("bad.jsonl"), b"{not json}\n").unwrap();
        let res = DocumentStore::open(
            dir.path(),
            LatencyProfile::zero(),
            VirtualClock::new(),
            StoreStats::new(),
        );
        assert!(matches!(res, Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncated_tail_is_dropped_and_log_repaired() {
        let dir = TempDir::new("mmm-doc").unwrap();
        {
            let db = open(dir.path(), LatencyProfile::zero());
            db.insert("c", json!({"v": 0})).unwrap();
            db.insert("c", json!({"v": 1})).unwrap();
        }
        // Crash mid-append: half a record, no newline.
        let path = dir.path().join("c.jsonl");
        let whole = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":2,\"_id").unwrap();
        drop(f);

        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("c"), 2, "torn record is not a document");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            whole,
            "log truncated back to the last whole record"
        );
        // The store keeps working; the torn id was never acknowledged,
        // so reusing it is correct.
        assert_eq!(db.insert("c", json!({"v": 2})).unwrap(), 2);
        drop(db);
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("c"), 3);
    }

    #[test]
    fn corrupt_middle_record_names_collection_and_offset() {
        let dir = TempDir::new("mmm-doc").unwrap();
        {
            let db = open(dir.path(), LatencyProfile::zero());
            db.insert("sets", json!({"v": 0})).unwrap();
            db.insert("sets", json!({"v": 1})).unwrap();
            db.insert("sets", json!({"v": 2})).unwrap();
        }
        // Flip one byte inside the second record's JSON.
        let path = dir.path().join("sets.jsonl");
        let mut bytes = std::fs::read(&path).unwrap();
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let target = first_nl + 3;
        bytes[target] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let err = open_err(dir.path());
        let msg = err.to_string();
        assert!(matches!(err, Error::Corrupt(_)), "got {msg}");
        assert!(msg.contains("\"sets\""), "collection named: {msg}");
        assert!(
            msg.contains(&format!("byte {}", first_nl + 1)),
            "offset named: {msg}"
        );
    }

    fn open_err(dir: &Path) -> Error {
        DocumentStore::open(dir, LatencyProfile::zero(), VirtualClock::new(), StoreStats::new())
            .err()
            .expect("open should fail")
    }

    #[test]
    fn legacy_records_without_checksums_still_replay() {
        let dir = TempDir::new("mmm-doc").unwrap();
        std::fs::write(
            dir.path().join("old.jsonl"),
            b"{\"v\":7,\"_id\":0}\n{\"_id\":0,\"_deleted\":true}\n{\"v\":8,\"_id\":1}\n",
        )
        .unwrap();
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("old"), 1);
        assert_eq!(db.get("old", 1).unwrap()["v"], 8);
        assert_eq!(db.insert("old", json!({"v": 9})).unwrap(), 2);
    }

    #[test]
    fn injected_torn_insert_is_unacknowledged_and_heals_on_reopen() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-doc").unwrap();
        let faults = FaultInjector::new();
        {
            let db = DocumentStore::open_with_faults(
                dir.path(),
                LatencyProfile::zero(),
                VirtualClock::new(),
                StoreStats::new(),
                faults.clone(),
            )
            .unwrap();
            db.insert("c", json!({"v": 0})).unwrap();
            faults.arm(FaultPlan::torn_write_at(FaultTarget::Class(OpClass::DocInsert), 0, 9));
            assert!(db.insert("c", json!({"v": 1})).is_err());
            assert_eq!(db.count("c"), 1, "failed insert left no document");
            assert_eq!(db.stats.snapshot().doc_inserts, 1, "failed op not accounted");
        }
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("c"), 1);
        assert_eq!(db.insert("c", json!({"v": 1})).unwrap(), 1, "id was never consumed");
    }

    #[test]
    fn injected_bit_flip_surfaces_as_corrupt_on_reopen() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-doc").unwrap();
        let faults = FaultInjector::new();
        {
            let db = DocumentStore::open_with_faults(
                dir.path(),
                LatencyProfile::zero(),
                VirtualClock::new(),
                StoreStats::new(),
                faults.clone(),
            )
            .unwrap();
            db.insert("c", json!({"v": 0})).unwrap();
            faults.arm(FaultPlan::bit_flip_at(FaultTarget::Class(OpClass::DocInsert), 0, 1, 7));
            // The writer believes this insert landed clean.
            db.insert("c", json!({"v": 1, "payload": "x".repeat(50)})).unwrap();
            assert_eq!(db.count("c"), 2);
        }
        let err = open_err(dir.path());
        assert!(matches!(err, Error::Corrupt(_)), "got {err}");
        assert!(err.to_string().contains("\"c\""), "collection named: {err}");
    }

    #[test]
    fn salvage_quarantines_bad_records_and_makes_the_store_openable() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-doc").unwrap();
        let faults = FaultInjector::new();
        {
            let db = DocumentStore::open_with_faults(
                dir.path(),
                LatencyProfile::zero(),
                VirtualClock::new(),
                StoreStats::new(),
                faults.clone(),
            )
            .unwrap();
            db.insert("c", json!({"v": 0})).unwrap();
            faults.arm(FaultPlan::bit_flip_at(FaultTarget::Class(OpClass::DocInsert), 0, 3, 7));
            db.insert("c", json!({"v": 1, "payload": "x".repeat(50)})).unwrap();
            db.insert("c", json!({"v": 2})).unwrap();
        }
        // Strict open refuses the flipped mid-log record...
        assert!(matches!(open_err(dir.path()), Error::Corrupt(_)));
        // ...salvage drops exactly that record into the sidecar...
        let report = salvage(dir.path()).unwrap();
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.records_kept, 2);
        assert!(!report.is_noop());
        let sidecar = std::fs::read(dir.path().join("c.jsonl.quarantine")).unwrap();
        assert!(!sidecar.is_empty(), "dropped bytes preserved");
        // ...and the store opens with the surviving documents.
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("c"), 2);
        assert_eq!(db.get("c", 0).unwrap()["v"], 0);
        assert_eq!(db.get("c", 2).unwrap()["v"], 2);
        assert!(db.get("c", 1).is_err(), "the flipped record is gone");
        // A second pass over the now-clean log is a no-op.
        assert!(salvage(dir.path()).unwrap().is_noop());
    }

    #[test]
    fn salvage_truncates_and_preserves_a_torn_tail() {
        let dir = TempDir::new("mmm-doc").unwrap();
        let good = format_record("{\"_id\":0,\"v\":7}");
        let mut data = good.clone();
        data.extend_from_slice(&good[..good.len() / 2]); // torn re-append
        std::fs::write(dir.path().join("t.jsonl"), &data).unwrap();
        let report = salvage(dir.path()).unwrap();
        assert_eq!(report.torn_tails, 1);
        assert_eq!(report.records_kept, 1);
        let db = open(dir.path(), LatencyProfile::zero());
        assert_eq!(db.count("t"), 1);
    }
}

//! Layer-call replays: the per-layer probes of a traced run.
//!
//! After a traced end-to-end operation completes, its recipe below makes
//! the same calls into each layer's public functions, on the same
//! inputs, one child span per call. Reads are replayed against the real
//! environment (they change nothing); writes go to a scratch environment
//! with the same backend, so the archive under test keeps exactly the
//! state an untraced run gives it.
//!
//! The recipes follow the approaches' documented artifact layout
//! (DESIGN.md §4): one set document, `<approach>/<doc>/params.bin`,
//! `update/<doc>/{hashes,diff}.bin`, `provenance/<doc>/updates.jsonl`,
//! and one commit record.

use mmm_core::apply_update::apply_update;
use mmm_core::approach::{
    BaselineSaver, ModelSetSaver, ProvenanceSaver, UpdateSaver, SETS_COLLECTION,
};
use mmm_core::env::ManagementEnv;
use mmm_core::model_set::{ModelSet, ModelSetId};
use mmm_core::param_codec::{self, DiffEntry};
use mmm_core::{artifacts, commit};
use mmm_dnn::ArchitectureSpec;
use mmm_store::BlobBytes;
use mmm_util::{Error, Result};
use serde_json::{json, Value};

use crate::gen::History;
use crate::trace::Recorder;

/// Blobs below this are "small": their cost is per call, not per byte.
const SMALL_BLOB: usize = 1 << 20;

/// The management approach a workload archives with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    Baseline,
    Update,
    Provenance,
}

impl Approach {
    pub fn name(self) -> &'static str {
        match self {
            Approach::Baseline => "baseline",
            Approach::Update => "update",
            Approach::Provenance => "provenance",
        }
    }

    pub fn saver(self) -> Box<dyn ModelSetSaver + Send> {
        match self {
            Approach::Baseline => Box::new(BaselineSaver::new()),
            Approach::Update => Box::new(UpdateSaver::new()),
            Approach::Provenance => Box::new(ProvenanceSaver::new()),
        }
    }
}

pub fn doc_id(id: &ModelSetId) -> Result<u64> {
    id.key
        .parse()
        .map_err(|_| Error::invalid(format!("set key {:?} is not a document id", id.key)))
}

fn params_key(approach: Approach, doc: u64) -> String {
    format!("{}/{doc}/params.bin", approach.name())
}

fn hashes_key(doc: u64) -> String {
    format!("update/{doc}/hashes.bin")
}

fn diff_key(doc: u64) -> String {
    format!("update/{doc}/diff.bin")
}

fn updates_key(doc: u64) -> String {
    format!("provenance/{doc}/updates.jsonl")
}

/// Byte offsets of every (model, layer) edge of a concat blob — the CAS
/// chunk boundaries the savers pass with a parameter blob.
fn concat_boundaries(total: usize, layer_sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < total {
        for &s in layer_sizes {
            off += 4 * s;
            if off >= total {
                break;
            }
            out.push(off);
        }
    }
    out
}

/// One cut after the 16-byte header, then one per model row.
fn hash_boundaries(n_layers: usize, total: usize) -> Vec<usize> {
    (0..)
        .map(|r| 16 + 8 * n_layers * r)
        .take_while(|&off| off < total)
        .collect()
}

/// Replays layer calls under the root span of one operation.
pub struct Replay<'a> {
    pub rec: &'a mut Recorder,
    pub real: &'a ManagementEnv,
    pub scratch: &'a ManagementEnv,
    pub approach: Approach,
    /// Number of commit records replayed so far (their fake set keys).
    pub commits: u64,
}

impl Replay<'_> {
    fn put(&mut self, parent: u32, key: &str, bytes: &[u8], boundaries: &[usize]) -> Result<()> {
        let env = self.scratch;
        let before = env.cas().map(|c| c.counters());
        self.rec.child_as(parent, bytes.len() as u64, true, || {
            let out = env.blobs().put_with_boundaries(key, bytes, boundaries);
            let name = match (before, env.cas()) {
                (Some(b), Some(cas)) => {
                    let a = cas.counters();
                    if a.dedup_bytes - b.dedup_bytes > a.chunk_put_bytes - b.chunk_put_bytes {
                        "cas.put_dedup"
                    } else {
                        "cas.put"
                    }
                }
                _ if bytes.len() < SMALL_BLOB => "file_store.put_small",
                _ => "file_store.put",
            };
            (out, name)
        })
    }

    /// The streaming put large Baseline saves take: `chunk`-sized writes
    /// into the store's sink.
    fn put_streamed(&mut self, parent: u32, key: &str, bytes: &[u8], chunk: usize) -> Result<()> {
        let env = self.scratch;
        let name = if env.cas().is_some() {
            "cas.put"
        } else {
            "file_store.put"
        };
        self.rec.child(parent, name, bytes.len() as u64, true, || {
            let mut sink = env.blobs().put_writer(key)?;
            for part in bytes.chunks(chunk.max(1)) {
                sink.write(part)?;
            }
            sink.finish()
        })
    }

    fn get_named<T: AsRef<[u8]>>(
        &mut self,
        parent: u32,
        mapped: bool,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let env = self.real;
        let before = env.cas().map(|c| c.counters());
        self.rec.child_as(parent, 0, true, || {
            let out = f();
            let len = out.as_ref().map_or(0, |b| b.as_ref().len());
            let name = match (before, env.cas()) {
                (Some(b), Some(cas)) => {
                    if cas.counters().cache_misses > b.cache_misses {
                        "cas.get_cold"
                    } else {
                        "cas.get_cached"
                    }
                }
                _ if mapped => "file_store.get_mapped",
                _ if len < SMALL_BLOB => "file_store.get_small",
                _ => "file_store.get",
            };
            (out, name)
        })
    }

    fn get(&mut self, parent: u32, key: &str) -> Result<Vec<u8>> {
        let env = self.real;
        let out = self.get_named(parent, false, || env.blobs().get(key))?;
        self.set_last_bytes(out.len());
        Ok(out)
    }

    fn get_mapped(&mut self, parent: u32, key: &str) -> Result<BlobBytes> {
        let env = self.real;
        let out = self.get_named(parent, true, || env.blobs().get_mapped(key))?;
        self.set_last_bytes(out.len());
        Ok(out)
    }

    /// A read's size is known only once it returns.
    fn set_last_bytes(&mut self, len: usize) {
        if let Some(span) = self.rec.spans.last_mut() {
            span.bytes = len as u64;
        }
    }

    fn get_range(&mut self, parent: u32, key: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let env = self.real;
        let name = if env.cas().is_some() {
            "cas.get_range"
        } else {
            "file_store.get_range"
        };
        self.rec.child(parent, name, len as u64, true, || {
            env.blobs().get_range(key, offset, len)
        })
    }

    fn doc_insert(&mut self, parent: u32, doc: Value) -> Result<u64> {
        let env = self.scratch;
        self.rec.child(parent, "doc_store.insert", 0, true, || {
            env.docs().insert(SETS_COLLECTION, doc)
        })
    }

    fn doc_get(&mut self, parent: u32, doc: u64) -> Result<Value> {
        let env = self.real;
        self.rec.child(parent, "doc_store.get", 0, true, || {
            env.docs().get(SETS_COLLECTION, doc)
        })
    }

    fn commit_check(&mut self, parent: u32, doc: u64) -> Result<bool> {
        let env = self.real;
        let id = ModelSetId {
            approach: self.approach.name().into(),
            key: doc.to_string(),
        };
        self.rec.child(parent, "commit.is_committed", 0, true, || {
            commit::is_committed(env, &id)
        })
    }

    fn commit(&mut self, parent: u32) -> Result<u64> {
        let env = self.scratch;
        self.commits += 1;
        let id = ModelSetId {
            approach: "probe".into(),
            key: self.commits.to_string(),
        };
        self.rec.child(parent, "commit.commit_save", 0, true, || {
            commit::commit_save(env, &id)
        })
    }

    fn full_doc(&self, set: &ModelSet) -> Result<Value> {
        let arch = serde_json::to_value(&set.arch)
            .map_err(|e| Error::invalid(format!("unserializable architecture: {e}")))?;
        Ok(json!({
            "approach": self.approach.name(),
            "kind": "full",
            "arch": arch,
            "n_models": set.len(),
            "layer_names": set.arch.parametric_layer_names(),
            "layer_sizes": set.arch.parametric_layer_sizes(),
            "depth": 0,
        }))
    }

    fn hash_table(&mut self, parent: u32, set: &ModelSet) -> Vec<Vec<u64>> {
        let bytes = crate::gen::user_bytes(set);
        self.rec.child(parent, "hash.f32", bytes, true, || {
            set.models().iter().map(|m| m.layer_hashes()).collect()
        })
    }

    fn put_hash_table(&mut self, parent: u32, doc: u64, table: &[Vec<u64>]) -> Result<()> {
        let blob = self
            .rec
            .child(parent, "param_codec.encode_hashes", 0, true, || {
                param_codec::encode_hashes(table)
            });
        let bounds = hash_boundaries(table.first().map_or(0, Vec::len), blob.len());
        self.put(parent, &hashes_key(doc), &blob, &bounds)
    }

    /// A self-contained save: every approach's U1, every Baseline save.
    pub fn save_full(&mut self, parent: u32, set: &ModelSet) -> Result<()> {
        let doc = self.doc_insert(parent, self.full_doc(set)?)?;
        let sizes = set.arch.parametric_layer_sizes();
        let total = crate::gen::user_bytes(set);
        let key = params_key(self.approach, doc);
        let chunk = self.real.stream_chunk_bytes();
        let streams = self.approach == Approach::Baseline && total as usize > chunk;
        if streams {
            let per_model = 4 * set.arch.param_count();
            self.rec
                .child(parent, "param_codec.encode_stream", total, true, || {
                    param_codec::encode_concat_stream(
                        set.len(),
                        per_model,
                        chunk,
                        |i, buf| {
                            param_codec::append_model_record(&set.models()[i], buf);
                            Ok(())
                        },
                        |part| {
                            std::hint::black_box(part);
                            Ok(())
                        },
                    )
                })?;
        }
        // The block encoder runs either way: it is the path of small
        // sets, and the streamed put below needs the bytes.
        let blob = self
            .rec
            .child(parent, "param_codec.encode_concat", total, !streams, || {
                param_codec::encode_concat(set.models())
            })?;
        if self.scratch.cas().is_some() {
            self.rec.child(parent, "hash.xxhash64", total, false, || {
                mmm_util::xxhash64(&blob, 0)
            });
        }
        if streams {
            self.put_streamed(parent, &key, &blob, chunk)?;
        } else {
            self.put(parent, &key, &blob, &concat_boundaries(blob.len(), &sizes))?;
        }
        if self.approach == Approach::Update {
            let table = self.hash_table(parent, set);
            self.put_hash_table(parent, doc, &table)?;
        }
        self.commit(parent)?;
        Ok(())
    }

    /// An Update diff save against the real base document `base`.
    pub fn save_diff(&mut self, parent: u32, set: &ModelSet, base: u64) -> Result<()> {
        self.commit_check(parent, base)?;
        let base_doc = self.doc_get(parent, base)?;
        let depth = base_doc.get("depth").and_then(Value::as_u64).unwrap_or(0) + 1;
        let table = self.hash_table(parent, set);
        let base_blob = self.get(parent, &hashes_key(base))?;
        let base_table = self.rec.child(
            parent,
            "param_codec.decode_hashes",
            base_blob.len() as u64,
            true,
            || param_codec::decode_hashes(&base_blob),
        )?;
        let entries: Vec<DiffEntry> = table
            .iter()
            .zip(&base_table)
            .enumerate()
            .flat_map(|(mi, (new, old))| {
                new.iter()
                    .zip(old)
                    .enumerate()
                    .filter(|(_, (n, o))| n != o)
                    .map(move |(li, _)| (mi, li))
            })
            .map(|(mi, li)| DiffEntry {
                model_idx: mi as u32,
                layer_idx: li as u32,
                data: set.models()[mi].layers[li].data.clone(),
            })
            .collect();
        let diff_bytes: usize = entries.iter().map(|e| 4 * e.data.len()).sum();
        let blob = self.rec.child(
            parent,
            "param_codec.encode_diff",
            diff_bytes as u64,
            true,
            || param_codec::encode_diff(&entries),
        )?;
        let doc = self.doc_insert(
            parent,
            json!({
                "approach": "update",
                "kind": "diff",
                "base": base.to_string(),
                "n_models": set.len(),
                "n_changed_layers": entries.len(),
                "depth": depth,
            }),
        )?;
        self.put(parent, &diff_key(doc), &blob, &[])?;
        self.put_hash_table(parent, doc, &table)?;
        self.commit(parent)?;
        Ok(())
    }

    /// A Provenance derived save: one document, one small blob of
    /// dataset references.
    pub fn save_prov(&mut self, parent: u32, history: &History, v: usize, base: u64) -> Result<()> {
        self.commit_check(parent, base)?;
        let record = history.records[v]
            .as_ref()
            .ok_or_else(|| Error::invalid("no update record"))?;
        let train = serde_json::to_value(record.train)
            .map_err(|e| Error::invalid(format!("unserializable train config: {e}")))?;
        let doc = self.doc_insert(
            parent,
            json!({
                "approach": "provenance",
                "kind": "prov",
                "base": base.to_string(),
                "n_models": history.versions[v].len(),
                "n_updates": record.updates.len(),
                "train": train,
                "environment": artifacts::environment_info(),
            }),
        )?;
        let lines: String = record
            .updates
            .iter()
            .map(|u| {
                json!({"model": u.model_idx, "dataset_id": u.dataset.id, "dataset_samples": u.dataset.n_samples, "seed": u.seed})
                    .to_string()
                    + "\n"
            })
            .collect();
        self.put(parent, &updates_key(doc), lines.as_bytes(), &[])?;
        self.commit(parent)?;
        Ok(())
    }

    /// The reads every recover starts with: commit check, then one
    /// document get per chain link, newest first.
    fn walk(&mut self, parent: u32, chain: &[u64]) -> Result<()> {
        let target = *chain.last().ok_or_else(|| Error::invalid("empty chain"))?;
        self.commit_check(parent, target)?;
        for &doc in chain.iter().rev() {
            self.doc_get(parent, doc)?;
        }
        Ok(())
    }

    /// Replay one chain level above the snapshot. `only` limits
    /// Provenance retraining to the selected models.
    fn level(
        &mut self,
        parent: u32,
        doc: u64,
        arch: &ArchitectureSpec,
        prov: Option<(&History, usize)>,
        only: Option<&[usize]>,
    ) -> Result<()> {
        match self.approach {
            Approach::Baseline => Ok(()),
            Approach::Update => {
                let blob = self.get(parent, &diff_key(doc))?;
                self.rec.child(
                    parent,
                    "param_codec.decode_diff",
                    blob.len() as u64,
                    true,
                    || param_codec::decode_diff(&blob),
                )?;
                Ok(())
            }
            Approach::Provenance => {
                self.get(parent, &updates_key(doc))?;
                let (history, v) =
                    prov.ok_or_else(|| Error::invalid("provenance replay without history"))?;
                let record = history.records[v]
                    .as_ref()
                    .ok_or_else(|| Error::invalid("no update record"))?;
                let real = self.real;
                for u in &record.updates {
                    if only.is_some_and(|sel| !sel.contains(&u.model_idx)) {
                        continue;
                    }
                    let dataset = self.rec.child(parent, "registry.get", 0, true, || {
                        real.registry().get(&u.dataset)
                    })?;
                    let base = &history.versions[v - 1].models()[u.model_idx];
                    self.rec.child(parent, "dnn.train", 0, true, || {
                        apply_update(arch, base, u, &record.train, &dataset)
                    });
                }
                Ok(())
            }
        }
    }

    /// A whole-set recover of the last document of `chain` (snapshot
    /// first). `history` carries what Provenance retrains.
    pub fn recover(
        &mut self,
        parent: u32,
        chain: &[u64],
        arch: &ArchitectureSpec,
        n_models: usize,
        history: Option<&History>,
    ) -> Result<()> {
        self.walk(parent, chain)?;
        let blob = self.get_mapped(parent, &params_key(self.approach, chain[0]))?;
        let (names, sizes) = (arch.parametric_layer_names(), arch.parametric_layer_sizes());
        self.rec.child(
            parent,
            "param_codec.decode_concat",
            blob.len() as u64,
            true,
            || param_codec::decode_concat(&blob, n_models, &names, &sizes),
        )?;
        if self.approach == Approach::Baseline {
            self.rec.child(
                parent,
                "param_codec.decode_visit",
                blob.len() as u64,
                false,
                || {
                    param_codec::decode_concat_visit(&blob, n_models, &names, &sizes, |_, m| {
                        std::hint::black_box(m);
                        Ok(())
                    })
                },
            )?;
        }
        for (v, &doc) in chain.iter().enumerate().skip(1) {
            self.level(parent, doc, arch, history.map(|h| (h, v)), None)?;
        }
        Ok(())
    }

    /// A selective recover of `indices` at the last document of `chain`.
    pub fn select(
        &mut self,
        parent: u32,
        chain: &[u64],
        arch: &ArchitectureSpec,
        indices: &[usize],
        history: Option<&History>,
    ) -> Result<()> {
        self.walk(parent, chain)?;
        let per_model = 4 * arch.param_count();
        let key = params_key(self.approach, chain[0]);
        for &i in indices {
            self.get_range(parent, &key, (i * per_model) as u64, per_model)?;
        }
        for (v, &doc) in chain.iter().enumerate().skip(1) {
            self.level(parent, doc, arch, history.map(|h| (h, v)), Some(indices))?;
        }
        Ok(())
    }
}

/// Replay what a query does below the planner: parse, then the catalog
/// listing with the two document scans it is built on.
pub fn replay_query(
    rec: &mut Recorder,
    parent: u32,
    env: &ManagementEnv,
    expr: &str,
    approach: Approach,
) -> Result<()> {
    rec.child(parent, "query.parse", 0, true, || {
        mmm_core::Query::parse(expr)
    })
    .map_err(|e| Error::invalid(e.to_string()))?;
    rec.child(parent, "catalog.list_sets", 0, true, || {
        mmm_core::catalog::list_sets(env)
    })?;
    // Both scans run inside `list_sets`, so they are not added to it.
    rec.child(parent, "doc_store.all", 0, false, || {
        env.docs().all(commit::COMMITS_COLLECTION)
    })?;
    let value = Value::String(approach.name().into());
    rec.child(parent, "doc_store.find_eq", 0, false, || {
        env.docs().find_eq(SETS_COLLECTION, "approach", &value)
    })?;
    Ok(())
}

/// Log replay time and log overhead of the document store under
/// `env_dir`, measured on a second handle while `env` stays open.
pub fn doc_store_probe(
    env: &ManagementEnv,
    env_dir: &std::path::Path,
    layers: &mut crate::report::Layers,
) -> Result<()> {
    let docs_dir = env_dir.join("docs");
    let start = std::time::Instant::now();
    let reopened = mmm_store::DocumentStore::open(
        &docs_dir,
        mmm_store::LatencyProfile::zero(),
        mmm_util::VirtualClock::new(),
        mmm_store::StoreStats::new(),
    )?;
    layers.doc_open_ms.push_ms(start.elapsed());
    drop(reopened);
    layers.doc_log_bytes = crate::sys::dir_bytes(&docs_dir);
    layers.doc_payload_bytes = 0;
    let collections = [
        SETS_COLLECTION,
        commit::COMMITS_COLLECTION,
        mmm_core::tags::TAGS_COLLECTION,
        mmm_core::branch::BRANCHES_COLLECTION,
    ];
    for c in collections {
        for (_, doc) in env.docs().all(c)? {
            layers.doc_payload_bytes += doc.to_string().len() as u64;
        }
    }
    Ok(())
}

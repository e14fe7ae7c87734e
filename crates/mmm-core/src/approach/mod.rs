//! The four model-set management approaches.
//!
//! All approaches implement [`ModelSetSaver`]. Initial sets are saved
//! with `save_set(env, set, None)`; derived sets pass the
//! [`Derivation`] describing how they were
//! trained from their base set. Recovery takes only the
//! [`ModelSetId`] and resolves recursive
//! dependencies (Update, Provenance) internally.

pub mod baseline;
pub mod mmlib_base;
pub mod provenance;
pub mod update;

pub use baseline::BaselineSaver;
/// Catalog collection name, exposed for benches and tools that seed
/// raw set documents (schema documented in DESIGN.md §3, "Approaches").
pub use common::SETS_COLLECTION;
pub use mmlib_base::MmlibBaseSaver;
pub use provenance::ProvenanceSaver;
pub use update::UpdateSaver;

use crate::env::ManagementEnv;
use crate::model_set::{Derivation, ModelSet, ModelSetId};
use mmm_dnn::ParamDict;
use mmm_util::{Error, Result};

/// A strategy for persisting and recovering whole model sets.
pub trait ModelSetSaver {
    /// Stable approach name, used as the `approach` field of ids.
    fn name(&self) -> &'static str;

    /// Persist a model set. `derivation` must be `None` for an initial
    /// set and `Some` for a set derived from a previously saved base.
    fn save_set(
        &mut self,
        env: &ManagementEnv,
        set: &ModelSet,
        derivation: Option<&Derivation>,
    ) -> Result<ModelSetId>;

    /// Recover a previously saved set, resolving any recursive
    /// dependencies on base sets.
    fn recover_set(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<ModelSet>;

    /// Convenience wrapper for initial sets.
    fn save_initial(&mut self, env: &ManagementEnv, set: &ModelSet) -> Result<ModelSetId> {
        self.save_set(env, set, None)
    }

    /// Recover only the models at `indices` (in the given order,
    /// repeats allowed) — the paper's actual recovery pattern: "only
    /// recover a selected number of models, for example, after an
    /// accident". Every approach does this cheaper than a whole-set
    /// recovery: ranged reads of the concatenated blob, per-model
    /// artifacts, filtered diff replay, or selective retraining.
    fn recover_models(
        &self,
        env: &ManagementEnv,
        id: &ModelSetId,
        indices: &[usize],
    ) -> Result<Vec<ParamDict>>;
}

/// Which management approach an [`ApproachSpec`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproachKind {
    /// Per-model artifacts, MMlib-style (the paper's baseline library).
    MmlibBase,
    /// One concatenated blob per set.
    Baseline,
    /// Diff chains against the base set.
    Update,
    /// Re-derivation from recorded provenance.
    Provenance,
}

impl ApproachKind {
    /// Every approach, in the paper's presentation order.
    pub const ALL: [ApproachKind; 4] =
        [ApproachKind::MmlibBase, ApproachKind::Baseline, ApproachKind::Update, ApproachKind::Provenance];

    /// The stable name used in ids, CLIs, and spec strings.
    pub fn name(self) -> &'static str {
        match self {
            ApproachKind::MmlibBase => "mmlib-base",
            ApproachKind::Baseline => "baseline",
            ApproachKind::Update => "update",
            ApproachKind::Provenance => "provenance",
        }
    }

    /// Inverse of [`ApproachKind::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Tuning options carried by an [`ApproachSpec`]. Currently all options
/// belong to the Update approach; [`ApproachSpec::parse`] rejects them
/// on any other kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApproachOptions {
    /// Bound diff-chain length by saving a full snapshot every `k`
    /// derived saves ([`UpdateSaver::with_full_snapshot_every`]).
    pub snapshot_every: Option<usize>,
}

/// A fully-specified approach configuration, parseable from one string
/// form shared by the CLI, benches, and tests:
/// `kind[:option[,option]...]` — e.g. `baseline`, `update`, or
/// `update:snapshot-every=4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproachSpec {
    /// Which approach to build.
    pub kind: ApproachKind,
    /// Approach-specific tuning.
    pub options: ApproachOptions,
}

impl ApproachSpec {
    /// A spec for `kind` with default options.
    pub fn new(kind: ApproachKind) -> Self {
        ApproachSpec { kind, options: ApproachOptions::default() }
    }

    /// Parse the canonical string form. Unknown kinds, unknown options,
    /// malformed values, and options applied to approaches that don't
    /// take them are all [`Error::Invalid`].
    pub fn parse(s: &str) -> Result<Self> {
        let (kind_name, opts) = match s.split_once(':') {
            Some((k, o)) => (k, Some(o)),
            None => (s, None),
        };
        let kind = ApproachKind::by_name(kind_name.trim()).ok_or_else(|| {
            Error::invalid(format!(
                "unknown approach {kind_name:?} (expected one of: mmlib-base, baseline, update, provenance)"
            ))
        })?;
        let mut options = ApproachOptions::default();
        for raw in opts.into_iter().flat_map(|o| o.split(',')) {
            let opt = raw.trim();
            if opt.is_empty() {
                continue;
            }
            if kind != ApproachKind::Update {
                return Err(Error::invalid(format!(
                    "option {opt:?} is not valid for approach {:?} (options exist only for 'update')",
                    kind.name()
                )));
            }
            match opt.split_once('=') {
                Some(("snapshot-every", v)) => {
                    let k: usize = v.trim().parse().map_err(|_| {
                        Error::invalid(format!("snapshot-every expects a positive integer, got {v:?}"))
                    })?;
                    if k == 0 {
                        return Err(Error::invalid("snapshot-every must be at least 1"));
                    }
                    options.snapshot_every = Some(k);
                }
                _ => {
                    return Err(Error::invalid(format!(
                        "unknown approach option {opt:?} (expected 'snapshot-every=K')"
                    )));
                }
            }
        }
        Ok(ApproachSpec { kind, options })
    }

    /// Construct the saver this spec describes.
    pub fn build(&self) -> Box<dyn ModelSetSaver> {
        match self.kind {
            ApproachKind::MmlibBase => Box::new(MmlibBaseSaver::new()),
            ApproachKind::Baseline => Box::new(BaselineSaver::new()),
            ApproachKind::Provenance => Box::new(ProvenanceSaver::new()),
            ApproachKind::Update => Box::new(match self.options.snapshot_every {
                Some(k) => UpdateSaver::with_full_snapshot_every(k),
                None => UpdateSaver::new(),
            }),
        }
    }
}

impl std::str::FromStr for ApproachSpec {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        ApproachSpec::parse(s)
    }
}

impl std::fmt::Display for ApproachSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind.name())?;
        if let Some(k) = self.options.snapshot_every {
            write!(f, ":snapshot-every={k}")?;
        }
        Ok(())
    }
}

/// Recover a set with whatever approach its id names.
pub fn recover_any(env: &ManagementEnv, id: &ModelSetId) -> Result<ModelSet> {
    ApproachSpec::parse(&id.approach)?.build().recover_set(env, id)
}

/// The save/recover skeleton of the set-oriented approaches (Baseline,
/// Update, Provenance). All three share one shape (PAPER.md approach
/// table): a *full snapshot* saved the Baseline way — metadata and
/// architecture once, all parameters concatenated (§3.2) — plus, for
/// Update and Provenance, a chain of derived levels recovered
/// recursively: "base set + apply diffs" (§3.3) or "base set +
/// deterministic retraining" (§3.4). An approach supplies only how to
/// parse one derived level's document and how to apply one level.
pub(crate) mod common {
    use std::cell::RefCell;
    use std::collections::HashMap;

    use super::*;
    use crate::commit;
    use crate::param_codec::{self, decode_model_record, record_decoder};
    use mmm_dnn::ArchitectureSpec;
    use mmm_store::BlobBytes;
    use mmm_util::parallel;
    use serde_json::{json, Value};

    pub use crate::layout::SETS_COLLECTION;
    pub(crate) use crate::layout::{doc_id_of, params_key};

    /// Build the set-level metadata document of a **full** (self-contained)
    /// save: approach, architecture (saved once for the whole set —
    /// optimization O1), model count, and layer layout.
    pub fn full_set_doc(
        approach: &str,
        arch: &ArchitectureSpec,
        n_models: usize,
    ) -> Result<Value> {
        let arch_value = serde_json::to_value(arch)
            .map_err(|e| Error::invalid(format!("unserializable architecture spec: {e}")))?;
        Ok(json!({
            "approach": approach,
            "kind": "full",
            "arch": arch_value,
            "n_models": n_models,
            "layer_names": arch.parametric_layer_names(),
            "layer_sizes": arch.parametric_layer_sizes(),
        }))
    }

    /// Byte offsets of the (model, layer) record edges of a concat blob:
    /// `n` fixed-size model records back to back, each a concatenation
    /// of 4-byte-per-element layer slices. Lazy, so only a backend that
    /// cuts chunks on them pays for the walk.
    fn concat_boundaries(
        n_models: usize,
        layer_sizes: &[usize],
    ) -> impl Iterator<Item = usize> + '_ {
        let mut off = 0usize;
        (0..n_models).flat_map(move |_| layer_sizes).map(move |&s| {
            off += 4 * s;
            off
        })
    }

    /// The `append_model` callback of [`save_full_snapshot`] for a set
    /// held in memory.
    pub fn records_of(set: &ModelSet) -> impl FnMut(usize, &mut Vec<u8>) -> Result<()> + '_ {
        |i, buf| {
            param_codec::append_model_record(&set.models()[i], buf);
            Ok(())
        }
    }

    /// Phase one of every set-level save: insert the set document.
    pub fn insert_set_doc(env: &ManagementEnv, doc: &Value) -> Result<u64> {
        let _span = env.obs().span("doc_insert");
        env.with_retry(|| env.docs().insert(SETS_COLLECTION, doc.clone()))
    }

    /// Phase two of every set-level save: the commit record that makes
    /// the documents and blobs written so far visible to readers.
    pub fn commit_set(env: &ManagementEnv, approach: &str, doc_id: u64) -> Result<ModelSetId> {
        let id = crate::layout::set_id(approach, doc_id);
        commit::commit_save(env, &id)?;
        Ok(id)
    }

    /// Save a full snapshot the Baseline way: set document → concat
    /// params blob → commit. `append_model(i, buf)` appends model `i`'s
    /// record (see [`param_codec::append_model_record`]); records are
    /// staged in a buffer of at most [`ManagementEnv::stream_chunk_bytes`]
    /// and streamed to the store's sink, so peak staging memory is
    /// O(chunk) whether the models come from a slice or a generator.
    /// The sink is hinted with the layer edges, so the content-addressed
    /// backend dedups unchanged layers across sets and versions (plain
    /// and tiered store the bytes as-is). `before_commit(doc_id)` writes
    /// whatever else belongs to the save (Update's hash table).
    pub fn save_full_snapshot(
        env: &ManagementEnv,
        approach: &str,
        arch: &ArchitectureSpec,
        n_models: usize,
        extra_fields: &[(&str, Value)],
        mut append_model: impl FnMut(usize, &mut Vec<u8>) -> Result<()>,
        before_commit: impl FnOnce(u64) -> Result<()>,
    ) -> Result<ModelSetId> {
        let mut doc = full_set_doc(approach, arch, n_models)?;
        let fields = doc
            .as_object_mut()
            .ok_or_else(|| Error::invalid("full_set_doc did not return an object"))?;
        fields.extend(extra_fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
        let doc_id = insert_set_doc(env, &doc)?;
        let sizes = arch.parametric_layer_sizes();
        let model_bytes = param_codec::concat_blob_len(param_codec::per_model_params(&sizes)?, 1)?;
        let key = params_key(approach, doc_id);
        env.with_retry(|| {
            let mut sink = env.blobs().put_writer(&key)?;
            sink.hint_boundaries(concat_boundaries(n_models, &sizes));
            // `encode` runs from the first record of a chunk to its
            // flush, `blob_put` covers each flush and the finish (which
            // is where the store charges the put).
            let encoding = RefCell::new(None);
            param_codec::encode_concat_stream(
                n_models,
                model_bytes,
                env.stream_chunk_bytes(),
                |i, buf| {
                    encoding
                        .borrow_mut()
                        .get_or_insert_with(|| env.obs().span("encode"));
                    append_model(i, buf)
                },
                |chunk| {
                    encoding.take();
                    let _span = env.obs().span("blob_put");
                    sink.write(chunk)
                },
            )?;
            let _span = env.obs().span("blob_put");
            sink.finish()
        })?;
        before_commit(doc_id)?;
        commit_set(env, approach, doc_id)
    }

    /// The prologue of every recovery: the id must name this approach,
    /// and its save must have committed.
    pub fn guard(env: &ManagementEnv, approach: &str, id: &ModelSetId) -> Result<()> {
        if id.approach != approach {
            return Err(Error::invalid(format!(
                "{approach} cannot recover a {:?} set",
                id.approach
            )));
        }
        commit::require_committed(env, id)
    }

    /// The architecture stored in a set (or MMlib-base model) document.
    pub fn parse_arch(doc: &Value) -> Result<ArchitectureSpec> {
        let arch = doc
            .get("arch")
            .cloned()
            .ok_or_else(|| Error::corrupt("document without arch"))?;
        serde_json::from_value(arch)
            .map_err(|e| Error::corrupt(format!("unparseable arch in document: {e}")))
    }

    /// A full snapshot's set document, parsed: everything needed to read
    /// its params blob.
    pub struct FullSnapshot {
        pub arch: ArchitectureSpec,
        pub n_models: usize,
        pub layer_names: Vec<String>,
        pub layer_sizes: Vec<usize>,
        key: String,
    }

    impl FullSnapshot {
        /// Parse the set document `doc_id` of a full save.
        pub fn open(approach: &str, doc_id: u64, doc: &Value) -> Result<Self> {
            let arch = parse_arch(doc)?;
            let n_models = doc
                .get("n_models")
                .and_then(Value::as_u64)
                .ok_or_else(|| Error::corrupt("set document without n_models"))?
                as usize;
            Ok(FullSnapshot {
                layer_names: arch.parametric_layer_names(),
                layer_sizes: arch.parametric_layer_sizes(),
                key: params_key(approach, doc_id),
                arch,
                n_models,
            })
        }

        /// The whole params blob as a zero-copy view: a page-cache
        /// mapping where the backend supports it, so decoders never
        /// stage the parameter bytes in an intermediate heap buffer.
        /// Accounting is identical to a copying `get`.
        pub fn map(&self, env: &ManagementEnv) -> Result<BlobBytes> {
            let _span = env.obs().span("blob_get");
            env.blobs().get_mapped(&self.key)
        }

        /// Read the snapshot's models: all of them from one mapped get
        /// (`None`), or the models at `indices`, in order, from one
        /// ranged get each — the concat layout makes every model a
        /// fixed-size record at a trivial offset, so `k` of `n` models
        /// transfer `k/n` of the blob. Decoding and the independent
        /// ranged round-trips fan out over the environment's thread
        /// budget.
        pub fn read(self, env: &ManagementEnv, indices: Option<&[usize]>) -> Result<ModelSet> {
            let (names, sizes) = (&self.layer_names, &self.layer_sizes);
            let models = match indices {
                None => {
                    let blob = self.map(env)?;
                    let _span = env.obs().span("decode");
                    let decode = record_decoder(&blob, self.n_models, names, sizes)?;
                    parallel::try_map(env.threads(), self.n_models, decode)?
                }
                Some(indices) => {
                    let record =
                        param_codec::concat_blob_len(param_codec::per_model_params(sizes)?, 1)?;
                    let _span = env.obs().span("blob_get");
                    env.run_parallel(indices.len(), |p| {
                        let i = indices[p];
                        if i >= self.n_models {
                            return Err(Error::invalid(format!(
                                "model index {i} out of range for {} models",
                                self.n_models
                            )));
                        }
                        let bytes =
                            env.blobs()
                                .get_range(&self.key, (i * record) as u64, record)?;
                        decode_model_record(&bytes, names, sizes)
                    })?
                }
            };
            Ok(ModelSet::new(self.arch, models))
        }
    }

    /// Where each model of the set lives in the vector being recovered.
    pub enum Slots {
        /// Whole-set recovery of `n` models: model `i` is slot `i`.
        All(usize),
        /// Selective recovery: set-wide model index → slot.
        Picked(HashMap<usize, usize>),
    }

    impl Slots {
        /// The slot of `model_idx`, or `None` if the selection leaves the
        /// model out. A whole-set recovery has no such thing as an
        /// unselected model, so there an index past the set is `Corrupt`.
        pub fn of(&self, model_idx: usize) -> Result<Option<usize>> {
            match self {
                Slots::All(n) if model_idx >= *n => Err(Error::corrupt(format!(
                    "model index {model_idx} out of range for {n} models"
                ))),
                Slots::All(_) => Ok(Some(model_idx)),
                Slots::Picked(slots) => Ok(slots.get(&model_idx).copied()),
            }
        }
    }

    /// The result of [`walk`]: the derived levels passed (newest first)
    /// and where the walk ended.
    pub struct Walk<L> {
        pub chain: Vec<(u64, L)>,
        /// Document id the walk stopped at.
        pub end: u64,
        /// The full snapshot's document, unless the walk stopped early
        /// at a node the caller already knows.
        pub full: Option<Value>,
    }

    /// Follow `base` pointers from set document `start` back to the
    /// chain's full snapshot — or to the first node `known` to the
    /// caller — parsing each derived level passed with `parse_level`
    /// (which rejects kinds the approach does not write).
    pub fn walk<L>(
        env: &ManagementEnv,
        start: u64,
        known: impl Fn(u64) -> bool,
        parse_level: impl Fn(&Value) -> Result<L>,
    ) -> Result<Walk<L>> {
        let mut chain = Vec::new();
        let mut cursor = start;
        while !known(cursor) {
            let doc = env.docs().get(SETS_COLLECTION, cursor)?;
            if doc.get("kind").and_then(Value::as_str) == Some("full") {
                return Ok(Walk {
                    chain,
                    end: cursor,
                    full: Some(doc),
                });
            }
            chain.push((cursor, parse_level(&doc)?));
            cursor = doc
                .get("base")
                .and_then(Value::as_str)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| Error::corrupt("derived set document without base"))?;
        }
        Ok(Walk {
            chain,
            end: cursor,
            full: None,
        })
    }

    /// Recursive recovery, written once: guard → walk the chain back to
    /// its full snapshot → read that snapshot (whole: one mapped get;
    /// selected: ranged gets) → replay the derived levels oldest →
    /// newest with `apply_level(arch, models, slots, doc_id, level)`,
    /// which touches only the models `slots` holds. A repeated index is
    /// read and replayed once and cloned into each position that asked
    /// for it.
    pub fn recover_chain<L>(
        env: &ManagementEnv,
        approach: &str,
        id: &ModelSetId,
        indices: Option<&[usize]>,
        parse_level: impl Fn(&Value) -> Result<L>,
        apply_level: impl Fn(&ArchitectureSpec, &mut [ParamDict], &Slots, u64, &L) -> Result<()>,
    ) -> Result<ModelSet> {
        guard(env, approach, id)?;
        let walked = {
            let _span = env.obs().span("chain_walk");
            walk(env, doc_id_of(id)?, |_| false, parse_level)?
        };
        let root_doc = walked
            .full
            .ok_or_else(|| Error::corrupt("chain without a full snapshot"))?;
        let snapshot = FullSnapshot::open(approach, walked.end, &root_doc)?;
        let mut unique = Vec::new();
        let slots = match indices {
            None => Slots::All(snapshot.n_models),
            Some(indices) => {
                let mut slots = HashMap::new();
                for &i in indices {
                    slots.entry(i).or_insert_with(|| {
                        unique.push(i);
                        unique.len() - 1
                    });
                }
                Slots::Picked(slots)
            }
        };
        let mut set = {
            let _span = env.obs().span("base_snapshot");
            snapshot.read(env, indices.map(|_| unique.as_slice()))?
        };
        for (doc_id, level) in walked.chain.iter().rev() {
            apply_level(&set.arch, &mut set.models, &slots, *doc_id, level)?;
        }
        if let (Some(indices), Slots::Picked(slots)) = (indices, &slots) {
            if indices.len() != unique.len() {
                set.models = indices
                    .iter()
                    .map(|i| set.models[slots[i]].clone())
                    .collect();
            }
        }
        Ok(set)
    }
}

//! Catalog: enumerate every model set archived in an environment.
//!
//! The savers themselves never need a listing (they work by id), but
//! operators do: "what is stored here, by whom, how big?". The catalog
//! reads metadata documents plus blob sizes (for the per-tier storage
//! breakdown) — it never touches parameter payload bytes.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use crate::approach::common;
use crate::commit;
use crate::env::ManagementEnv;
use crate::layout::{self, MmlibBatch, SetLayout, MMLIB_BASE, MODELS_COLLECTION};
use crate::model_set::ModelSetId;
use mmm_store::StorageTier;
use mmm_util::Result;
use serde_json::Value;

/// What shape a saved set has. Parsed from the set document's `kind`
/// field; anything unrecognized (a future format, or a damaged
/// document) maps to [`SetKind::Unknown`] instead of a stringly `"?"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetKind {
    /// Self-contained save: every parameter present.
    Full,
    /// Derived save holding only changed layers against a base set.
    Diff,
    /// Provenance save: training recipe instead of parameters.
    Prov,
    /// Unrecognized or missing `kind` field.
    Unknown,
}

impl SetKind {
    /// Parse the document-store `kind` string; unrecognized values map
    /// to [`SetKind::Unknown`].
    pub fn parse(s: &str) -> SetKind {
        match s {
            "full" => SetKind::Full,
            "diff" => SetKind::Diff,
            "prov" => SetKind::Prov,
            _ => SetKind::Unknown,
        }
    }

    /// Stable display name; `Unknown` renders as `"?"` (the historical
    /// catalog fallback, pinned by the CLI output format).
    pub fn as_str(self) -> &'static str {
        match self {
            SetKind::Full => "full",
            SetKind::Diff => "diff",
            SetKind::Prov => "prov",
            SetKind::Unknown => "?",
        }
    }
}

impl fmt::Display for SetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

/// Bytes a set occupies in the blob store, split by storage tier.
/// On the plain and CAS backends everything counts as hot; only the
/// tiered backend can report a cold share. Accounting is best-effort:
/// blobs that vanish mid-listing count as zero rather than failing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBytes {
    /// Total stored bytes across all tiers.
    pub total: u64,
    /// Bytes on the hot (fast) tier.
    pub hot: u64,
    /// Bytes on the cold (object-store) tier.
    pub cold: u64,
}

/// Summary of one archived set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSummary {
    /// The set's id (usable with any saver of that approach).
    pub id: ModelSetId,
    /// The set's shape (full / diff / prov).
    pub kind: SetKind,
    /// Number of models in the set.
    pub n_models: usize,
    /// The base set's key, for derived sets.
    pub base: Option<String>,
    /// The branch this set was forked onto, when it is a fork node.
    pub branch: Option<String>,
    /// Stored bytes, split by tier — carried on the row so catalog
    /// consumers never need a second store listing.
    pub bytes_stored: TierBytes,
}

/// Sum the sizes of the blobs `keys`, attributing each to its tier.
/// Sizes come from the blob store's metadata: a file stat on the plain
/// backend, the key index on CAS (no manifest read). Best-effort: a key
/// without a size (deleted mid-listing, or a corrupt manifest)
/// contributes zero instead of failing the whole catalog listing.
fn tier_bytes<'k>(env: &ManagementEnv, keys: impl IntoIterator<Item = &'k String>) -> TierBytes {
    let mut out = TierBytes::default();
    for key in keys {
        let sz = env.blobs().size(key).unwrap_or(0);
        out.total += sz;
        match env.tiered().and_then(|t| t.tier_of(key)) {
            Some(StorageTier::Cold) => out.cold += sz,
            _ => out.hot += sz,
        }
    }
    out
}

/// The approaches that keep one document per set in
/// [`common::SETS_COLLECTION`].
const SET_APPROACHES: [&str; 3] = ["baseline", "update", "provenance"];

/// The base set's key, for a derived set's document.
pub(crate) fn base_of(doc: &Value) -> Option<String> {
    doc.get("base").and_then(Value::as_str).map(String::from)
}

/// The catalogue row of a set-oriented set, from its document.
fn set_row(id: ModelSetId, doc: &Value, bytes_stored: TierBytes) -> SetSummary {
    SetSummary {
        id,
        kind: doc
            .get("kind")
            .and_then(Value::as_str)
            .map(SetKind::parse)
            .unwrap_or(SetKind::Unknown),
        n_models: doc.get("n_models").and_then(Value::as_u64).unwrap_or(0) as usize,
        base: base_of(doc),
        branch: doc.get("branch").and_then(Value::as_str).map(String::from),
        bytes_stored,
    }
}

/// The catalogue row of an MMlib-base save batch.
fn batch_row(batch: MmlibBatch, bytes_stored: TierBytes) -> SetSummary {
    SetSummary {
        id: batch.id(),
        kind: SetKind::Full,
        n_models: batch.count,
        base: None,
        branch: None,
        bytes_stored,
    }
}

/// The catalogue's order: by approach, then key, both as strings.
fn sort_rows(rows: &mut [SetSummary]) {
    rows.sort_by(|a, b| {
        (a.id.approach.as_str(), a.id.key.as_str())
            .cmp(&(b.id.approach.as_str(), b.id.key.as_str()))
    });
}

/// List all archived sets: the set-oriented approaches' documents plus
/// MMlib-base's per-model documents grouped into their save batches.
/// Saves without a commit record (crashed mid-save) are not listed —
/// they are invisible orphans until [`crate::fsck`] collects them.
/// Sorted by approach, then key.
pub fn list_sets(env: &ManagementEnv) -> Result<Vec<SetSummary>> {
    let mut out = Vec::new();
    let committed = commit::committed_ids(env)?;
    // Blob keys come from one listing of an approach's directory (a
    // directory walk on the plain backend, a range of the key index on
    // CAS), made when its first row is listed; a listing that fails
    // counts as no blobs (best-effort, as above).
    let blobs_of = |approach: &str| layout::blobs_by_dir(env, approach).unwrap_or_default();

    // Set-oriented approaches: one document per set, read in place by
    // one find per approach. Blobs are stat-ed after the scan has let
    // go of the collection.
    for approach in SET_APPROACHES {
        let mut rows = Vec::new();
        env.docs().visit(common::SETS_COLLECTION, |doc_id, doc| {
            let hit = doc.get("approach").and_then(Value::as_str) == Some(approach);
            if hit && committed.contains(&(approach.to_string(), doc_id.to_string())) {
                let id = layout::set_id(approach, doc_id);
                rows.push((doc_id, set_row(id, doc, TierBytes::default())));
            }
            hit
        })?;
        let mut blobs = None;
        for (doc_id, mut row) in rows {
            let blobs = blobs.get_or_insert_with(|| blobs_of(approach));
            let keys = blobs.get(&layout::doc_dir(approach, doc_id));
            row.bytes_stored = tier_bytes(env, keys.into_iter().flatten());
            out.push(row);
        }
    }

    // MMlib-base: group per-model documents back into their save
    // batches; rows no commit record covers are invisible debris.
    let mmlib = Value::String(MMLIB_BASE.into());
    let mmlib_docs = env.docs().find_eq(MODELS_COLLECTION, "approach", &mmlib)?;
    let mut blobs = None;
    let runs = layout::mmlib_batches(&mmlib_docs, &committed);
    for batch in runs.into_iter().filter_map(|(batch, _debris)| batch) {
        let blobs = blobs.get_or_insert_with(|| blobs_of(MMLIB_BASE));
        let dirs = batch.doc_ids().map(|row| layout::doc_dir(MMLIB_BASE, row));
        let keys = dirs.filter_map(|dir| blobs.get(&dir)).flatten();
        out.push(batch_row(batch, tier_bytes(env, keys)));
    }

    sort_rows(&mut out);
    Ok(out)
}

/// The documents of those of `pairs` that name a set-oriented set,
/// fetched by id in one find, whatever the lake holds. As in
/// [`list_sets`], a pair counts only under the approach its document
/// names and only under the document id's canonical spelling; whether
/// it is committed is the caller's question.
pub(crate) fn set_docs(
    env: &ManagementEnv,
    pairs: &HashSet<(String, String)>,
) -> Result<Vec<(ModelSetId, Value)>> {
    let of_sets = |(approach, _): &&(String, String)| SET_APPROACHES.contains(&approach.as_str());
    let doc_ids: BTreeSet<u64> = pairs
        .iter()
        .filter(of_sets)
        .filter_map(|(_, key)| key.parse().ok())
        .collect();
    if doc_ids.is_empty() {
        return Ok(Vec::new());
    }
    let doc_ids: Vec<u64> = doc_ids.into_iter().collect();
    let docs = env.docs().get_many(common::SETS_COLLECTION, &doc_ids)?;
    let asked = |(doc_id, doc): (u64, Value)| {
        let approach = doc.get("approach").and_then(Value::as_str)?;
        let id = layout::set_id(approach, doc_id);
        let pair = (id.approach.clone(), id.key.clone());
        (SET_APPROACHES.contains(&approach) && pairs.contains(&pair)).then_some((id, doc))
    };
    Ok(docs.into_iter().filter_map(asked).collect())
}

/// The rows [`list_sets`] would list for `ids`, in its order, at a cost
/// that follows `ids` and not the lake: one commit lookup, one fetch by
/// id per collection, and blob stats of these rows only. An id the
/// listing would not show (uncommitted, deleted, a branch head) has no
/// row.
pub(crate) fn sets_by_id<'a>(
    env: &ManagementEnv,
    ids: impl IntoIterator<Item = &'a ModelSetId>,
) -> Result<Vec<SetSummary>> {
    let committed = commit::committed_among(env, ids)?;
    let stat = |id: &ModelSetId| {
        let keys = SetLayout::of(id).and_then(|layout| layout.list_blobs(env));
        tier_bytes(env, &keys.unwrap_or_default())
    };
    let mut out = Vec::new();
    for (id, doc) in set_docs(env, &committed)? {
        let bytes = stat(&id);
        out.push(set_row(id, &doc, bytes));
    }

    // MMlib-base: the rows of the committed batches' own id ranges,
    // regrouped by the rule the listing uses. A range wider than the
    // collection cannot be whole, so it is never materialised.
    let n_rows = env.docs().count(MODELS_COLLECTION);
    let row_ids: BTreeSet<u64> = committed
        .iter()
        .filter(|(approach, _)| approach == MMLIB_BASE)
        .filter_map(|(_, key)| MmlibBatch::parse(key).ok())
        .filter(|batch| batch.count <= n_rows)
        .flat_map(|batch| batch.doc_ids())
        .collect();
    if !row_ids.is_empty() {
        let row_ids: Vec<u64> = row_ids.into_iter().collect();
        let mut rows = env.docs().get_many(MODELS_COLLECTION, &row_ids)?;
        rows.retain(|(_, doc)| doc.get("approach").and_then(Value::as_str) == Some(MMLIB_BASE));
        let runs = layout::mmlib_batches(&rows, &committed);
        for batch in runs.into_iter().filter_map(|(batch, _debris)| batch) {
            let bytes = stat(&batch.id());
            out.push(batch_row(batch, bytes));
        }
    }

    sort_rows(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::{BaselineSaver, MmlibBaseSaver, ModelSetSaver, UpdateSaver};
    use crate::model_set::{Derivation, ModelSet};
    use mmm_dnn::{Architectures, TrainConfig};
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n).map(|i| arch.build(seed + i as u64).export_param_dict()).collect();
        ModelSet::new(arch, models)
    }

    #[test]
    fn catalog_lists_every_approach() {
        let dir = TempDir::new("mmm-catalog").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let s = set(4, 0);
        let idb = BaselineSaver::new().save_initial(&env, &s).unwrap();
        let idm = MmlibBaseSaver::new().save_initial(&env, &s).unwrap();
        let mut u = UpdateSaver::new();
        let idu0 = u.save_initial(&env, &s).unwrap();
        let mut s1 = s.clone();
        s1.models[0].layers[0].data[0] += 1.0;
        let d = Derivation {
            base: idu0.clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        let idu1 = u.save_set(&env, &s1, Some(&d)).unwrap();

        let cat = list_sets(&env).unwrap();
        assert_eq!(cat.len(), 4);
        let find = |id: &ModelSetId| cat.iter().find(|e| &e.id == id).expect("listed");
        assert_eq!(find(&idb).kind, SetKind::Full);
        assert_eq!(find(&idm).n_models, 4);
        assert_eq!(find(&idu1).kind, SetKind::Diff);
        assert_eq!(find(&idu1).base.as_deref(), Some(idu0.key.as_str()));
    }

    #[test]
    fn mmlib_batches_are_grouped_by_id_gap() {
        let dir = TempDir::new("mmm-catalog").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let mut m = MmlibBaseSaver::new();
        let id1 = m.save_initial(&env, &set(3, 1)).unwrap();
        let id2 = m.save_initial(&env, &set(5, 2)).unwrap();
        let cat = list_sets(&env).unwrap();
        let mmlib: Vec<&SetSummary> = cat.iter().filter(|e| e.id.approach == "mmlib-base").collect();
        assert_eq!(mmlib.len(), 2);
        assert!(mmlib.iter().any(|e| e.id == id1 && e.n_models == 3));
        assert!(mmlib.iter().any(|e| e.id == id2 && e.n_models == 5));
    }

    #[test]
    fn uncommitted_saves_are_not_listed() {
        let dir = TempDir::new("mmm-catalog").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let s = set(3, 5);
        let committed_id = BaselineSaver::new().save_initial(&env, &s).unwrap();
        // Phase one of a second save, without its commit record.
        let doc = crate::approach::common::full_set_doc("baseline", &s.arch, s.len()).unwrap();
        env.docs().insert(crate::approach::common::SETS_COLLECTION, doc).unwrap();
        let cat = list_sets(&env).unwrap();
        assert_eq!(cat.len(), 1);
        assert_eq!(cat[0].id, committed_id);
    }

    #[test]
    fn empty_environment_lists_nothing() {
        let dir = TempDir::new("mmm-catalog").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        assert!(list_sets(&env).unwrap().is_empty());
    }

    #[test]
    fn catalog_rows_carry_stored_bytes() {
        let dir = TempDir::new("mmm-catalog").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let idb = BaselineSaver::new().save_initial(&env, &set(2, 7)).unwrap();
        let idm = MmlibBaseSaver::new().save_initial(&env, &set(2, 8)).unwrap();
        let cat = list_sets(&env).unwrap();
        let find = |id: &ModelSetId| cat.iter().find(|e| &e.id == id).expect("listed");
        let b = find(&idb).bytes_stored;
        assert!(b.total > 0, "baseline set stores parameter bytes");
        assert_eq!(b.total, b.hot + b.cold);
        assert_eq!(b.cold, 0, "plain backend has no cold tier");
        assert!(find(&idm).bytes_stored.total > 0, "mmlib per-model blobs counted");
    }

    #[test]
    fn headless_mmlib_rows_cannot_merge_batches() {
        let dir = TempDir::new("mmm-catalog").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let mut m = MmlibBaseSaver::new();
        let id1 = m.save_initial(&env, &set(3, 1)).unwrap();
        let id2 = m.save_initial(&env, &set(4, 2)).unwrap();

        // Simulate a salvaged log that lost batch 2's head row: its
        // remaining rows now follow batch 1 with no head marker between.
        let start2: u64 = id2.key.split(':').next().unwrap().parse().unwrap();
        env.docs().delete(MODELS_COLLECTION, start2).unwrap();

        let cat = list_sets(&env).unwrap();
        let mmlib: Vec<&SetSummary> = cat.iter().filter(|e| e.id.approach == "mmlib-base").collect();
        // Batch 1 must survive with its own count — not a silently
        // merged 3+3 group — and the decapitated batch 2 must vanish.
        assert_eq!(mmlib.len(), 1, "{mmlib:?}");
        assert_eq!(mmlib[0].id, id1);
        assert_eq!(mmlib[0].n_models, 3);
    }

    #[test]
    fn leading_headless_mmlib_rows_are_debris() {
        let dir = TempDir::new("mmm-catalog").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let mut m = MmlibBaseSaver::new();
        let id1 = m.save_initial(&env, &set(3, 1)).unwrap();
        let id2 = m.save_initial(&env, &set(4, 2)).unwrap();
        // Decapitate the FIRST batch: its surviving rows start the scan
        // without a head marker and must not form a phantom batch.
        let start1: u64 = id1.key.split(':').next().unwrap().parse().unwrap();
        env.docs().delete(MODELS_COLLECTION, start1).unwrap();

        let cat = list_sets(&env).unwrap();
        let mmlib: Vec<&SetSummary> = cat.iter().filter(|e| e.id.approach == "mmlib-base").collect();
        assert_eq!(mmlib.len(), 1, "{mmlib:?}");
        assert_eq!(mmlib[0].id, id2);
        assert_eq!(mmlib[0].n_models, 4);
    }
}

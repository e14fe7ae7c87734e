//! Where a saved set lives: the one description of the documents and
//! blobs that make up a set, read by the savers that write them and by
//! everything that maintains them afterwards (catalog, verify, fsck, gc,
//! tiering, bundle, lineage). DESIGN.md §7 "Stored-set layout" is this
//! module in prose.
//!
//! | approach | kind | collection | documents | blobs |
//! |---|---|---|---|---|
//! | mmlib-base | (row) | `models` | `first..first+count` | `mmlib/m{row}/{params.pt, code.py, environment.yaml}` |
//! | baseline, provenance | full | `model_sets` | `{doc}` | `{approach}/{doc}/params.bin` |
//! | provenance | prov | `model_sets` | `{doc}` | `provenance/{doc}/updates.jsonl` |
//! | update | full | `model_sets` | `{doc}` | `update/{doc}/{params.bin, hashes.bin}` |
//! | update | diff | `model_sets` | `{doc}` | `update/{doc}/{diff.bin, hashes.bin}` |
//!
//! A derived node names its base in the `base` field of its document;
//! the base is a set of its own, not part of the node. A kind the table
//! does not list is no set this build can read: [`unknown_kind`].

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use serde_json::Value;

use crate::branch::{BRANCHES_COLLECTION, BRANCH_APPROACH};
use crate::env::ManagementEnv;
use crate::model_set::ModelSetId;
use mmm_util::{Error, Result};

/// Document-store collection holding one document per saved set.
pub const SETS_COLLECTION: &str = "model_sets";

/// Document-store collection holding one document per MMlib-base *model*.
pub(crate) const MODELS_COLLECTION: &str = "models";

/// The MMlib-base approach's name, the one approach that stores per model.
pub(crate) const MMLIB_BASE: &str = "mmlib-base";

/// Per-model artifacts of an MMlib-base row, in the order they are put:
/// parameters, code snapshot, environment snapshot.
const MMLIB_ARTIFACTS: [&str; 3] = ["params.pt", "code.py", "environment.yaml"];

const MMLIB_DIR_PREFIX: &str = "mmlib/m";

/// The collection the documents of an `approach`'s sets live in (branch
/// heads count: their commit records make them sets to fsck).
pub(crate) fn collection_of(approach: &str) -> &'static str {
    match approach {
        MMLIB_BASE => MODELS_COLLECTION,
        BRANCH_APPROACH => BRANCHES_COLLECTION,
        _ => SETS_COLLECTION,
    }
}

/// Parse a set-oriented id's key as its document id.
pub(crate) fn doc_id_of(id: &ModelSetId) -> Result<u64> {
    id.key
        .parse::<u64>()
        .map_err(|_| Error::invalid(format!("malformed set key {:?}", id.key)))
}

/// The id of the set whose document is `doc_id` — the inverse of
/// [`doc_id_of`].
pub(crate) fn set_id(approach: &str, doc_id: u64) -> ModelSetId {
    let (approach, key) = (approach.into(), doc_id.to_string());
    ModelSetId { approach, key }
}

/// The blob directory holding every artifact of document `doc_id`: a
/// set document's, or an MMlib-base per-model row's.
pub(crate) fn doc_dir(approach: &str, doc_id: u64) -> String {
    match approach {
        MMLIB_BASE => format!("{MMLIB_DIR_PREFIX}{doc_id}"),
        _ => format!("{approach}/{doc_id}"),
    }
}

/// The blob directory a key sits in: its first two `/` segments.
pub(crate) fn dir_of(key: &str) -> &str {
    key.match_indices('/')
        .nth(1)
        .map_or(key, |(i, _)| &key[..i])
}

/// Every blob stored under `approach`'s directory, grouped by the
/// document directory ([`doc_dir`]) it sits in: one listing (a walk on
/// the plain backend, an index range on CAS) instead of one per document.
pub(crate) fn blobs_by_dir(
    env: &ManagementEnv,
    approach: &str,
) -> Result<HashMap<String, Vec<String>>> {
    // The approach's directory is the first segment of any of its
    // document directories.
    let any_doc_dir = doc_dir(approach, 0);
    let root = any_doc_dir.split('/').next().unwrap_or(approach);
    let mut dirs: HashMap<String, Vec<String>> = HashMap::new();
    for key in env.blobs().list_keys(root)? {
        dirs.entry(dir_of(&key).to_string()).or_default().push(key);
    }
    Ok(dirs)
}

/// Key of the concatenated-parameters blob of a full save.
pub(crate) fn params_key(approach: &str, doc_id: u64) -> String {
    format!("{}/params.bin", doc_dir(approach, doc_id))
}

/// Key of an Update set's per-model, per-layer hash table.
pub(crate) fn hashes_key(doc_id: u64) -> String {
    format!("{}/hashes.bin", doc_dir("update", doc_id))
}

/// Key of a derived Update set's changed-layers blob.
pub(crate) fn diff_key(doc_id: u64) -> String {
    format!("{}/diff.bin", doc_dir("update", doc_id))
}

/// Key of a derived Provenance set's recorded updates.
pub(crate) fn updates_key(doc_id: u64) -> String {
    format!("{}/updates.jsonl", doc_dir("provenance", doc_id))
}

fn mmlib_key(doc_id: u64, artifact: &str) -> String {
    format!("{}/{artifact}", doc_dir(MMLIB_BASE, doc_id))
}

/// Key of an MMlib-base row's parameter dict, the artifact recovery reads.
pub(crate) fn mmlib_params_key(doc_id: u64) -> String {
    mmlib_key(doc_id, MMLIB_ARTIFACTS[0])
}

/// The artifacts of MMlib-base row `doc_id`, in the order they are put.
pub(crate) fn mmlib_row_keys(doc_id: u64) -> Vec<String> {
    MMLIB_ARTIFACTS
        .map(|artifact| mmlib_key(doc_id, artifact))
        .into()
}

/// The blobs a node of the given approach and document kind must have.
/// An MMlib-base "node" is one per-model row (rows carry no kind). A
/// pair no saver writes is [`unknown_kind`].
pub(crate) fn node_blob_keys(approach: &str, kind: &str, doc_id: u64) -> Result<Vec<String>> {
    Ok(match (approach, kind) {
        (MMLIB_BASE, _) => mmlib_row_keys(doc_id),
        ("baseline" | "provenance", "full") => vec![params_key(approach, doc_id)],
        ("provenance", "prov") => vec![updates_key(doc_id)],
        ("update", "full") => vec![params_key(approach, doc_id), hashes_key(doc_id)],
        ("update", "diff") => vec![diff_key(doc_id), hashes_key(doc_id)],
        _ => return Err(unknown_kind(approach, kind)),
    })
}

/// The error for a set document whose `kind` no saver of `approach`
/// writes. `diffz` sets were written by the §4.5 XOR-delta codec, which
/// is removed; no decoder for them is kept (DESIGN.md §7).
pub(crate) fn unknown_kind(approach: &str, kind: &str) -> Error {
    let why = match kind {
        "diffz" => "its §4.5 XOR-delta codec was removed, and no decoder is kept",
        _ => "no saver writes it",
    };
    Error::corrupt(format!("{approach} set kind {kind:?} is unreadable: {why}"))
}

/// The documents and blobs one saved set owns (not its chain
/// ancestors — those are sets of their own).
pub(crate) struct SetLayout<'a> {
    approach: &'a str,
    /// The set's document ids.
    pub doc_ids: Range<u64>,
}

impl<'a> SetLayout<'a> {
    /// Locate `id`'s documents and blobs. A malformed key is
    /// [`Error::Invalid`].
    pub fn of(id: &'a ModelSetId) -> Result<Self> {
        let doc_ids = match id.approach.as_str() {
            MMLIB_BASE => MmlibBatch::parse(&id.key)?.doc_ids(),
            _ => doc_id_of(id).map(|doc_id| doc_id..doc_id.saturating_add(1))?,
        };
        let approach = id.approach.as_str();
        Ok(SetLayout { approach, doc_ids })
    }

    /// The collection holding the set's documents.
    pub fn collection(&self) -> &'static str {
        collection_of(self.approach)
    }

    /// The keys of every blob stored in the set's directories (one
    /// directory per document) — what is there, not what should be.
    pub fn list_blobs(&self, env: &ManagementEnv) -> Result<Vec<String>> {
        let mut keys = Vec::new();
        for doc_id in self.doc_ids.clone() {
            keys.extend(env.blobs().list_keys(&doc_dir(self.approach, doc_id))?);
        }
        Ok(keys)
    }
}

/// One MMlib-base save: `count` per-model rows with dense document ids
/// starting at `first`. Its set key is `"<first>:<count>"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MmlibBatch {
    pub first: u64,
    pub count: usize,
}

impl MmlibBatch {
    /// Parse an MMlib-base set key.
    pub fn parse(key: &str) -> Result<MmlibBatch> {
        let (a, b) = key
            .split_once(':')
            .ok_or_else(|| Error::invalid(format!("malformed mmlib set key {key:?}")))?;
        let first = a
            .parse::<u64>()
            .map_err(|_| Error::invalid(format!("malformed first id in {key:?}")))?;
        let count = b
            .parse::<usize>()
            .ok()
            .filter(|count| first.checked_add(*count as u64).is_some())
            .ok_or_else(|| Error::invalid(format!("malformed count in {key:?}")))?;
        Ok(MmlibBatch { first, count })
    }

    /// The batch's set key.
    pub fn key(&self) -> String {
        format!("{}:{}", self.first, self.count)
    }

    /// The batch's set id.
    pub fn id(&self) -> ModelSetId {
        let (approach, key) = (MMLIB_BASE.into(), self.key());
        ModelSetId { approach, key }
    }

    /// The document ids of the batch's rows, in model order.
    pub fn doc_ids(&self) -> Range<u64> {
        self.first..self.first + self.count as u64
    }

    /// Every blob the batch's rows must have.
    pub fn blob_keys(&self) -> impl Iterator<Item = String> {
        self.doc_ids().flat_map(mmlib_row_keys)
    }
}

/// Group MMlib-base's per-model rows back into their save batches. Rows
/// are cut into id-sorted runs at each `batch_head` marker (the first
/// row of every save carries one); the commit records then decide what
/// a run holds. A salvaged log can lose a head row, which glues the
/// rest of that batch onto the run before it — so the markers are never
/// trusted over the commit record: a run is its longest *committed*
/// prefix plus debris, and a run without a head is all debris. Two
/// batches can therefore never merge. Returns, per run in id order,
/// the committed batch (if any) and the ids of the rows that belong to
/// no committed save: phase-one debris of a crashed save, or what is
/// left of a decapitated batch.
pub(crate) fn mmlib_batches(
    rows: &[(u64, Value)],
    committed: &HashSet<(String, String)>,
) -> Vec<(Option<MmlibBatch>, Vec<u64>)> {
    let is_head = |doc: &Value| doc.get("batch_head").and_then(Value::as_bool) == Some(true);
    let mut sorted: Vec<(u64, bool)> = rows.iter().map(|(id, doc)| (*id, is_head(doc))).collect();
    sorted.sort_unstable_by_key(|(id, _)| *id);
    let mut out = Vec::new();
    let mut start = 0;
    while start < sorted.len() {
        let mut end = start + 1;
        while end < sorted.len() && !sorted[end].1 {
            end += 1;
        }
        let run = &sorted[start..end];
        let (first, has_head) = run[0];
        let longest = if has_head { run.len() } else { 0 };
        let batch = (1..=longest)
            .rev()
            .map(|count| MmlibBatch { first, count })
            .find(|b| committed.contains(&(MMLIB_BASE.to_string(), b.key())));
        let in_batch = |(id, _): &&(u64, bool)| batch.is_some_and(|b| b.doc_ids().contains(id));
        let kept = run.iter().take_while(in_batch).count();
        out.push((batch, run[kept..].iter().map(|(id, _)| *id).collect()));
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::approach::ApproachSpec;
    use crate::catalog;
    use crate::lineage::chain_docs;
    use crate::model_set::{Derivation, ModelSet, ModelUpdate, UpdateKind};
    use mmm_data::dataset::{Dataset, Targets};
    use mmm_dnn::{Architectures, TrainConfig};
    use mmm_store::{LatencyProfile, StorageBackend};
    use mmm_tensor::Tensor;
    use mmm_util::TempDir;

    /// The fixed history of `tests/on_disk_format.rs`: four levels of a
    /// four-model fleet, each derived level fully rewriting one model and
    /// shifting one layer of another, recorded as one full and one
    /// partial update on a registered dataset.
    fn archive_history(env: &ManagementEnv, spec: &str) {
        let arch = Architectures::ffnn(6);
        let models = (0..4).map(|i| arch.build(i).export_param_dict()).collect();
        let mut set = ModelSet::new(arch, models);
        let mut saver = ApproachSpec::parse(spec).unwrap().build();
        let mut base = saver.save_initial(env, &set).unwrap();
        for level in 1..4usize {
            let (full, partial) = (level % 4, (level + 2) % 4);
            for layer in &mut set.models[full].layers {
                layer.data.iter_mut().for_each(|v| *v += 0.25);
            }
            set.models[partial].layers[1]
                .data
                .iter_mut()
                .for_each(|v| *v -= 0.125);
            let dataset = Dataset::new(
                Tensor::from_vec(vec![2, 4], vec![level as f32; 8]),
                Targets::Regression(Tensor::from_vec(vec![2, 1], vec![0.5; 2])),
            );
            let dataset = env.registry().put(&dataset).unwrap();
            let update = |model_idx, kind| {
                let (dataset, seed) = (dataset.clone(), level as u64);
                ModelUpdate {
                    model_idx,
                    kind,
                    dataset,
                    seed,
                }
            };
            let updates = vec![
                update(full, UpdateKind::Full),
                update(partial, UpdateKind::Partial { layers: vec![1] }),
            ];
            let train = TrainConfig::regression_default(0);
            let deriv = Derivation {
                base,
                train,
                updates,
            };
            base = saver.save_set(env, &set, Some(&deriv)).unwrap();
        }
    }

    /// The savers and this module's table cannot drift: what the savers
    /// stored is, key for key, what the table says every catalogued
    /// set's chain must have — no artifact the table does not know, none
    /// it expects that no saver writes.
    #[test]
    fn node_blob_keys_are_exactly_what_the_savers_store() {
        let specs = [
            "mmlib-base",
            "baseline",
            "update",
            "provenance",
            "update:snapshot-every=2",
        ];
        for backend in [StorageBackend::Plain, StorageBackend::Cas] {
            let dir = TempDir::new("mmm-layout").unwrap();
            let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
                .backend(backend)
                .open()
                .unwrap();
            specs.iter().for_each(|spec| archive_history(&env, spec));

            let catalogued = catalog::list_sets(&env).unwrap();
            assert_eq!(catalogued.len(), 4 * specs.len());
            let mut expected = BTreeSet::new();
            for set in &catalogued {
                if set.id.approach == MMLIB_BASE {
                    expected.extend(MmlibBatch::parse(&set.id.key).unwrap().blob_keys());
                    continue;
                }
                for (doc_id, doc) in chain_docs(&env, &set.id).unwrap() {
                    let kind = doc["kind"].as_str().unwrap();
                    let keys = node_blob_keys(&set.id.approach, kind, doc_id).unwrap();
                    assert!(!keys.is_empty(), "{}: no blobs for kind {kind}", set.id);
                    expected.extend(keys);
                }
            }
            let stored: BTreeSet<String> = env.blobs().list_keys("").unwrap().into_iter().collect();
            assert_eq!(stored, expected, "{backend:?}");
            // Every kind the table knows was exercised.
            let kinds: BTreeSet<&str> = catalogued.iter().map(|s| s.kind.as_str()).collect();
            assert_eq!(kinds, BTreeSet::from(["diff", "full", "prov"]));
        }
    }

    #[test]
    fn mmlib_keys_round_trip_and_malformed_ones_are_invalid() {
        let batch = MmlibBatch::parse("7:3").unwrap();
        assert_eq!(
            (batch.first, batch.count, batch.key().as_str()),
            (7, 3, "7:3")
        );
        assert_eq!(batch.doc_ids().collect::<Vec<_>>(), vec![7, 8, 9]);
        for key in ["", "5", "a:b", "5:", ":5", "18446744073709551615:2"] {
            assert!(
                matches!(MmlibBatch::parse(key), Err(Error::Invalid(_))),
                "key {key:?}"
            );
        }
        assert_eq!(dir_of("mmlib/m3/code.py"), doc_dir(MMLIB_BASE, 3));
        assert_eq!(dir_of("update/7/diff.bin"), doc_dir("update", 7));
        assert_eq!(dir_of("stray"), "stray");
    }
}

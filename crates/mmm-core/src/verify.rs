//! Integrity verification of saved model sets.
//!
//! Archived models may sit for years before a post-accident recovery —
//! exactly when corruption must *not* surface for the first time. Two
//! audits (`Audit`), neither of which mutates anything, say whether a
//! saved set is intact, in [`crate::fsck`]'s damage taxonomy:
//!
//! - the **node audit**: the node's kind is one this build reads, every
//!   blob the `layout` module says the node owns is structurally
//!   recoverable, and a derived node's base exists and is committed;
//! - the **hash audit** (Update sets): the persisted layer hashes match
//!   the recovered parameters.
//!
//! [`verify_set`] runs them over the nodes of *one* set's chain, for an
//! operator who already knows which set matters; [`crate::fsck::fsck`]
//! runs the same two over *every* committed set and adds the store-wide
//! classes. So the two can never disagree about a set.

use std::collections::HashSet;

use crate::approach::{common, ModelSetSaver, UpdateSaver};
use crate::commit;
use crate::env::ManagementEnv;
use crate::fsck::{Damage, FsckReport};
use crate::layout::{self, MmlibBatch, MMLIB_BASE, MODELS_COLLECTION};
use crate::lineage::chain_docs;
use crate::model_set::ModelSetId;
use mmm_util::Result;
use serde_json::Value;

/// Result of verifying one set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Chain documents inspected.
    pub docs_checked: usize,
    /// Blobs whose existence/size was checked.
    pub blobs_checked: usize,
    /// Whether stored layer hashes were recomputed and compared.
    pub hashes_checked: bool,
    /// Problems found (empty = healthy).
    pub issues: Vec<String>,
}

impl VerifyReport {
    /// True when no issues were found.
    pub fn is_healthy(&self) -> bool {
        self.issues.is_empty()
    }
}

/// The audits [`verify_set`] and [`crate::fsck::fsck`] share: what they
/// need to know of the store, and what they have found so far.
pub(crate) struct Audit<'a> {
    pub env: &'a ManagementEnv,
    /// Every committed `(approach, key)` pair.
    pub committed: &'a HashSet<(String, String)>,
    /// The set documents known to exist.
    pub set_docs: HashSet<u64>,
    /// Blob checks made and damage found, in audit order.
    pub found: FsckReport,
}

impl<'a> Audit<'a> {
    /// An audit that has found nothing yet and knows of no set document.
    pub fn new(env: &'a ManagementEnv, committed: &'a HashSet<(String, String)>) -> Self {
        let (set_docs, found) = (HashSet::new(), FsckReport::default());
        Audit {
            env,
            committed,
            set_docs,
            found,
        }
    }

    /// Whether set `key` of `approach` has a commit record.
    pub fn is_committed(&self, approach: &str, key: &str) -> bool {
        self.committed
            .contains(&(approach.to_string(), key.to_string()))
    }

    /// Record one more problem.
    pub fn flag(&mut self, damage: Damage) {
        self.found.damage.push(damage);
    }

    /// Check that each of `keys` is structurally recoverable
    /// ([`mmm_store::BlobStore::verify_blob`]: present, and on the
    /// content-addressed backend every chunk of its manifest too).
    pub fn blobs(&mut self, id: &ModelSetId, keys: impl IntoIterator<Item = String>) {
        for key in keys {
            self.found.blobs_checked += 1;
            if self.env.blobs().verify_blob(&key).is_err() {
                let id = id.clone();
                self.flag(Damage::MissingBlob { id, key });
            }
        }
    }

    /// The node audit of committed set document `doc_id`: its
    /// `(approach, kind)` is one the layout knows, the blobs that pair
    /// must have pass [`Audit::blobs`], and if it is derived, its base is
    /// a known set document and committed.
    pub fn node(&mut self, approach: &str, doc_id: u64, doc: &Value) {
        let id = layout::set_id(approach, doc_id);
        let kind = doc.get("kind").and_then(Value::as_str).unwrap_or("?");
        let keys = match layout::node_blob_keys(approach, kind, doc_id) {
            Ok(keys) => keys,
            Err(e) => {
                let detail = e.to_string();
                return self.flag(Damage::UnknownKind { id, detail });
            }
        };
        self.blobs(&id, keys);
        let Some(base) = doc.get("base") else { return };
        let detail = match base.as_str().and_then(|s| s.parse::<u64>().ok()) {
            Some(b) if !self.set_docs.contains(&b) => format!("base document {b} is missing"),
            Some(b) if !self.is_committed(approach, &b.to_string()) => {
                format!("base {b} exists but was never committed")
            }
            Some(_) => return,
            None => "malformed base reference".into(),
        };
        self.flag(Damage::DanglingChain { id, detail });
    }

    /// A committed MMlib-base batch must still have every row `exists`
    /// finds; the ones it does not make the commit record dangle.
    pub fn batch_rows(&mut self, batch: MmlibBatch, exists: impl Fn(u64) -> bool) {
        let missing: Vec<u64> = batch.doc_ids().filter(|row| !exists(*row)).collect();
        if !missing.is_empty() {
            let detail = format!("batch rows {missing:?} are gone");
            let id = batch.id();
            self.flag(Damage::DanglingCommit { id, detail });
        }
    }

    /// The hash audit of Update set `id`: recover it, recompute every
    /// layer hash and compare with the persisted table — this catches
    /// silent bit corruption of the parameter payloads themselves,
    /// anywhere along the chain. Returns whether the comparison ran.
    pub fn hashes(&mut self, id: &ModelSetId) -> bool {
        let mismatches = self.rehash(id);
        let ran = mismatches.is_ok();
        for detail in mismatches.unwrap_or_else(|unreadable| vec![unreadable]) {
            let id = id.clone();
            self.flag(Damage::HashMismatch { id, detail });
        }
        ran
    }

    /// One line per model whose recovered parameters disagree with the
    /// stored hash table; `Err` says why the two could not be compared.
    fn rehash(&self, id: &ModelSetId) -> std::result::Result<Vec<String>, String> {
        let set = UpdateSaver::new().recover_set(self.env, id);
        let set = set.map_err(|e| format!("recovery failed: {e}"))?;
        let read = |doc_id| UpdateSaver::read_hash_table(self.env, doc_id);
        let stored = common::doc_id_of(id).and_then(read);
        let stored = stored.map_err(|e| format!("hash table unreadable: {e}"))?;
        let mut out = Vec::new();
        for (mi, model) in set.models().iter().enumerate() {
            if stored.get(mi) != Some(&model.layer_hashes()) {
                out.push(format!(
                    "model {mi}: recovered params disagree with stored hashes"
                ));
            }
        }
        Ok(out)
    }
}

/// Verify one saved set's integrity. Never mutates the stores.
pub fn verify_set(env: &ManagementEnv, id: &ModelSetId) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();

    // A set without a commit record is crash debris: readers already
    // treat it as absent, so flag it rather than trusting artifacts
    // that were never promised to be complete.
    let committed = commit::committed_ids(env)?;
    let mut audit = Audit::new(env, &committed);
    if !audit.is_committed(&id.approach, &id.key) {
        report
            .issues
            .push(format!("set {id} has no commit record (save never completed)"));
    }

    if id.approach == MMLIB_BASE {
        // Per-model storage: one node, a document and three blobs a row.
        match MmlibBatch::parse(&id.key) {
            Ok(batch) => {
                report.docs_checked = batch.count;
                audit.batch_rows(batch, |row| env.docs().get(MODELS_COLLECTION, row).is_ok());
                audit.blobs(id, batch.blob_keys());
            }
            Err(e) => report.issues.push(e.to_string()),
        }
    } else {
        match chain_docs(env, id) {
            Ok(nodes) => {
                report.docs_checked = nodes.len();
                audit.set_docs = nodes.iter().map(|(doc_id, _)| *doc_id).collect();
                for (doc_id, doc) in &nodes {
                    audit.node(&id.approach, *doc_id, doc);
                }
            }
            Err(e) => {
                let detail = format!("chain walk failed: {e}");
                let id = id.clone();
                audit.flag(Damage::DanglingChain { id, detail });
            }
        }
    }

    if id.approach == "update" && report.issues.is_empty() && audit.found.is_clean() {
        report.hashes_checked = audit.hashes(id);
    }
    report.blobs_checked = audit.found.blobs_checked;
    report
        .issues
        .extend(audit.found.damage.iter().map(Damage::describe));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::{BaselineSaver, MmlibBaseSaver, UpdateSaver};
    use crate::model_set::{Derivation, ModelSet};
    use mmm_dnn::{Architectures, TrainConfig};
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n).map(|i| arch.build(seed + i as u64).export_param_dict()).collect();
        ModelSet::new(arch, models)
    }

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-verify").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    #[test]
    fn healthy_sets_verify_clean() {
        let (_d, env) = env();
        let s = set(5, 0);
        let idb = BaselineSaver::new().save_initial(&env, &s).unwrap();
        let idm = MmlibBaseSaver::new().save_initial(&env, &s).unwrap();
        let idu = UpdateSaver::new().save_initial(&env, &s).unwrap();
        for id in [&idb, &idm, &idu] {
            let r = verify_set(&env, id).unwrap();
            assert!(r.is_healthy(), "{id}: {:?}", r.issues);
            assert!(r.docs_checked > 0);
            assert!(r.blobs_checked > 0);
        }
        let r = verify_set(&env, &idu).unwrap();
        assert!(r.hashes_checked);
    }

    #[test]
    fn missing_blob_is_reported() {
        let (_d, env) = env();
        let s = set(4, 1);
        let id = BaselineSaver::new().save_initial(&env, &s).unwrap();
        env.blobs()
            .delete(&format!("baseline/{}/params.bin", id.key))
            .unwrap();
        let r = verify_set(&env, &id).unwrap();
        assert!(!r.is_healthy());
        assert!(r.issues[0].contains("params.bin"), "{:?}", r.issues);
    }

    #[test]
    fn corrupted_update_params_fail_the_hash_audit() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(4, 2);
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[0].layers[0].data[0] += 1.0;
        let s1 = ModelSet::new(s.arch.clone(), s.models.clone());
        let d = Derivation {
            base: id0,
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        let id1 = saver.save_set(&env, &s1, Some(&d)).unwrap();

        // Flip one byte inside the diff payload (past the header).
        let key = format!("update/{}/diff.bin", id1.key);
        let mut blob = env.blobs().get(&key).unwrap();
        let n = blob.len();
        blob[n - 1] ^= 0x01;
        env.blobs().put(&key, &blob).unwrap();

        let r = verify_set(&env, &id1).unwrap();
        assert!(!r.is_healthy(), "bit flip must be caught");
        assert!(r.issues.iter().any(|i| i.contains("stored hashes")), "{:?}", r.issues);
    }

    #[test]
    fn missing_mmlib_artifact_is_reported() {
        let (_d, env) = env();
        let s = set(3, 3);
        let id = MmlibBaseSaver::new().save_initial(&env, &s).unwrap();
        env.blobs().delete("mmlib/m1/code.py").unwrap();
        let r = verify_set(&env, &id).unwrap();
        assert_eq!(r.issues.len(), 1);
        assert!(r.issues[0].contains("code.py"));
    }

    #[test]
    fn orphaned_chain_is_reported_not_panicking() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(3, 4);
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[0].layers[0].data[0] += 1.0;
        let s1 = ModelSet::new(s.arch.clone(), s.models.clone());
        let d = Derivation {
            base: id0.clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        let id1 = saver.save_set(&env, &s1, Some(&d)).unwrap();
        crate::gc::delete_set(&env, &id0, true).unwrap();
        let r = verify_set(&env, &id1).unwrap();
        assert!(!r.is_healthy());
    }
}

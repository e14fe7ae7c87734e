//! Store-wide consistency checking and repair (`fsck`).
//!
//! [`crate::verify`] audits *one* set the operator already knows about;
//! `fsck` walks the **whole environment** and classifies every kind of
//! damage a crash or bit rot can leave behind. Three classes come from
//! the audits it shares with `verify` — the node audit and the hash
//! audit, run here over every committed set:
//!
//! - **unknown kinds** — a committed set's document names a kind no saver
//!   writes (e.g. `diffz`, whose codec is removed): nothing can read it,
//! - **missing blobs** — a committed set references an absent artifact,
//! - **dangling chains** — a derived set whose base document is gone or
//!   was never committed,
//! - **hash mismatches** — an Update set's recovered parameters disagree
//!   with its persisted layer hashes (silent bit corruption).
//!
//! The rest are store-wide: only a scan of everything stored, not of one
//! chain, can see them:
//!
//! - **uncommitted saves** — phase-one debris (documents/blobs written
//!   before the commit record landed); invisible to readers, safe to GC,
//! - **dangling commits** — commit records whose set documents are gone,
//! - **orphan branches** — branch heads pointing at a set that is gone,
//! - **orphan blobs / chunks** — blobs no document accounts for, chunk
//!   payloads no manifest references.
//!
//! [`repair`] garbage-collects the harmless classes (uncommitted debris,
//! orphan blobs, dangling commits) and **quarantines** corrupt sets:
//! their blobs move under the [`QUARANTINE_PREFIX`], their documents and
//! commit records are removed, and a reason record lands in the
//! [`QUARANTINE_COLLECTION`] — the damage stays inspectable without
//! masquerading as recoverable data. The audited unit is the node, not
//! the chain: quarantining a chain's base exposes its descendants as
//! newly dangling, so run fsck→repair until clean for deeply damaged
//! stores.

use std::collections::{HashMap, HashSet};

use serde_json::{json, Value};

use crate::approach::common;
use crate::branch::deleted;
use crate::commit;
use crate::env::ManagementEnv;
use crate::layout::{self, MmlibBatch, SetLayout, MMLIB_BASE, MODELS_COLLECTION};
use crate::model_set::ModelSetId;
use crate::verify::Audit;
use mmm_util::Result;

/// Blob-key prefix under which [`repair`] parks corrupt sets' artifacts.
pub const QUARANTINE_PREFIX: &str = "quarantine/";

/// Blob-key prefixes fsck never touches: quarantined remains and
/// tooling working state (the CLI keeps its fleet state under `cli/`).
const RESERVED_PREFIXES: [&str; 2] = [QUARANTINE_PREFIX, "cli/"];

/// Document collection recording why each set was quarantined.
pub const QUARANTINE_COLLECTION: &str = "quarantine";

/// One classified problem found by [`fsck`]. `UnknownKind`, `MissingBlob`
/// and `DanglingChain` come from the node audit and `HashMismatch` from the
/// hash audit, both shared with [`crate::verify::verify_set`] (which
/// also reports an MMlib-base batch's missing rows as `DanglingCommit`);
/// every other class needs the store-wide scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Damage {
    /// Store-wide: phase-one debris of a save that never committed: the
    /// listed documents and blobs exist but no reader will ever see them.
    UncommittedSave {
        /// The never-visible set the debris belongs to.
        id: ModelSetId,
        /// Document ids of the debris (in the set's collection).
        docs: Vec<u64>,
        /// Blob keys of the debris that exist on disk.
        blobs: Vec<String>,
    },
    /// Node audit: a committed set whose document names a kind no saver
    /// of its approach writes, so no build of this code can recover it.
    UnknownKind {
        /// The unreadable set.
        id: ModelSetId,
        /// Which kind, and why it is unreadable.
        detail: String,
    },
    /// Node audit: a committed set references a blob that does not exist
    /// (or, content-addressed, lacks a chunk).
    MissingBlob {
        /// The damaged set.
        id: ModelSetId,
        /// The absent blob's key.
        key: String,
    },
    /// Hash audit: an Update set's recovered parameters do not match its
    /// persisted layer hashes — silent corruption of a parameter payload.
    HashMismatch {
        /// The damaged set.
        id: ModelSetId,
        /// What the audit observed.
        detail: String,
    },
    /// Node audit: a committed derived set whose recovery chain is broken.
    DanglingChain {
        /// The damaged set.
        id: ModelSetId,
        /// Which link is broken and how.
        detail: String,
    },
    /// Store-wide: a commit record whose set documents no longer exist.
    DanglingCommit {
        /// The committed-but-gone set.
        id: ModelSetId,
        /// What is missing.
        detail: String,
    },
    /// Store-wide: a committed branch head whose target set is gone or was never
    /// committed (e.g. the parent commit record vanished). The branch
    /// pointer is unusable; repair quarantines it rather than letting
    /// resolution fail forever.
    OrphanBranch {
        /// The branch's name.
        name: String,
        /// The branch-head document id.
        doc_id: u64,
        /// What is missing.
        detail: String,
    },
    /// Store-wide: a blob under no live document's key space.
    OrphanBlob {
        /// The unowned blob's key.
        key: String,
    },
    /// Store-wide: a content-addressed chunk payload no manifest references —
    /// crash-leaked or left behind by an interrupted GC. Safe to reclaim.
    OrphanChunk {
        /// The unreferenced chunk's key (under `cas/chunks/`).
        key: String,
    },
}

impl Damage {
    /// One-line human-readable description (CLI output).
    pub fn describe(&self) -> String {
        match self {
            Damage::UncommittedSave { id, docs, blobs } => format!(
                "uncommitted save {id}: {} document(s), {} blob(s) of phase-one debris",
                docs.len(),
                blobs.len()
            ),
            Damage::UnknownKind { id, detail } => format!("set {id}: {detail}"),
            Damage::MissingBlob { id, key } => format!("set {id}: missing blob {key}"),
            Damage::HashMismatch { id, detail } => format!("set {id}: hash mismatch ({detail})"),
            Damage::DanglingChain { id, detail } => format!("set {id}: dangling chain ({detail})"),
            Damage::DanglingCommit { id, detail } => {
                format!("dangling commit for {id} ({detail})")
            }
            Damage::OrphanBranch { name, doc_id, detail } => {
                format!("orphan branch {name:?} (doc {doc_id}): {detail}")
            }
            Damage::OrphanBlob { key } => format!("orphan blob {key}"),
            Damage::OrphanChunk { key } => format!("orphan chunk {key}"),
        }
    }
}

/// What one [`fsck`] pass inspected and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Committed sets whose structure was audited.
    pub sets_checked: usize,
    /// Blob existence checks performed.
    pub blobs_checked: usize,
    /// Everything wrong, in classification order.
    pub damage: Vec<Damage>,
}

impl FsckReport {
    /// True when the environment is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }
}

/// What one [`repair`] pass removed or parked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Phase-one debris documents deleted.
    pub uncommitted_docs_deleted: usize,
    /// Phase-one debris blobs deleted.
    pub uncommitted_blobs_deleted: usize,
    /// Unowned blobs deleted.
    pub orphan_blobs_deleted: usize,
    /// Commit records without documents removed.
    pub dangling_commits_removed: usize,
    /// Unreferenced content-addressed chunk payloads deleted.
    pub orphan_chunks_deleted: usize,
    /// Corrupt sets moved to quarantine.
    pub sets_quarantined: usize,
    /// Orphaned branch heads retired to quarantine records.
    pub branches_quarantined: usize,
}

/// Salvage the document logs of an environment directory whose strict
/// open fails with [`mmm_util::Error::Corrupt`] (a flipped or garbled record in a
/// collection log). Quarantines the bad records into sidecar files so
/// the environment opens again; run [`fsck`] + [`repair`] afterwards to
/// classify and clear whatever the dropped records orphaned.
pub fn salvage_docs(dir: impl AsRef<std::path::Path>) -> Result<mmm_store::SalvageReport> {
    mmm_store::salvage(dir.as_ref().join("docs"))
}

/// Every document of `collection`, id-ascending, cut down to the
/// `fields` the audit reads (one find, charged like `all`).
fn scan(env: &ManagementEnv, collection: &str, fields: &[&str]) -> Result<Vec<(u64, Value)>> {
    let mut out = Vec::new();
    env.docs().visit(collection, |id, doc| {
        let field = |f: &&str| Some((f.to_string(), doc.get(f)?.clone()));
        out.push((id, Value::Object(fields.iter().filter_map(field).collect())));
        true
    })?;
    Ok(out)
}

/// Scan the whole environment and classify every inconsistency.
/// Read-only — repair decisions are a separate, explicit step.
pub fn fsck(env: &ManagementEnv) -> Result<FsckReport> {
    let committed = &commit::committed_ids(env)?;

    // ---- set-oriented documents (baseline / update / provenance) ----
    let set_docs = scan(env, common::SETS_COLLECTION, &["approach", "kind", "base"])?;
    let mut audit = Audit::new(env, committed);
    audit.set_docs = set_docs.iter().map(|(id, _)| *id).collect();
    // Every document's blob directory → the committed set it belongs
    // to (`None`: uncommitted debris).
    let mut owners: HashMap<String, Option<ModelSetId>> = HashMap::new();
    let mut update_sets = Vec::new();

    for (doc_id, doc) in &set_docs {
        let approach = doc.get("approach").and_then(Value::as_str).unwrap_or("?");
        let id = layout::set_id(approach, *doc_id);
        let dir = layout::doc_dir(approach, *doc_id);
        if audit.is_committed(approach, &id.key) {
            audit.found.sets_checked += 1;
            let before = audit.found.damage.len();
            audit.node(approach, *doc_id, doc);
            // Hash-audited below, if its structure looks intact.
            if approach == "update" && audit.found.damage.len() == before {
                update_sets.push(id.clone());
            }
            owners.insert(dir, Some(id));
        } else {
            let (docs, blobs) = (vec![*doc_id], env.blobs().list_keys(&dir)?);
            audit.flag(Damage::UncommittedSave { id, docs, blobs });
            owners.insert(dir, None);
        }
    }

    // ---- MMlib-base per-model rows, grouped into save batches ----
    let model_rows = scan(env, MODELS_COLLECTION, &["batch_head"])?;
    let row_ids: HashSet<u64> = model_rows.iter().map(|(id, _)| *id).collect();
    for (batch, debris) in layout::mmlib_batches(&model_rows, committed) {
        if let Some(batch) = batch {
            let id = batch.id();
            audit.found.sets_checked += 1;
            audit.blobs(&id, batch.blob_keys());
            for row in batch.doc_ids().filter(|row| row_ids.contains(row)) {
                owners.insert(layout::doc_dir(MMLIB_BASE, row), Some(id.clone()));
            }
        }
        if let Some(&first) = debris.first() {
            let mut blobs = Vec::new();
            for row in &debris {
                let dir = layout::doc_dir(MMLIB_BASE, *row);
                blobs.extend(env.blobs().list_keys(&dir)?);
                owners.insert(dir, None);
            }
            let count = debris.len();
            let (id, docs) = (MmlibBatch { first, count }.id(), debris);
            audit.flag(Damage::UncommittedSave { id, docs, blobs });
        }
    }

    // ---- branch heads (version-graph pointers into the set space) ----
    let branch_docs = scan(env, crate::branch::BRANCHES_COLLECTION, &["branch", "head"])?;
    let branch_ids: HashSet<u64> = branch_docs.iter().map(|(id, _)| *id).collect();
    let report = &mut audit.found;
    for (doc_id, doc) in &branch_docs {
        let name = doc.get("branch").and_then(Value::as_str).unwrap_or("?").to_string();
        if !committed.contains(&(crate::branch::BRANCH_APPROACH.to_string(), doc_id.to_string())) {
            // Phase-one debris of a fork/advance that never committed,
            // or a retired head whose cleanup crashed mid-delete.
            report.damage.push(Damage::UncommittedSave {
                id: ModelSetId {
                    approach: crate::branch::BRANCH_APPROACH.into(),
                    key: doc_id.to_string(),
                },
                docs: vec![*doc_id],
                blobs: Vec::new(),
            });
            continue;
        }
        report.sets_checked += 1;
        let head = doc.get("head").and_then(Value::as_str).unwrap_or("");
        match head.parse::<u64>() {
            Ok(h) if !audit.set_docs.contains(&h) => report.damage.push(Damage::OrphanBranch {
                name,
                doc_id: *doc_id,
                detail: format!("head set document {h} is missing"),
            }),
            Ok(h) if !committed.contains(&("update".to_string(), h.to_string())) => {
                report.damage.push(Damage::OrphanBranch {
                    name,
                    doc_id: *doc_id,
                    detail: format!("head set {h}'s commit record is missing"),
                })
            }
            Ok(_) => {}
            Err(_) => report.damage.push(Damage::OrphanBranch {
                name,
                doc_id: *doc_id,
                detail: "malformed head reference".into(),
            }),
        }
    }

    // ---- commit records whose documents are gone ----
    for (approach, key) in committed {
        let id = ModelSetId { approach: approach.clone(), key: key.clone() };
        if approach == MMLIB_BASE {
            match MmlibBatch::parse(key) {
                Ok(batch) => audit.batch_rows(batch, |row| row_ids.contains(&row)),
                Err(_) => {
                    let detail = "malformed batch key".into();
                    audit.flag(Damage::DanglingCommit { id, detail });
                }
            }
            continue;
        }
        let (existing, what) = match layout::collection_of(approach) {
            crate::branch::BRANCHES_COLLECTION => (&branch_ids, "branch"),
            _ => (&audit.set_docs, "set"),
        };
        let detail = match key.parse::<u64>() {
            Ok(doc_id) if existing.contains(&doc_id) => continue,
            Ok(doc_id) => format!("{what} document {doc_id} is gone"),
            Err(_) => format!("malformed {what} key"),
        };
        audit.flag(Damage::DanglingCommit { id, detail });
    }

    // ---- blobs no document accounts for ----
    for key in env.blobs().list_keys("")? {
        if RESERVED_PREFIXES.iter().any(|p| key.starts_with(p)) {
            continue;
        }
        if !owners.contains_key(layout::dir_of(&key)) {
            audit.flag(Damage::OrphanBlob { key });
        }
    }

    // ---- content-addressed chunk audit (CAS backend only) ----
    let mut flagged: HashSet<&ModelSetId> = HashSet::new();
    if let Some(cas) = env.blobs().cas() {
        let chunks = cas.audit()?;
        for key in chunks.orphan_chunks {
            audit.flag(Damage::OrphanChunk { key });
        }
        // A corrupt chunk damages every committed set whose manifests
        // reference it; the node audit only checks presence/length, so
        // the digest cross-check surfaces here. Blobs outside a set's
        // directory are none of a set's damage, and uncommitted debris
        // is already classified.
        for (chunk, blob_keys) in chunks.corrupt_chunks {
            for key in blob_keys {
                let Some(Some(id)) = owners.get(layout::dir_of(&key)) else {
                    continue;
                };
                if flagged.insert(id) {
                    let detail = format!("blob {key}: corrupt chunk {chunk}");
                    let id = id.clone();
                    audit.flag(Damage::HashMismatch { id, detail });
                }
            }
        }
    }

    // ---- hash audit: Update sets whose structure looks intact ----
    for id in update_sets.iter().filter(|id| !flagged.contains(id)) {
        audit.hashes(id);
    }

    Ok(audit.found)
}

/// Move a corrupt set's remains out of the live key space: decommit it,
/// relocate its blobs under [`QUARANTINE_PREFIX`], delete its documents,
/// and record the reason in [`QUARANTINE_COLLECTION`].
fn quarantine_set(env: &ManagementEnv, id: &ModelSetId, reason: &str) -> Result<()> {
    commit::decommit(env, id)?;
    let layout = SetLayout::of(id)?;
    for key in layout.list_blobs(env)? {
        match env.blobs().get(&key) {
            Ok(bytes) => {
                env.blobs()
                    .put(&format!("{QUARANTINE_PREFIX}{key}"), &bytes)?;
                env.blobs().delete(&key)?;
            }
            // Unreadable (e.g. a corrupt content-addressed chunk):
            // nothing worth parking — drop the blob so it cannot
            // masquerade as recoverable data.
            Err(_) => {
                let _ = env.blobs().delete(&key);
            }
        }
    }
    for doc_id in layout.doc_ids.clone() {
        deleted(env.docs().delete(layout.collection(), doc_id))?;
    }
    env.docs().insert(
        QUARANTINE_COLLECTION,
        json!({"approach": id.approach, "set": id.key, "reason": reason}),
    )?;
    Ok(())
}

/// Act on an [`fsck`] report: GC uncommitted debris, orphan blobs and
/// dangling commits; quarantine corrupt sets. Run [`fsck`] again after
/// repairing — quarantining a base can expose dangling descendants.
pub fn repair(env: &ManagementEnv, report: &FsckReport) -> Result<RepairReport> {
    let mut out = RepairReport::default();
    let mut quarantined: HashSet<(String, String)> = HashSet::new();
    for damage in &report.damage {
        match damage {
            Damage::UncommittedSave { id, docs, blobs } => {
                let collection = layout::collection_of(&id.approach);
                for blob in blobs {
                    out.uncommitted_blobs_deleted += deleted(env.blobs().delete(blob))?;
                }
                for doc_id in docs {
                    out.uncommitted_docs_deleted +=
                        deleted(env.docs().delete(collection, *doc_id))?;
                }
            }
            Damage::OrphanBlob { key } => {
                out.orphan_blobs_deleted += deleted(env.blobs().delete(key))?;
            }
            Damage::OrphanChunk { key } => {
                out.orphan_chunks_deleted += deleted(env.blobs().delete(key))?;
            }
            Damage::DanglingCommit { id, .. } => {
                out.dangling_commits_removed += commit::decommit(env, id)?;
            }
            Damage::OrphanBranch { name, doc_id, detail } => {
                // Retire the unusable pointer: decommit, drop the
                // document, keep the reason inspectable. The head set's
                // own damage (if its documents survive) is classified
                // and handled separately.
                commit::decommit(env, &crate::branch::branch_commit_id(*doc_id))?;
                let branches = crate::branch::BRANCHES_COLLECTION;
                deleted(env.docs().delete(branches, *doc_id))?;
                env.docs().insert(
                    QUARANTINE_COLLECTION,
                    json!({"branch": name, "doc": doc_id, "reason": detail}),
                )?;
                out.branches_quarantined += 1;
            }
            Damage::UnknownKind { id, .. }
            | Damage::MissingBlob { id, .. }
            | Damage::HashMismatch { id, .. }
            | Damage::DanglingChain { id, .. } => {
                if quarantined.insert((id.approach.clone(), id.key.clone())) {
                    quarantine_set(env, id, &damage.describe())?;
                    out.sets_quarantined += 1;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::{
        BaselineSaver, MmlibBaseSaver, ModelSetSaver, ProvenanceSaver, UpdateSaver,
    };
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
        let dir = TempDir::new("mmm-fsck").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    fn deriv(base: &ModelSetId) -> Derivation {
        Derivation { base: base.clone(), train: TrainConfig::regression_default(0), updates: vec![] }
    }

    #[test]
    fn healthy_environment_is_clean() {
        let (_d, env) = env();
        let s = set(4, 0);
        BaselineSaver::new().save_initial(&env, &s).unwrap();
        MmlibBaseSaver::new().save_initial(&env, &s).unwrap();
        ProvenanceSaver::new().save_initial(&env, &s).unwrap();
        let mut u = UpdateSaver::new();
        let id0 = u.save_initial(&env, &s).unwrap();
        let mut s1 = s.clone();
        s1.models[0].layers[0].data[0] += 1.0;
        u.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        let r = fsck(&env).unwrap();
        assert!(r.is_clean(), "{:?}", r.damage);
        assert_eq!(r.sets_checked, 5);
        assert!(r.blobs_checked > 0);
    }

    #[test]
    fn uncommitted_debris_is_classified_and_collected() {
        let (_d, env) = env();
        let s = set(3, 1);
        let keep = BaselineSaver::new().save_initial(&env, &s).unwrap();
        // Phase one of a crashed save: document + blob, no commit.
        let doc = common::full_set_doc("baseline", &s.arch, s.len()).unwrap();
        let doc_id = env.docs().insert(common::SETS_COLLECTION, doc).unwrap();
        env.blobs()
            .put(&common::params_key("baseline", doc_id), b"partial")
            .unwrap();

        let r = fsck(&env).unwrap();
        assert_eq!(r.damage.len(), 1);
        assert!(matches!(&r.damage[0], Damage::UncommittedSave { docs, blobs, .. }
            if docs == &vec![doc_id] && blobs.len() == 1));

        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.uncommitted_docs_deleted, 1);
        assert_eq!(rep.uncommitted_blobs_deleted, 1);
        assert!(fsck(&env).unwrap().is_clean());
        assert_eq!(BaselineSaver::new().recover_set(&env, &keep).unwrap(), s);
    }

    #[test]
    fn missing_blob_quarantines_the_set() {
        let (_d, env) = env();
        let s = set(3, 2);
        let id = BaselineSaver::new().save_initial(&env, &s).unwrap();
        env.blobs().delete(&common::params_key("baseline", common::doc_id_of(&id).unwrap())).unwrap();

        let r = fsck(&env).unwrap();
        assert!(r.damage.iter().any(|d| matches!(d, Damage::MissingBlob { .. })), "{:?}", r.damage);
        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.sets_quarantined, 1);
        assert!(fsck(&env).unwrap().is_clean());
        // The quarantine record names the set and the reason.
        let records = env.docs().all(QUARANTINE_COLLECTION).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1["set"], json!(id.key));
        assert!(records[0].1["reason"].as_str().unwrap().contains("missing blob"));
        // And readers see the set as gone.
        assert!(BaselineSaver::new().recover_set(&env, &id).is_err());
    }

    #[test]
    fn bit_flipped_update_params_fail_the_hash_audit() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(4, 3);
        let s0 = s.clone();
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[0].layers[0].data[0] += 1.0;
        let s1 = ModelSet::new(s.arch.clone(), s.models.clone());
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();

        let key = format!("update/{}/diff.bin", id1.key);
        let mut blob = env.blobs().get(&key).unwrap();
        let n = blob.len();
        blob[n - 1] ^= 0x01;
        env.blobs().put(&key, &blob).unwrap();

        let r = fsck(&env).unwrap();
        assert!(
            r.damage.iter().any(|d| matches!(d, Damage::HashMismatch { id, .. } if id == &id1)),
            "{:?}",
            r.damage
        );
        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.sets_quarantined, 1);
        // The quarantined set's blobs moved, the base set survives.
        assert!(env.blobs().get(&key).is_err());
        assert!(env.blobs().get(&format!("{QUARANTINE_PREFIX}{key}")).is_ok());
        assert_eq!(saver.recover_set(&env, &id0).unwrap(), s0);
        assert!(fsck(&env).unwrap().is_clean());
    }

    #[test]
    fn orphan_blob_is_deleted() {
        let (_d, env) = env();
        BaselineSaver::new().save_initial(&env, &set(2, 4)).unwrap();
        env.blobs().put("stray/9/junk.bin", b"???").unwrap();
        let r = fsck(&env).unwrap();
        assert!(matches!(&r.damage[..], [Damage::OrphanBlob { key }] if key == "stray/9/junk.bin"));
        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.orphan_blobs_deleted, 1);
        assert!(fsck(&env).unwrap().is_clean());
    }

    #[test]
    fn dangling_commit_is_removed() {
        let (_d, env) = env();
        let ghost = ModelSetId { approach: "baseline".into(), key: "99".into() };
        commit::commit_save(&env, &ghost).unwrap();
        let r = fsck(&env).unwrap();
        assert!(matches!(&r.damage[..], [Damage::DanglingCommit { id, .. }] if id == &ghost));
        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.dangling_commits_removed, 1);
        assert!(fsck(&env).unwrap().is_clean());
    }

    #[test]
    fn partial_mmlib_batch_is_collected() {
        let (_d, env) = env();
        let s = set(3, 5);
        let keep = MmlibBaseSaver::new().save_initial(&env, &s).unwrap();
        // A crashed batch: two rows + one blob, head marker, no commit.
        for head in [true, false] {
            let doc_id = env
                .docs()
                .insert(MODELS_COLLECTION, json!({"approach": "mmlib-base", "batch_head": head}))
                .unwrap();
            env.blobs().put(&format!("mmlib/m{doc_id}/params.pt"), b"x").unwrap();
        }
        let r = fsck(&env).unwrap();
        assert_eq!(r.damage.len(), 1);
        assert!(matches!(&r.damage[0], Damage::UncommittedSave { docs, blobs, .. }
            if docs.len() == 2 && blobs.len() == 2));
        repair(&env, &r).unwrap();
        assert!(fsck(&env).unwrap().is_clean());
        assert_eq!(MmlibBaseSaver::new().recover_set(&env, &keep).unwrap(), s);
    }

    /// Two MMlib-base saves, then one of them loses its head row — what
    /// `fsck --salvage` does to a flipped record. The rows that follow the
    /// lost head carry no marker, so by the markers alone they belong to
    /// the batch before them; repair must go by the commit records and
    /// leave the healthy batch alone.
    #[test]
    fn repair_keeps_the_committed_batch_next_to_a_decapitated_one() {
        for (victim, survivor) in [(1, 0), (0, 1)] {
            let (_d, env) = env();
            let mut saver = MmlibBaseSaver::new();
            let sets = [set(3, 1), set(4, 2)];
            let ids = sets
                .each_ref()
                .map(|s| saver.save_initial(&env, s).unwrap());
            let head = MmlibBatch::parse(&ids[victim].key).unwrap().first;
            env.docs().delete(MODELS_COLLECTION, head).unwrap();

            // The headless rows and their blobs are debris, the
            // decapitated batch's commit dangles, and nothing is said
            // about the batch that is whole.
            let mut scan = fsck(&env).unwrap();
            let headless = sets[victim].len() - 1;
            assert!(
                scan.damage
                    .iter()
                    .any(|d| matches!(d, Damage::UncommittedSave { docs, blobs, .. }
                    if docs.len() == headless && blobs.len() == 3 * headless)),
                "{:?}",
                scan.damage
            );
            assert!(scan
                .damage
                .iter()
                .any(|d| matches!(d, Damage::DanglingCommit { id, .. } if id == &ids[victim])));
            let about_survivor = |d: &Damage| d.describe().contains(&ids[survivor].to_string());
            assert!(!scan.damage.iter().any(about_survivor), "{:?}", scan.damage);
            assert_eq!(scan.sets_checked, 1);

            let mut passes = 0;
            while !scan.is_clean() {
                passes += 1;
                assert!(passes < 5, "repair must converge: {:?}", scan.damage);
                let fixed = repair(&env, &scan).unwrap();
                assert_eq!(fixed.sets_quarantined, 0);
                scan = fsck(&env).unwrap();
            }

            // The survivor is still listed, still committed, and recovers
            // bit-identically; nothing of the victim is left.
            let listed = crate::catalog::list_sets(&env).unwrap();
            let listed: Vec<&ModelSetId> = listed.iter().map(|s| &s.id).collect();
            assert_eq!(listed, vec![&ids[survivor]]);
            assert!(commit::is_committed(&env, &ids[survivor]).unwrap());
            assert!(!commit::is_committed(&env, &ids[victim]).unwrap());
            assert_eq!(
                saver.recover_set(&env, &ids[survivor]).unwrap(),
                sets[survivor]
            );
            assert_eq!(env.docs().count(MODELS_COLLECTION), sets[survivor].len());
            let blobs = env.blobs().list_keys("mmlib").unwrap();
            assert_eq!(blobs.len(), 3 * sets[survivor].len(), "{blobs:?}");
        }
    }

    /// One store with one kind of damage: the sets to verify, each with
    /// the ids of its chain's nodes.
    type Damaged = Vec<(ModelSetId, Vec<ModelSetId>)>;

    /// An Update chain `id0 ← id1`, handed to `damage` to break.
    fn update_chain(
        env: &ManagementEnv,
        seed: u64,
        damage: impl Fn(&ModelSetId, &ModelSetId),
    ) -> Damaged {
        let mut saver = UpdateSaver::new();
        let mut s = set(3, seed);
        let id0 = saver.save_initial(env, &s).unwrap();
        s.models[0].layers[0].data[0] += 1.0;
        let id1 = saver.save_set(env, &s, Some(&deriv(&id0))).unwrap();
        damage(&id0, &id1);
        vec![
            (id0.clone(), vec![id0.clone()]),
            (id1.clone(), vec![id1, id0]),
        ]
    }

    fn baseline_missing_blob(env: &ManagementEnv, _dir: &std::path::Path) -> Damaged {
        let id = BaselineSaver::new().save_initial(env, &set(3, 20)).unwrap();
        let doc_id = common::doc_id_of(&id).unwrap();
        env.blobs()
            .delete(&common::params_key("baseline", doc_id))
            .unwrap();
        vec![(id.clone(), vec![id])]
    }

    fn update_bit_flip(env: &ManagementEnv, _dir: &std::path::Path) -> Damaged {
        update_chain(env, 21, |_, id1| {
            let key = layout::diff_key(common::doc_id_of(id1).unwrap());
            let mut blob = env.blobs().get(&key).unwrap();
            *blob.last_mut().unwrap() ^= 0x01;
            env.blobs().put(&key, &blob).unwrap();
        })
    }

    fn update_base_force_deleted(env: &ManagementEnv, _dir: &std::path::Path) -> Damaged {
        let mut sets = update_chain(env, 22, |id0, _| {
            crate::gc::delete_set(env, id0, true).unwrap();
        });
        sets.remove(0); // the base is no longer a set to verify
        sets
    }

    fn update_base_uncommitted(env: &ManagementEnv, _dir: &std::path::Path) -> Damaged {
        update_chain(env, 23, |id0, _| {
            commit::decommit(env, id0).unwrap();
        })
    }

    fn undamaged(env: &ManagementEnv, _dir: &std::path::Path) -> Damaged {
        let id = MmlibBaseSaver::new()
            .save_initial(env, &set(2, 24))
            .unwrap();
        let mut sets = update_chain(env, 25, |_, _| {});
        sets.push((id.clone(), vec![id]));
        sets
    }

    /// Content-addressed only: a Baseline set loses one chunk file.
    fn baseline_chunk_removed(env: &ManagementEnv, dir: &std::path::Path) -> Damaged {
        let id = BaselineSaver::new().save_initial(env, &set(3, 26)).unwrap();
        let chunks = dir.join("blobs").join("cas").join("chunks");
        let chunk = std::fs::read_dir(chunks).unwrap().next().unwrap().unwrap();
        std::fs::remove_file(chunk.path()).unwrap();
        vec![(id.clone(), vec![id])]
    }

    /// The law `verify` and `fsck` share their audits for: a set verifies
    /// healthy exactly when fsck reports no set-scoped damage on any node
    /// of its chain.
    #[test]
    fn verify_and_fsck_agree_on_every_single_damage() {
        use mmm_store::StorageBackend::{Cas, Plain};
        type Scenario = fn(&ManagementEnv, &std::path::Path) -> Damaged;
        let everywhere: [(&str, Scenario); 5] = [
            ("undamaged", undamaged),
            ("missing blob", baseline_missing_blob),
            ("bit-flipped update params", update_bit_flip),
            ("force-deleted base", update_base_force_deleted),
            ("uncommitted base", update_base_uncommitted),
        ];
        let cas_only: (&str, Scenario) = ("chunk file removed", baseline_chunk_removed);
        let cases = everywhere
            .iter()
            .flat_map(|case| [(Plain, case), (Cas, case)])
            .chain([(Cas, &cas_only)]);
        for (backend, (name, scenario)) in cases {
            let dir = TempDir::new("mmm-fsck-law").unwrap();
            let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
                .backend(backend)
                .open()
                .unwrap();
            let sets = scenario(&env, dir.path());
            let scan = fsck(&env).unwrap();
            let damaged = |node: &ModelSetId| {
                scan.damage.iter().any(|d| match d {
                    Damage::UncommittedSave { id, .. }
                    | Damage::UnknownKind { id, .. }
                    | Damage::MissingBlob { id, .. }
                    | Damage::HashMismatch { id, .. }
                    | Damage::DanglingChain { id, .. }
                    | Damage::DanglingCommit { id, .. } => id == node,
                    Damage::OrphanBranch { .. }
                    | Damage::OrphanBlob { .. }
                    | Damage::OrphanChunk { .. } => false,
                })
            };
            let mut any_damage = false;
            for (id, chain) in &sets {
                let verified = crate::verify::verify_set(&env, id).unwrap();
                let fsck_clean = !chain.iter().any(damaged);
                any_damage |= !fsck_clean;
                assert_eq!(
                    verified.is_healthy(),
                    fsck_clean,
                    "{name} on {backend:?}, set {id}: verify {:?}, fsck {:?}",
                    verified.issues,
                    scan.damage
                );
            }
            assert_eq!(
                any_damage,
                *name != "undamaged",
                "{name} on {backend:?}: {:?}",
                scan.damage
            );
        }
    }

    #[test]
    fn corrupt_base_takes_its_descendants_to_quarantine() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(3, 6);
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[0].layers[0].data[0] += 0.5;
        let s1 = ModelSet::new(s.arch.clone(), s.models.clone());
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        // Corrupt the *base*: its params blob disappears. The base is
        // structurally damaged; the child fails the hash audit because
        // its recovery chain runs through the hole.
        env.blobs()
            .delete(&common::params_key("update", common::doc_id_of(&id0).unwrap()))
            .unwrap();

        let r = fsck(&env).unwrap();
        assert!(r.damage.iter().any(|d| matches!(d, Damage::MissingBlob { id, .. } if id == &id0)));
        assert!(
            r.damage.iter().any(|d| matches!(d, Damage::HashMismatch { id, .. } if id == &id1)),
            "{:?}",
            r.damage
        );
        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.sets_quarantined, 2);
        assert!(fsck(&env).unwrap().is_clean());
    }

    #[test]
    fn healthy_branched_environment_is_clean() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let id0 = saver.save_initial(&env, &set(3, 11)).unwrap();
        crate::branch::fork(&env, &id0, 0, "exp").unwrap();
        let r = fsck(&env).unwrap();
        assert!(r.is_clean(), "{:?}", r.damage);
        assert_eq!(r.sets_checked, 3, "base + fork node + branch head");
    }

    #[test]
    fn branch_head_with_missing_parent_commit_is_an_orphan_branch() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s = set(3, 12);
        let id0 = saver.save_initial(&env, &s).unwrap();
        let b = crate::branch::fork(&env, &id0, 0, "exp").unwrap();
        // The head set's commit record vanishes (lost to bit rot or a
        // flipped doc log record): the branch pointer now dangles.
        commit::decommit(&env, &b.head).unwrap();

        let r = fsck(&env).unwrap();
        assert!(
            r.damage.iter().any(|d| matches!(d, Damage::OrphanBranch { name, detail, .. }
                if name == "exp" && detail.contains("commit record is missing"))),
            "{:?}",
            r.damage
        );
        // The now-uncommitted fork node is separately classified debris.
        assert!(r.damage.iter().any(|d| matches!(d, Damage::UncommittedSave { id, .. }
            if id.approach == "update" && id.key == b.head.key)));

        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.branches_quarantined, 1);
        assert!(crate::branch::branch_by_name(&env, "exp").is_err());
        // The reason stays inspectable and the parent set is untouched.
        let records = env.docs().all(QUARANTINE_COLLECTION).unwrap();
        assert!(records.iter().any(|(_, d)| d["branch"] == json!("exp")));
        assert_eq!(saver.recover_set(&env, &id0).unwrap(), s);
        assert!(fsck(&env).unwrap().is_clean());
    }

    #[test]
    fn branch_head_whose_set_document_vanished_is_an_orphan_branch() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let id0 = saver.save_initial(&env, &set(2, 13)).unwrap();
        let b = crate::branch::fork(&env, &id0, 0, "lost").unwrap();
        let head_doc = b.head.key.parse::<u64>().unwrap();
        env.docs().delete(common::SETS_COLLECTION, head_doc).unwrap();

        let r = fsck(&env).unwrap();
        assert!(
            r.damage.iter().any(|d| matches!(d, Damage::OrphanBranch { detail, .. }
                if detail.contains("is missing"))),
            "{:?}",
            r.damage
        );
        // Repairing converges (the head's own dangling commit included).
        let mut passes = 0;
        loop {
            let r = fsck(&env).unwrap();
            if r.is_clean() {
                break;
            }
            passes += 1;
            assert!(passes < 5, "repair must converge: {:?}", r.damage);
            repair(&env, &r).unwrap();
        }
        assert!(crate::branch::branch_by_name(&env, "lost").is_err());
    }

    #[test]
    fn uncommitted_branch_document_is_collected_as_debris() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let id0 = saver.save_initial(&env, &set(2, 14)).unwrap();
        // Phase one of a crashed fork: branch doc without its commit.
        let doc_id = env
            .docs()
            .insert(
                crate::branch::BRANCHES_COLLECTION,
                json!({"branch": "half", "approach": "update", "head": id0.key, "root": id0.key, "nodes": [id0.key]}),
            )
            .unwrap();
        let r = fsck(&env).unwrap();
        assert!(matches!(&r.damage[..], [Damage::UncommittedSave { id, docs, .. }]
            if id.approach == crate::branch::BRANCH_APPROACH && docs == &vec![doc_id]));
        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.uncommitted_docs_deleted, 1);
        assert!(fsck(&env).unwrap().is_clean());
    }

    #[test]
    fn force_deleted_base_leaves_a_dangling_chain() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(3, 7);
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[1].layers[1].data[0] -= 0.25;
        let s1 = ModelSet::new(s.arch.clone(), s.models.clone());
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        crate::gc::delete_set(&env, &id0, true).unwrap();

        let r = fsck(&env).unwrap();
        assert!(
            r.damage.iter().any(|d| matches!(d, Damage::DanglingChain { id, .. } if id == &id1)),
            "{:?}",
            r.damage
        );
        let rep = repair(&env, &r).unwrap();
        assert_eq!(rep.sets_quarantined, 1);
        assert!(fsck(&env).unwrap().is_clean());
    }
}

//! Lineage-aware garbage collection of saved model sets.
//!
//! The paper's scenario archives *every* set, but a production deployment
//! eventually retires old versions. Deletion is non-trivial for the
//! recursive approaches: an Update/Provenance set is the recovery base of
//! its descendants, so removing it would orphan them. This module
//! provides dependency-checked deletion and a retention sweep.

use crate::approach::{common, ProvenanceSaver};
use crate::commit;
use crate::env::ManagementEnv;
use crate::layout::{self, SetLayout};
use crate::model_set::ModelSetId;
use mmm_util::{Error, Result};
use serde_json::{json, Value};

/// Ids of *committed* sets that directly reference `id` as their base.
/// Uncommitted referrers are crash debris — they never became visible,
/// so they don't pin their base against deletion.
pub fn dependents(env: &ManagementEnv, id: &ModelSetId) -> Result<Vec<ModelSetId>> {
    if id.approach == "mmlib-base" {
        return Ok(Vec::new()); // per-model storage has no chains
    }
    let committed = commit::committed_ids(env)?;
    let hits = env
        .docs()
        .find_eq(common::SETS_COLLECTION, "base", &json!(id.key))?;
    Ok(hits
        .into_iter()
        .filter(|(_, doc)| doc.get("approach").and_then(Value::as_str) == Some(id.approach.as_str()))
        .filter(|(doc_id, _)| committed.contains(&(id.approach.clone(), doc_id.to_string())))
        .map(|(doc_id, _)| layout::set_id(&id.approach, doc_id))
        .collect())
}

/// What a deletion removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeleteReport {
    /// Documents tombstoned.
    pub docs_deleted: usize,
    /// Blobs removed.
    pub blobs_deleted: usize,
    /// Commit records removed (the set becomes invisible first).
    pub commits_deleted: usize,
}

/// Delete one saved set. Refuses (with [`Error::Invalid`]) when other
/// sets still chain to it, unless `force` is set — forcing orphans the
/// descendants, which will fail loudly at recovery.
pub fn delete_set(env: &ManagementEnv, id: &ModelSetId, force: bool) -> Result<DeleteReport> {
    if !force {
        let deps = dependents(env, id)?;
        if !deps.is_empty() {
            return Err(Error::invalid(format!(
                "set {id} is the base of {} other set(s), e.g. {}; delete those first or force",
                deps.len(),
                deps[0]
            )));
        }
    }

    let layout = SetLayout::of(id)?;
    // Decommit first: the set disappears from readers and the catalog
    // before any artifact is touched, so a crash mid-deletion leaves
    // only invisible orphans (fsck-collectable), never a visible set
    // with missing artifacts.
    let mut report =
        DeleteReport { commits_deleted: commit::decommit(env, id)?, ..DeleteReport::default() };
    // Documents before blobs: a missing set is `NotFound` before any
    // blob is touched.
    for doc_id in layout.doc_ids.clone() {
        env.docs().delete(layout.collection(), doc_id)?;
        report.docs_deleted += 1;
    }
    for key in layout.list_blobs(env)? {
        env.blobs().delete(&key)?;
        report.blobs_deleted += 1;
    }
    Ok(report)
}

/// Retention sweep over one approach's chain: given the ordered history
/// of saved ids (oldest first), keep the most recent `keep_last` sets and
/// every set that something retained still depends on; delete the rest
/// (oldest first). Returns the deleted ids.
pub fn apply_retention(
    env: &ManagementEnv,
    history: &[ModelSetId],
    keep_last: usize,
) -> Result<Vec<ModelSetId>> {
    let mut deleted = Vec::new();
    if history.len() <= keep_last {
        return Ok(deleted);
    }
    for id in &history[..history.len() - keep_last] {
        match delete_set(env, id, false) {
            Ok(_) => deleted.push(id.clone()),
            // Still a recovery base of a retained set — must be kept.
            Err(Error::Invalid(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(deleted)
}

/// Garbage-collect the content-addressed chunk store: delete every chunk
/// payload no manifest references (crash-leaked puts, interrupted GCs).
/// Returns `(chunks deleted, bytes reclaimed)` — `(0, 0)` on the plain
/// backend, which has no chunk population to sweep.
pub fn reclaim_orphan_chunks(env: &ManagementEnv) -> Result<(usize, u64)> {
    match env.blobs().cas() {
        Some(cas) => cas.reclaim_orphans(),
        None => Ok((0, 0)),
    }
}

/// Garbage-collect the dataset registry: delete every registered dataset
/// that no surviving provenance record references. Returns
/// `(datasets deleted, bytes reclaimed)`.
///
/// The registry is "data saved regardless of model management" (paper
/// assumption O2), so this is an *operator* decision — e.g. after
/// retention deleted old provenance chains, their datasets may be
/// reclaimable if nothing else needs them.
pub fn collect_unreferenced_datasets(env: &ManagementEnv) -> Result<(usize, u64)> {
    use std::collections::HashSet;

    // Gather every dataset id referenced by any surviving *committed*
    // provenance doc. Uncommitted docs may lack their updates blob (a
    // crash can land between doc and blob), so they are skipped — their
    // datasets were never acknowledged as referenced.
    let mut referenced: HashSet<String> = HashSet::new();
    let committed = commit::committed_ids(env)?;
    let prov_docs = env
        .docs()
        .find_eq(common::SETS_COLLECTION, "approach", &json!("provenance"))?;
    for (doc_id, doc) in prov_docs {
        if doc.get("kind").and_then(Value::as_str) != Some("prov") {
            continue;
        }
        if !committed.contains(&("provenance".to_string(), doc_id.to_string())) {
            continue;
        }
        for update in ProvenanceSaver::read_updates(env, doc_id)? {
            referenced.insert(update.dataset.id);
        }
    }

    let before = env.registry().disk_bytes();
    let deleted = env.registry().retain(|id| referenced.contains(id))?;
    Ok((deleted, before - env.registry().disk_bytes()))
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

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-gc").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    fn deriv(base: &ModelSetId) -> Derivation {
        Derivation { base: base.clone(), train: TrainConfig::regression_default(0), updates: vec![] }
    }

    #[test]
    fn delete_baseline_set_frees_storage() {
        let (_d, env) = env();
        let mut saver = BaselineSaver::new();
        let s = set(5, 0);
        let id = saver.save_initial(&env, &s).unwrap();
        let before = env.blobs().disk_bytes();
        let report = delete_set(&env, &id, false).unwrap();
        assert_eq!(report.docs_deleted, 1);
        assert_eq!(report.blobs_deleted, 1);
        assert_eq!(report.commits_deleted, 1);
        assert!(env.blobs().disk_bytes() < before);
        assert!(saver.recover_set(&env, &id).is_err());
    }

    #[test]
    fn delete_refuses_while_dependents_exist() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(5, 1);
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[0].layers[0].data[0] += 1.0;
        let s1 = ModelSet::new(s.arch.clone(), s.models.clone());
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();

        assert_eq!(dependents(&env, &id0).unwrap(), vec![id1.clone()]);
        assert!(matches!(delete_set(&env, &id0, false), Err(Error::Invalid(_))));

        // Delete the dependent first, then the base.
        delete_set(&env, &id1, false).unwrap();
        delete_set(&env, &id0, false).unwrap();
        assert!(saver.recover_set(&env, &id0).is_err());
    }

    #[test]
    fn forced_delete_orphans_descendants_loudly() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(4, 2);
        let id0 = saver.save_initial(&env, &s).unwrap();
        s.models[1].layers[1].data[0] -= 0.5;
        let s1 = ModelSet::new(s.arch.clone(), s.models.clone());
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        delete_set(&env, &id0, true).unwrap();
        assert!(
            saver.recover_set(&env, &id1).is_err(),
            "orphaned chain must fail at recovery, not return wrong data"
        );
    }

    #[test]
    fn delete_mmlib_set_removes_all_per_model_artifacts() {
        let (_d, env) = env();
        let mut saver = MmlibBaseSaver::new();
        let s = set(3, 3);
        let id = saver.save_initial(&env, &s).unwrap();
        let report = delete_set(&env, &id, false).unwrap();
        assert_eq!(report.docs_deleted, 3);
        assert_eq!(report.blobs_deleted, 9);
        assert_eq!(report.commits_deleted, 1, "one commit record per batch");
        assert!(saver.recover_set(&env, &id).is_err());
    }

    #[test]
    fn retention_keeps_chain_bases_alive() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(4, 4);
        let mut history = vec![saver.save_initial(&env, &s).unwrap()];
        for i in 0..3 {
            s.models[i % 4].layers[0].data[0] += 0.25;
            let snap = ModelSet::new(s.arch.clone(), s.models.clone());
            let d = deriv(history.last().unwrap());
            history.push(saver.save_set(&env, &snap, Some(&d)).unwrap());
        }
        // Keep only the newest set; everything else is still its
        // recovery chain, so nothing can actually be deleted.
        let deleted = apply_retention(&env, &history, 1).unwrap();
        assert!(deleted.is_empty(), "chain bases must survive: {deleted:?}");
        assert!(saver.recover_set(&env, history.last().unwrap()).is_ok());
    }

    #[test]
    fn retention_deletes_independent_history() {
        let (_d, env) = env();
        let mut saver = BaselineSaver::new();
        let mut history = Vec::new();
        for i in 0..4 {
            history.push(saver.save_initial(&env, &set(4, 10 + i)).unwrap());
        }
        let deleted = apply_retention(&env, &history, 2).unwrap();
        assert_eq!(deleted.len(), 2, "baseline sets are independent");
        assert!(saver.recover_set(&env, &history[0]).is_err());
        assert!(saver.recover_set(&env, &history[3]).is_ok());
    }

    #[test]
    fn registry_gc_keeps_referenced_datasets() {
        use crate::apply_update::apply_update;
        use crate::approach::ProvenanceSaver;
        use crate::model_set::{ModelUpdate, UpdateKind};
        use mmm_battery::cycles::CycleConfig;
        use mmm_battery::data::CellDataConfig;
        use mmm_data::battery_ds::battery_dataset;
        use mmm_dnn::TrainConfig;

        let (_d, env) = env();
        let mut saver = ProvenanceSaver::new();
        let s0 = set(4, 9);
        let id0 = saver.save_initial(&env, &s0).unwrap();

        let cfg = CellDataConfig {
            cycle: CycleConfig { duration_s: 120, load_scale: 1.0 },
            n_cycles: 1,
            sample_every: 4,
            ..CellDataConfig::default()
        };
        let used = battery_dataset(&cfg, 0, 1, 7);
        let used_ref = env.registry().put(&used).unwrap();
        // An orphan dataset nothing references.
        let orphan = battery_dataset(&cfg, 99, 1, 7);
        let orphan_ref = env.registry().put(&orphan).unwrap();

        let train = TrainConfig { epochs: 1, ..TrainConfig::regression_default(0) };
        let u = ModelUpdate { model_idx: 0, kind: UpdateKind::Full, dataset: used_ref.clone(), seed: 3 };
        let mut s1 = s0.clone();
        s1.models[0] = apply_update(&s0.arch, &s0.models[0], &u, &train, &used);
        let d = Derivation { base: id0, train, updates: vec![u] };
        let id1 = saver.save_set(&env, &s1, Some(&d)).unwrap();

        let (deleted, reclaimed) = collect_unreferenced_datasets(&env).unwrap();
        assert_eq!(deleted, 1);
        assert!(reclaimed > 0);
        assert!(env.registry().contains(&used_ref));
        assert!(!env.registry().contains(&orphan_ref));
        // The provenance chain still recovers.
        assert_eq!(saver.recover_set(&env, &id1).unwrap(), s1);
    }

    #[test]
    fn delete_missing_set_is_not_found() {
        let (_d, env) = env();
        let id = ModelSetId { approach: "baseline".into(), key: "77".into() };
        assert!(matches!(delete_set(&env, &id, false), Err(Error::NotFound(_))));
    }
}

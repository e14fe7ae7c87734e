//! The **Update** approach (paper §3.3).
//!
//! Builds on Baseline and additionally exploits that per update cycle
//! (1) not all models are updated and (2) some are only partially
//! updated. For an initial set it saves Baseline's artifacts **plus** the
//! per-model, per-layer parameter hashes. Every subsequent set is saved
//! as: (1) a reference to the base set, (2) fresh hashes for all models
//! and layers, (3) a diff list of changed layers identified by comparing
//! hashes against the base set's stored hashes ("without having to load
//! the full representation of the previous model"), and (4) one binary
//! blob with all changed parameters concatenated.
//!
//! Recovery is recursive: recover the base set, then apply the diffs.
//! The paper notes the recursively increasing recovery time "can be
//! prevented by saving intermediate model snapshots using the baseline
//! approach" — implemented here as [`UpdateSaver::with_full_snapshot_every`].

use std::collections::HashMap;
use std::ops::Range;

use crate::approach::common::{self, FullSnapshot, Slots};
use crate::approach::ModelSetSaver;
use crate::commit;
use crate::env::ManagementEnv;
use crate::layout;
use crate::model_set::{Derivation, ModelSet, ModelSetId};
use crate::param_codec::{
    decode_hashes, diff_directory_len, encode_diff, encode_hashes, parse_diff_directory, DiffEntry,
    DiffSlot,
};
use mmm_dnn::ParamDict;
use mmm_store::BlobBytes;
use mmm_util::{codec, parallel, Error, Result};
use serde_json::{json, Value};

/// Saver implementing the Update approach.
#[derive(Debug, Default, Clone)]
pub struct UpdateSaver {
    /// If `Some(k)`, every k-th derived save is stored as a full snapshot
    /// (bounding the recovery recursion depth at `k`).
    full_snapshot_every: Option<usize>,
}

impl UpdateSaver {
    /// Plain Update approach: only the initial set is a full snapshot.
    pub fn new() -> Self {
        UpdateSaver {
            full_snapshot_every: None,
        }
    }

    /// Update approach with intermediate full snapshots every `k` saves.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_full_snapshot_every(k: usize) -> Self {
        assert!(k > 0, "snapshot interval must be positive");
        UpdateSaver {
            full_snapshot_every: Some(k),
        }
    }

    /// Put a set's hash table, cutting one chunk after the 16-byte
    /// header and then one per model row, so an unchanged model's row
    /// dedups against the predecessor's hash blob under CAS.
    pub(crate) fn put_hash_table(
        env: &ManagementEnv,
        doc_id: u64,
        hashes: &[Vec<u64>],
    ) -> Result<()> {
        let blob = encode_hashes(hashes);
        let row = 8 * hashes.first().map_or(0, Vec::len);
        let bounds: Vec<usize> = (16..blob.len()).step_by(row.max(1)).collect();
        env.with_retry(|| {
            env.blobs()
                .put_with_boundaries(&layout::hashes_key(doc_id), &blob, &bounds)
        })
    }

    /// Fetch and decode the hash table [`Self::put_hash_table`] wrote.
    pub(crate) fn read_hash_table(env: &ManagementEnv, doc_id: u64) -> Result<Vec<Vec<u64>>> {
        decode_hashes(&env.blobs().get(&layout::hashes_key(doc_id))?)
    }

    /// A full snapshot at chain depth `depth`: Baseline's artifacts plus
    /// the hash table later derived saves diff against.
    fn save_full(&self, env: &ManagementEnv, set: &ModelSet, depth: u64) -> Result<ModelSetId> {
        common::save_full_snapshot(
            env,
            self.name(),
            &set.arch,
            set.len(),
            &[("depth", json!(depth))],
            common::records_of(set),
            |doc_id| {
                let hashes = {
                    let _span = env.obs().span("hash");
                    Self::layer_hash_table(env, set)
                };
                let _span = env.obs().span("blob_put");
                Self::put_hash_table(env, doc_id, &hashes)
            },
        )
    }

    /// Per-model, per-layer content hashes, computed across the
    /// environment's thread budget (pure compute — row `i` depends only
    /// on model `i`, so the table is identical for every thread count).
    fn layer_hash_table(env: &ManagementEnv, set: &ModelSet) -> Vec<Vec<u64>> {
        let models = set.models();
        parallel::map(env.threads(), models.len(), |i| models[i].layer_hashes())
    }

    /// Whole-set (`None`) or selective recovery through the shared
    /// chain skeleton: ranged reads of the selected models from the
    /// chain's full snapshot, then diff replay filtered to those models
    /// — `k/n` of the snapshot plus each level's diff directory and the
    /// diff entries of the selected models.
    fn recover(
        &self,
        env: &ManagementEnv,
        id: &ModelSetId,
        indices: Option<&[usize]>,
    ) -> Result<ModelSet> {
        common::recover_chain(
            env,
            self.name(),
            id,
            indices,
            parse_diff_level,
            |_arch, models, slots, doc_id, level| {
                apply_diff_level(env, models, slots, doc_id, *level)
            },
        )
    }
}

impl ModelSetSaver for UpdateSaver {
    fn name(&self) -> &'static str {
        "update"
    }

    fn save_set(
        &mut self,
        env: &ManagementEnv,
        set: &ModelSet,
        derivation: Option<&Derivation>,
    ) -> Result<ModelSetId> {
        let Some(deriv) = derivation else {
            return self.save_full(env, set, 0);
        };
        if deriv.base.approach != self.name() {
            return Err(Error::invalid(format!(
                "update sets must chain to update sets, got base {:?}",
                deriv.base.approach
            )));
        }

        // (1) Reference to the base set + its metadata. A base whose own
        // save never committed must not anchor new chains.
        commit::require_committed(env, &deriv.base)?;
        let base_id = common::doc_id_of(&deriv.base)?;
        let base_doc = {
            let _span = env.obs().span("doc_get");
            env.docs().get(common::SETS_COLLECTION, base_id)?
        };
        let base_n = base_doc
            .get("n_models")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::corrupt("base set document without n_models"))? as usize;
        if base_n != set.len() {
            return Err(Error::invalid(format!(
                "derived set has {} models, base has {base_n}",
                set.len()
            )));
        }
        let depth = base_doc
            .get("depth")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::corrupt("base set document without depth"))?
            + 1;

        // Intermediate full snapshot if configured.
        if let Some(k) = self.full_snapshot_every {
            if depth % k as u64 == 0 {
                return self.save_full(env, set, depth);
            }
        }

        // (2) Hashes for every model and layer of the new set.
        let hashes = {
            let _span = env.obs().span("hash");
            Self::layer_hash_table(env, set)
        };

        // (3) Changed layers, detected against the base set's hash blob.
        let changed: Vec<(usize, usize)> = {
            let _span = env.obs().span("diff_detect");
            let base_hashes = Self::read_hash_table(env, base_id)?;
            if base_hashes.len() != hashes.len() {
                return Err(Error::corrupt("base hash table has wrong model count"));
            }
            let mut changed = Vec::new();
            for (mi, (new_row, old_row)) in hashes.iter().zip(&base_hashes).enumerate() {
                if new_row.len() != old_row.len() {
                    return Err(Error::corrupt("base hash table has wrong layer count"));
                }
                for (li, (nh, oh)) in new_row.iter().zip(old_row).enumerate() {
                    if nh != oh {
                        changed.push((mi, li));
                    }
                }
            }
            changed
        };

        // (4) Persist: one metadata doc + the diff blob + the hash blob.
        let diff_blob = {
            let _span = env.obs().span("encode_diff");
            let entries: Vec<DiffEntry> = parallel::map(env.threads(), changed.len(), |c| {
                let (mi, li) = changed[c];
                DiffEntry {
                    model_idx: mi as u32,
                    layer_idx: li as u32,
                    data: set.models()[mi].layers[li].data.clone(),
                }
            });
            for e in &entries {
                env.obs()
                    .observe("mmm_update_changed_layer_bytes", 4 * e.data.len() as u64);
            }
            encode_diff(&entries)?
        };
        let doc = json!({
            "approach": self.name(),
            "kind": "diff",
            "base": deriv.base.key,
            "n_models": set.len(),
            "n_changed_layers": changed.len(),
            "depth": depth,
        });
        let doc_id = common::insert_set_doc(env, &doc)?;
        {
            let _span = env.obs().span("blob_put");
            env.with_retry(|| env.blobs().put(&layout::diff_key(doc_id), &diff_blob))?;
            Self::put_hash_table(env, doc_id, &hashes)?;
        }
        common::commit_set(env, self.name(), doc_id)
    }

    fn recover_set(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<ModelSet> {
        self.recover(env, id, None)
    }

    fn recover_models(
        &self,
        env: &ManagementEnv,
        id: &ModelSetId,
        indices: &[usize],
    ) -> Result<Vec<ParamDict>> {
        Ok(self.recover(env, id, Some(indices))?.models)
    }
}

impl UpdateSaver {
    /// Recover several sets at once, memoizing shared chain prefixes.
    ///
    /// Recovering a history `U1, U3-1, …, U3-k` individually costs
    /// `Θ(k²)` diff applications (each set replays its whole chain);
    /// this entry point materializes each chain node once and reuses it,
    /// costing `Θ(k)` — the batch-recovery optimization an analyst
    /// loading a whole timeline wants. Trades memory (one cached set
    /// per distinct chain node) for store round-trips and compute.
    pub fn recover_many(&self, env: &ManagementEnv, ids: &[ModelSetId]) -> Result<Vec<ModelSet>> {
        let mut cache: HashMap<u64, ModelSet> = HashMap::new();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            common::guard(env, self.name(), id)?;
            // Walk back only until a cached node (or the full snapshot).
            let start = common::doc_id_of(id)?;
            let walk = common::walk(
                env,
                start,
                |node| cache.contains_key(&node),
                parse_diff_level,
            )?;
            let mut set = match &walk.full {
                Some(doc) => FullSnapshot::open(self.name(), walk.end, doc)?.read(env, None)?,
                None => cache[&walk.end].clone(),
            };
            cache.entry(walk.end).or_insert_with(|| set.clone());
            let slots = Slots::All(set.len());
            for &(doc_id, level) in walk.chain.iter().rev() {
                apply_diff_level(env, &mut set.models, &slots, doc_id, level)?;
                cache.insert(doc_id, set.clone());
            }
            out.push(set);
        }
        Ok(out)
    }
}

/// Parse one derived level's set document: how many entries does its
/// diff directory list?
fn parse_diff_level(doc: &Value) -> Result<usize> {
    let kind = doc.get("kind").and_then(Value::as_str).unwrap_or("?");
    if kind != "diff" {
        return Err(layout::unknown_kind("update", kind));
    }
    doc.get("n_changed_layers")
        .and_then(Value::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| Error::corrupt("diff set document without n_changed_layers"))
}

/// Apply one chain level's diff blob, in place, to the models `slots`
/// holds. The blob's directory says where each entry's payload lies. A
/// whole-set replay maps the blob once and reads every entry straight
/// from the map. A selection reads the directory with one ranged get,
/// then each run of adjacent selected entries with one more, so entries
/// of unselected models are never fetched.
fn apply_diff_level(
    env: &ManagementEnv,
    models: &mut [ParamDict],
    slots: &Slots,
    doc_id: u64,
    n_entries: usize,
) -> Result<()> {
    let _span = env.obs().span("diff_apply");
    let key = layout::diff_key(doc_id);
    // Byte pieces of the blob, by start offset, covering every picked entry.
    let (picked, pieces) = match slots {
        Slots::All(_) => {
            let blob = env.blobs().get_mapped(&key)?;
            let dir = parse_diff_directory(&blob, blob.len() as u64)?;
            (pick(slots, n_entries, dir)?, vec![(0, blob)])
        }
        Slots::Picked(_) => {
            // The size is metadata (uncharged): checking the directory
            // against it keeps a truncated or inflated blob `Corrupt`.
            let size = env.blobs().size(&key)?;
            let head_len = (diff_directory_len(n_entries)? as u64).min(size) as usize;
            let head = env.blobs().get_range(&key, 0, head_len)?;
            let dir = parse_diff_directory(&head, size)?;
            let picked = pick(slots, n_entries, dir)?;
            let runs = runs(&picked);
            let pieces = env.run_parallel(runs.len(), |r| {
                let run = &runs[r];
                let bytes = env.blobs().get_range(&key, run.start as u64, run.len())?;
                Ok((run.start, BlobBytes::from_vec(bytes)))
            })?;
            (picked, pieces)
        }
    };
    // Every picked entry lies inside one piece: the map, or its run. A
    // short read leaves it outside.
    let payload = |e: &DiffSlot| -> Result<&[u8]> {
        let p = pieces.partition_point(|(start, _)| *start <= e.range.start);
        p.checked_sub(1)
            .map(|p| &pieces[p])
            .and_then(|(start, bytes)| bytes.get(e.range.start - start..e.range.end - start))
            .ok_or_else(|| Error::corrupt("diff entry past the bytes read"))
    };
    // Each picked entry is copied straight into the layer it overwrites.
    for (slot, e) in &picked {
        let layer = models[*slot]
            .layers
            .get_mut(e.layer_idx as usize)
            .ok_or_else(|| layer_out_of_range(e.model_idx, e.layer_idx))?;
        let bytes = payload(e)?;
        codec::f32s_into(&mut layer.data, bytes).map_err(|_| {
            Error::corrupt(format!(
                "diff entry for model {} layer {} has {} params, expected {}",
                e.model_idx,
                e.layer_idx,
                bytes.len() / 4,
                layer.data.len()
            ))
        })?;
    }
    Ok(())
}

/// The directory entries whose model is being recovered, each with its
/// slot. The directory must list exactly the `n_entries` its set
/// document counted.
fn pick(slots: &Slots, n_entries: usize, dir: Vec<DiffSlot>) -> Result<Vec<(usize, DiffSlot)>> {
    if dir.len() != n_entries {
        return Err(Error::corrupt(format!(
            "diff directory lists {} entries, its set document {n_entries}",
            dir.len()
        )));
    }
    let mut picked = Vec::new();
    for e in dir {
        if let Some(slot) = slots.of(e.model_idx as usize)? {
            picked.push((slot, e));
        }
    }
    Ok(picked)
}

/// Byte ranges covering `picked`, in blob order: entries that are
/// adjacent in the blob share one range.
fn runs(picked: &[(usize, DiffSlot)]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (_, e) in picked {
        match runs.last_mut() {
            Some(run) if run.end == e.range.start => run.end = e.range.end,
            _ => runs.push(e.range.clone()),
        }
    }
    runs
}

fn layer_out_of_range(model_idx: u32, layer_idx: u32) -> Error {
    Error::corrupt(format!(
        "diff layer index ({model_idx}, {layer_idx}) out of range"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_dnn::{Architectures, TrainConfig};
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n)
            .map(|i| arch.build(seed * 1000 + i as u64).export_param_dict())
            .collect();
        ModelSet::new(arch, models)
    }

    /// Mutate `which` models: full (all layers) or partial (layer 1 only).
    fn mutate(set: &ModelSet, full: &[usize], partial: &[usize]) -> ModelSet {
        let mut s = set.clone();
        for &i in full {
            for l in &mut s.models[i].layers {
                for v in &mut l.data {
                    *v += 0.25;
                }
            }
        }
        for &i in partial {
            for v in &mut s.models[i].layers[1].data {
                *v -= 0.125;
            }
        }
        s
    }

    fn deriv(base: &ModelSetId) -> Derivation {
        Derivation {
            base: base.clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        }
    }

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-update").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    #[test]
    fn initial_roundtrip() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s = set(8, 0);
        let id = saver.save_initial(&env, &s).unwrap();
        assert_eq!(saver.recover_set(&env, &id).unwrap(), s);
    }

    #[test]
    fn derived_set_roundtrips_through_diffs() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(10, 0);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let s1 = mutate(&s0, &[0, 1], &[5]);
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        assert_eq!(saver.recover_set(&env, &id1).unwrap(), s1);
        // The base remains recoverable unchanged.
        assert_eq!(saver.recover_set(&env, &id0).unwrap(), s0);
    }

    #[test]
    fn diff_stores_only_changed_layers() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(10, 1);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let s1 = mutate(&s0, &[3], &[7]);
        let (_, m) = env.measure(|| saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap());
        // Full model = 4 layers, partial = 1 layer ⇒ 5 changed layers.
        let arch = &s0.arch;
        let sizes = arch.parametric_layer_sizes();
        let changed_params: usize = sizes.iter().sum::<usize>() + sizes[1];
        let hash_bytes = 16 + 8 * 10 * sizes.len();
        let expected_payload = 4 * changed_params + hash_bytes;
        assert!(
            m.bytes_written() < (expected_payload + 2_000) as u64,
            "wrote {} bytes, payload should be ≈{expected_payload}",
            m.bytes_written()
        );
        // Far less than a full snapshot.
        assert!(m.bytes_written() < (4 * s0.total_params() / 2) as u64);
    }

    #[test]
    fn unchanged_set_writes_empty_diff() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(6, 2);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let id1 = saver.save_set(&env, &s0, Some(&deriv(&id0))).unwrap();
        assert_eq!(saver.recover_set(&env, &id1).unwrap(), s0);
        let doc = env.docs().get(common::SETS_COLLECTION, common::doc_id_of(&id1).unwrap()).unwrap();
        assert_eq!(doc["n_changed_layers"], 0);
    }

    #[test]
    fn chain_of_three_recovers_each_level() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(6, 3);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let s1 = mutate(&s0, &[0], &[1]);
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        let s2 = mutate(&s1, &[2], &[0]);
        let id2 = saver.save_set(&env, &s2, Some(&deriv(&id1))).unwrap();
        assert_eq!(saver.recover_set(&env, &id0).unwrap(), s0);
        assert_eq!(saver.recover_set(&env, &id1).unwrap(), s1);
        assert_eq!(saver.recover_set(&env, &id2).unwrap(), s2);
    }

    #[test]
    fn recovery_cost_grows_with_chain_depth() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(5, 4);
        let mut ids = vec![saver.save_initial(&env, &s).unwrap()];
        for i in 0..3 {
            s = mutate(&s, &[i % 5], &[]);
            let d = deriv(ids.last().unwrap());
            ids.push(saver.save_set(&env, &s, Some(&d)).unwrap());
        }
        let ops: Vec<u64> = ids
            .iter()
            .map(|id| {
                let (_, m) = env.measure(|| saver.recover_set(&env, id).unwrap());
                m.stats.total_ops()
            })
            .collect();
        for w in ops.windows(2) {
            assert!(w[1] > w[0], "staircase: {ops:?}");
        }
    }

    #[test]
    fn recover_many_matches_individual_recovery_with_fewer_ops() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(8, 20);
        let mut ids = vec![saver.save_initial(&env, &s).unwrap()];
        let mut snaps = vec![s.clone()];
        for i in 0..5 {
            s = mutate(&s, &[i % 8], &[(i + 3) % 8]);
            let d = deriv(ids.last().unwrap());
            ids.push(saver.save_set(&env, &s, Some(&d)).unwrap());
            snaps.push(s.clone());
        }

        let (individual, m_ind) = env.measure(|| {
            ids.iter().map(|id| saver.recover_set(&env, id).unwrap()).collect::<Vec<_>>()
        });
        let (batched, m_batch) = env.measure(|| saver.recover_many(&env, &ids).unwrap());
        assert_eq!(individual, batched);
        assert_eq!(batched, snaps);
        assert!(
            m_batch.stats.total_ops() < m_ind.stats.total_ops(),
            "batch {} ops vs individual {}",
            m_batch.stats.total_ops(),
            m_ind.stats.total_ops()
        );
    }

    #[test]
    fn full_snapshot_every_bounds_recursion() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::with_full_snapshot_every(2);
        let mut s = set(5, 5);
        let mut last = saver.save_initial(&env, &s).unwrap();
        let mut ids = vec![last.clone()];
        for i in 0..4 {
            s = mutate(&s, &[i % 5], &[]);
            let d = deriv(&last);
            last = saver.save_set(&env, &s, Some(&d)).unwrap();
            ids.push(last.clone());
        }
        // Depth-2 and depth-4 saves are full snapshots: recovery of the
        // last set needs at most 1 diff application.
        let (recovered, m) = env.measure(|| saver.recover_set(&env, &last).unwrap());
        assert_eq!(recovered, s);
        // Commit check + full-snapshot doc (+ slack for one diff level).
        assert!(m.stats.doc_queries <= 3, "snapshotting must cap the chain, got {:?}", m.stats);
    }

    /// Mutate a *sparse subset* of one layer's parameters: one changed
    /// layer of one model.
    fn mutate_sparse(set: &ModelSet, model: usize, every: usize) -> ModelSet {
        let mut s = set.clone();
        for (i, v) in s.models[model].layers[1].data.iter_mut().enumerate() {
            if i % every == 0 {
                *v += 0.5;
            }
        }
        s
    }

    #[test]
    fn base_doc_without_depth_is_corrupt_not_depth_zero() {
        // A base document missing its depth field must surface as
        // corruption, not be silently treated as a fresh depth-0 chain
        // (which would wreck snapshot cadence and lineage queries).
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(5, 30);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let base_id = common::doc_id_of(&id0).unwrap();

        // Clone the committed base into a new doc id, dropping "depth",
        // and mirror its blobs so everything else about it is valid.
        let mut doc = env.docs().get(common::SETS_COLLECTION, base_id).unwrap();
        let obj = doc.as_object_mut().unwrap();
        obj.remove("depth");
        obj.remove("_id");
        let new_id = env.docs().insert(common::SETS_COLLECTION, doc).unwrap();
        let params = env.blobs().get(&common::params_key("update", base_id)).unwrap();
        env.blobs().put(&common::params_key("update", new_id), &params).unwrap();
        let hashes = env.blobs().get(&layout::hashes_key(base_id)).unwrap();
        env.blobs()
            .put(&layout::hashes_key(new_id), &hashes)
            .unwrap();
        let fake = ModelSetId {
            approach: saver.name().into(),
            key: new_id.to_string(),
        };
        commit::commit_save(&env, &fake).unwrap();

        let s1 = mutate(&s0, &[0], &[]);
        let err = saver.save_set(&env, &s1, Some(&deriv(&fake))).unwrap_err();
        assert!(
            err.to_string().contains("depth"),
            "expected corrupt-depth error, got: {err}"
        );
    }

    #[test]
    fn corrupt_diff_entries_are_errors_in_selective_recovery() {
        // A diff entry that disagrees with the layer it overwrites must
        // come back as Error::Corrupt, never a panic or silent truncation.
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(6, 31);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let s1 = mutate_sparse(&s0, 0, 4);
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        let key = layout::diff_key(common::doc_id_of(&id1).unwrap());
        let put_entry = |model_idx, layer_idx, data| {
            let entry = DiffEntry {
                model_idx,
                layer_idx,
                data,
            };
            env.blobs()
                .put(&key, &encode_diff(&[entry]).unwrap())
                .unwrap();
        };

        // (a) Payload sized for the wrong layer length.
        put_entry(0, 1, vec![1.5, 2.0, 3.0]);
        let err = saver.recover_models(&env, &id1, &[0]).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got: {err}");

        // (b) Layer index out of range must hit the checked access.
        put_entry(0, 99, vec![2.0]);
        let err = saver.recover_models(&env, &id1, &[0]).unwrap_err();
        assert!(
            err.to_string().contains("layer index"),
            "expected out-of-range error, got: {err}"
        );

        // (c) Models outside the selection still skip foreign entries.
        put_entry(5, 99, vec![]);
        assert!(saver.recover_models(&env, &id1, &[0]).is_ok());
    }

    /// Damage on the diff read path comes back as `Corrupt`, never as a
    /// panic or as the `Invalid` of an out-of-range ranged read, in
    /// whole and selective recovery alike: a bit-flipped read (`Ok` is
    /// allowed there, since the format has no checksum to see a flip
    /// in a payload), a directory whose count disagrees with the set
    /// document, entries that run past the blob, and trailing bytes.
    /// The fault injector turns a torn read into a failed one, so that
    /// case must fail as an I/O error.
    #[test]
    fn damaged_diff_reads_are_corrupt_never_a_panic() {
        use mmm_store::{FaultMode, FaultPlan, FaultTarget, OpClass};
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s0 = set(8, 40);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let s1 = mutate_sparse(&mutate(&s0, &[2], &[6]), 5, 3);
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        let pick = [5, 0, 2];
        let whole = || saver.recover_set(&env, &id1).map(|s| s.models);
        let selective = || saver.recover_models(&env, &id1, &pick);
        let picked: Vec<ParamDict> = pick.iter().map(|&i| s1.models[i].clone()).collect();
        assert_eq!(whole().unwrap(), s1.models);
        assert_eq!(selective().unwrap(), picked);

        let recoveries: [&dyn Fn() -> Result<Vec<ParamDict>>; 2] = [&whole, &selective];
        for recover in recoveries {
            let (_, m) = env.measure(recover);
            for k in 0..m.stats.blob_gets {
                let get = FaultTarget::Class(OpClass::BlobGet);
                for plan in [
                    FaultPlan::torn_write_at(get, k, 3),
                    FaultPlan::bit_flip_at(get, k, 1, k),
                ] {
                    env.faults().arm(plan);
                    let got = recover();
                    env.faults().disarm_all();
                    match (got, plan.mode) {
                        (Ok(_) | Err(Error::Corrupt(_)), FaultMode::BitFlip { .. }) => {}
                        (Err(Error::Io(_)), FaultMode::TornWrite { .. }) => {}
                        (got, mode) => panic!("{mode:?} at get {k}: {got:?}"),
                    }
                }
            }
        }

        let key = layout::diff_key(common::doc_id_of(&id1).unwrap());
        let blob = env.blobs().get(&key).unwrap();
        let dir = parse_diff_directory(&blob, blob.len() as u64).unwrap();
        let n = dir.len();
        // A well-formed directory one entry short of the document's count.
        let mut short = blob[..4].to_vec();
        short.extend_from_slice(&(n as u32 - 1).to_le_bytes());
        short.extend_from_slice(&blob[8..8 + 12 * (n - 1)]);
        short.extend_from_slice(&blob[8 + 12 * n..dir[n - 1].range.start]);
        // The last entry claims one more element than the blob holds.
        let mut past_end = blob.clone();
        let count = 8 + 12 * (n - 1) + 8;
        let claimed = u32::from_le_bytes(blob[count..count + 4].try_into().unwrap()) + 1;
        past_end[count..count + 4].copy_from_slice(&claimed.to_le_bytes());
        let truncated = blob[..blob.len() - 1].to_vec();
        let trailing = [&blob[..], &[0]].concat();
        for bad in [short, past_end, truncated, trailing] {
            env.blobs().put(&key, &bad).unwrap();
            for recover in recoveries {
                let got = recover();
                assert!(matches!(got, Err(Error::Corrupt(_))), "got {got:?}");
            }
        }
    }

    #[test]
    fn base_model_count_mismatch_is_rejected() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let id0 = saver.save_initial(&env, &set(5, 6)).unwrap();
        let bigger = set(6, 6);
        assert!(saver.save_set(&env, &bigger, Some(&deriv(&id0))).is_err());
    }

    #[test]
    fn foreign_base_approach_is_rejected() {
        let (_d, env) = env();
        let mut saver = UpdateSaver::new();
        let s = set(4, 7);
        let foreign = ModelSetId { approach: "baseline".into(), key: "0".into() };
        let d = Derivation {
            base: foreign,
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        assert!(saver.save_set(&env, &s, Some(&d)).is_err());
    }
}

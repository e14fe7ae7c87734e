//! Portable archive bundles: export a saved model set (with its whole
//! recovery chain) into one self-contained byte blob, and import it into
//! another environment.
//!
//! The paper's deployment story has models saved at the edge (vehicles)
//! and analyzed centrally ("recover a selected number of models, for
//! example, after an accident") — which needs exactly this: moving one
//! set's lineage out of the fleet store and into an analyst's
//! environment without copying the other 4 999 models' history.
//!
//! Format (little-endian, see [`export_set`]): magic `MMBN`, version,
//! the set id, then the chain's documents (as JSON strings keyed by
//! their original doc ids) and blobs (keyed by store key). Import
//! re-inserts documents (ids change!) and rewrites base references and
//! blob keys accordingly.

use std::collections::HashMap;

use crate::approach::common;
use crate::commit;
use crate::env::ManagementEnv;
use crate::layout;
use crate::lineage::lineage;
use crate::model_set::ModelSetId;
use mmm_util::codec::{put_str, put_u32, Reader};
use mmm_util::{Error, Result};
use serde_json::Value;

const MAGIC: &[u8; 4] = b"MMBN";
const VERSION: u32 = 1;

/// Export a saved set and its full recovery chain as one byte bundle.
///
/// Supported for the set-oriented approaches (baseline, update,
/// provenance). Provenance bundles carry the *records*, not the
/// referenced datasets — the import environment needs a registry holding
/// them (the paper's externally-persisted-data assumption).
pub fn export_set(env: &ManagementEnv, id: &ModelSetId) -> Result<Vec<u8>> {
    if id.approach == "mmlib-base" {
        return Err(Error::invalid(
            "mmlib-base sets are per-model artifacts; export is supported for set-oriented approaches",
        ));
    }
    commit::require_committed(env, id)?;
    let chain = lineage(env, id)?;

    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_str(&mut buf, &id.approach);
    // Chain nodes, newest first (as lineage returns them).
    put_u32(&mut buf, chain.len() as u32);
    for node in &chain {
        let doc_id = common::doc_id_of(&node.id)?;
        let doc = env.docs().get(common::SETS_COLLECTION, doc_id)?;
        put_str(&mut buf, &node.id.key);
        put_str(&mut buf, &node.kind);
        put_str(&mut buf, &doc.to_string());
        let keys = layout::node_blob_keys(&id.approach, &node.kind, doc_id)?;
        put_u32(&mut buf, keys.len() as u32);
        for key in keys {
            let blob = env.blobs().get(&key)?;
            put_str(&mut buf, &key);
            put_u32(&mut buf, blob.len() as u32);
            buf.extend_from_slice(&blob);
        }
    }
    Ok(buf)
}

/// Import a bundle into `env`, returning the new id of the bundled set.
/// Documents get fresh ids; base references and blob keys are rewritten.
pub fn import_set(env: &ManagementEnv, bundle: &[u8]) -> Result<ModelSetId> {
    let mut r = Reader::new(bundle);
    if r.bytes(4)? != MAGIC {
        return Err(Error::corrupt("bad bundle magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(Error::corrupt(format!("unsupported bundle version {version}")));
    }
    let approach = r.str()?;
    let n_nodes = r.u32()? as usize;

    struct Node {
        old_key: String,
        doc: Value,
        blobs: Vec<(String, Vec<u8>)>,
    }
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let old_key = r.str()?;
        let _kind = r.str()?;
        let doc: Value = serde_json::from_str(&r.str()?)
            .map_err(|e| Error::corrupt(format!("bad document in bundle: {e}")))?;
        let n_blobs = r.u32()? as usize;
        let mut blobs = Vec::with_capacity(n_blobs);
        for _ in 0..n_blobs {
            let key = r.str()?;
            let len = r.u32()? as usize;
            blobs.push((key, r.bytes(len)?.to_vec()));
        }
        nodes.push(Node { old_key, doc, blobs });
    }
    if r.remaining() != 0 {
        return Err(Error::corrupt("trailing bytes after bundle"));
    }

    // Insert oldest (the full snapshot) first so base references can be
    // rewritten to the new ids as we go.
    let mut id_map: HashMap<String, String> = HashMap::new();
    let mut newest_new_key = None;
    for node in nodes.iter().rev() {
        let mut doc = node.doc.clone();
        if let Some(base) = doc.get("base").and_then(Value::as_str) {
            let new_base = id_map
                .get(base)
                .ok_or_else(|| Error::corrupt("bundle chain references a base outside the bundle"))?;
            doc.as_object_mut()
                .ok_or_else(|| Error::corrupt("set document in bundle is not an object"))?
                .insert("base".into(), Value::String(new_base.clone()));
        }
        let new_id = env.with_retry(|| env.docs().insert(common::SETS_COLLECTION, doc.clone()))?;
        for (old_blob_key, bytes) in &node.blobs {
            // Rewrite "…/<old doc id>/<artifact>" to the new doc id.
            let artifact = old_blob_key
                .rsplit('/')
                .next()
                .ok_or_else(|| Error::corrupt("malformed blob key in bundle"))?;
            let key = format!("{}/{artifact}", layout::doc_dir(&approach, new_id));
            env.with_retry(|| env.blobs().put(&key, bytes))?;
        }
        // Every chain node is a recoverable set in its own right, so
        // each gets its own commit record — a crash mid-import leaves a
        // committed prefix of the chain plus invisible debris, never a
        // half-visible set.
        commit::commit_save(env, &layout::set_id(&approach, new_id))?;
        id_map.insert(node.old_key.clone(), new_id.to_string());
        newest_new_key = Some(new_id.to_string());
    }

    Ok(ModelSetId {
        approach,
        key: newest_new_key.ok_or_else(|| Error::corrupt("empty bundle"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::{BaselineSaver, ModelSetSaver, ProvenanceSaver, UpdateSaver};
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
        let dir = TempDir::new("mmm-bundle").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    fn deriv(base: &ModelSetId) -> Derivation {
        Derivation { base: base.clone(), train: TrainConfig::regression_default(0), updates: vec![] }
    }

    #[test]
    fn baseline_bundle_roundtrips_across_environments() {
        let (_d1, src) = env();
        let (_d2, dst) = env();
        let s = set(6, 0);
        let id = BaselineSaver::new().save_initial(&src, &s).unwrap();
        let bundle = export_set(&src, &id).unwrap();
        let new_id = import_set(&dst, &bundle).unwrap();
        assert_eq!(BaselineSaver::new().recover_set(&dst, &new_id).unwrap(), s);
    }

    #[test]
    fn update_chain_bundle_carries_the_whole_lineage() {
        let (_d1, src) = env();
        let (_d2, dst) = env();
        let mut saver = UpdateSaver::new();
        let mut s = set(5, 1);
        let mut ids = vec![saver.save_initial(&src, &s).unwrap()];
        for i in 0..3 {
            s.models[i % 5].layers[1].data[0] += 0.5;
            let snap = ModelSet::new(s.arch.clone(), s.models.clone());
            let d = deriv(ids.last().unwrap());
            ids.push(saver.save_set(&src, &snap, Some(&d)).unwrap());
        }
        let bundle = export_set(&src, ids.last().unwrap()).unwrap();
        // The destination already has unrelated sets, so doc ids shift.
        BaselineSaver::new().save_initial(&dst, &set(3, 99)).unwrap();
        let new_id = import_set(&dst, &bundle).unwrap();
        let recovered = saver.recover_set(&dst, &new_id).unwrap();
        assert_eq!(recovered, s);
        // The whole chain arrived: depth preserved.
        assert_eq!(crate::lineage::recovery_depth(&dst, &new_id).unwrap(), 3);
    }

    #[test]
    fn provenance_bundle_needs_the_datasets() {
        use mmm_battery::cycles::CycleConfig;
        use mmm_battery::data::CellDataConfig;
        use mmm_data::battery_ds::battery_dataset;
        use crate::apply_update::apply_update;
        use crate::model_set::{ModelUpdate, UpdateKind};

        let (_d1, src) = env();
        let (_d2, dst) = env();
        let mut saver = ProvenanceSaver::new();
        let s0 = set(4, 2);
        let id0 = saver.save_initial(&src, &s0).unwrap();

        let cfg = CellDataConfig {
            cycle: CycleConfig { duration_s: 120, load_scale: 1.0 },
            n_cycles: 1,
            sample_every: 4,
            ..CellDataConfig::default()
        };
        let ds = battery_dataset(&cfg, 0, 1, 7);
        let dref = src.registry().put(&ds).unwrap();
        let train = TrainConfig { epochs: 1, ..TrainConfig::regression_default(0) };
        let u = ModelUpdate { model_idx: 0, kind: UpdateKind::Full, dataset: dref, seed: 5 };
        let mut s1 = s0.clone();
        s1.models[0] = apply_update(&s0.arch, &s0.models[0], &u, &train, &ds);
        let d = Derivation { base: id0, train, updates: vec![u] };
        let id1 = saver.save_set(&src, &s1, Some(&d)).unwrap();

        let bundle = export_set(&src, &id1).unwrap();
        let new_id = import_set(&dst, &bundle).unwrap();
        // Without the dataset, recovery fails loudly…
        assert!(saver.recover_set(&dst, &new_id).is_err());
        // …after registering the externally-persisted data, it succeeds.
        dst.registry().put(&ds).unwrap();
        assert_eq!(saver.recover_set(&dst, &new_id).unwrap(), s1);
    }

    #[test]
    fn mmlib_export_is_rejected() {
        let (_d, e) = env();
        let id = ModelSetId { approach: "mmlib-base".into(), key: "0:3".into() };
        assert!(matches!(export_set(&e, &id), Err(Error::Invalid(_))));
    }

    #[test]
    fn corrupt_bundle_is_rejected() {
        let (_d1, src) = env();
        let (_d2, dst) = env();
        let id = BaselineSaver::new().save_initial(&src, &set(3, 4)).unwrap();
        let mut bundle = export_set(&src, &id).unwrap();
        assert!(import_set(&dst, b"NOPE").is_err());
        let n = bundle.len();
        bundle.truncate(n - 3);
        assert!(import_set(&dst, &bundle).is_err());
    }

    #[test]
    fn bundle_size_is_dominated_by_parameters() {
        let (_d, src) = env();
        let s = set(10, 5);
        let id = BaselineSaver::new().save_initial(&src, &s).unwrap();
        let bundle = export_set(&src, &id).unwrap();
        let raw = 4 * s.total_params();
        assert!(bundle.len() >= raw);
        assert!(bundle.len() < raw + 8_192, "bundle framing must stay small");
    }
}

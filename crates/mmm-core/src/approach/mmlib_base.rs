//! The **MMlib-base** reference approach (paper §2.2, evaluated §4).
//!
//! MMlib's baseline saves *single* models: each model gets its own
//! metadata document (architecture, layer names), its own verbose
//! parameter-dict blob, its own code snapshot, and its own environment
//! snapshot. Saving a set of `n` models therefore costs `Θ(n)` document
//! writes and `3 Θ(n)` blob writes, and ~8 KB/model of redundant
//! metadata — exactly the behaviour the paper's optimized approaches
//! remove. We implement it faithfully as the comparison point.

use crate::approach::{common, ModelSetSaver};
use crate::artifacts::{environment_info, model_code};
use crate::commit;
use crate::env::ManagementEnv;
use crate::layout::{self, MmlibBatch, MODELS_COLLECTION};
use crate::model_set::{Derivation, ModelSet, ModelSetId};
use crate::param_codec::{decode_verbose_dict, encode_verbose_dict};
use mmm_dnn::ParamDict;
use mmm_util::{Error, Result};
use serde_json::{json, Value};

/// Saver implementing MMlib's single-model baseline. Stateless.
#[derive(Debug, Default, Clone)]
pub struct MmlibBaseSaver;

impl MmlibBaseSaver {
    /// Create an MMlib-base saver.
    pub fn new() -> Self {
        MmlibBaseSaver
    }
}

impl ModelSetSaver for MmlibBaseSaver {
    fn name(&self) -> &'static str {
        "mmlib-base"
    }

    fn save_set(
        &mut self,
        env: &ManagementEnv,
        set: &ModelSet,
        _derivation: Option<&Derivation>,
    ) -> Result<ModelSetId> {
        // MMlib-base has no set concept: derived sets are saved exactly
        // like initial ones, model by model.
        let code = model_code(&set.arch);
        let env_info = environment_info();
        let arch_json = serde_json::to_value(&set.arch)
            .map_err(|e| Error::invalid(format!("unserializable architecture spec: {e}")))?;

        let make_doc = |head: bool| {
            // One metadata document per model, repeating the architecture
            // and layer names every time (the redundancy of O1). The
            // first document of a save carries a batch-head marker so
            // catalog tooling can group the per-model rows back into
            // their save batches.
            json!({
                "approach": self.name(),
                "arch": arch_json.clone(),
                "arch_name": set.arch.name,
                "layer_names": set.arch.parametric_layer_names(),
                "layer_sizes": set.arch.parametric_layer_sizes(),
                "batch_head": head,
            })
        };
        let put_blobs = |doc_id: u64, params: &[u8]| -> Result<()> {
            let keys = layout::mmlib_row_keys(doc_id);
            let payloads = [params, code.as_bytes(), env_info.as_bytes()];
            for (key, bytes) in keys.iter().zip(payloads) {
                env.with_retry(|| env.blobs().put(key, bytes))?;
            }
            Ok(())
        };
        let mut first = None;
        if env.threads() <= 1 {
            for dict in set.models() {
                let doc = make_doc(first.is_none());
                let doc_id = {
                    let _span = env.obs().span("doc_insert");
                    env.with_retry(|| env.docs().insert(MODELS_COLLECTION, doc.clone()))?
                };
                first.get_or_insert(doc_id);
                let _span = env.obs().span("encode_put");
                let params = {
                    let _s = env.obs().span("encode");
                    encode_verbose_dict(dict)?
                };
                let _s = env.obs().span("blob_put");
                put_blobs(doc_id, &params)?;
            }
        } else {
            // Parallel save keeps the document inserts sequential — the
            // batch id range must stay dense and in model order — and fans
            // the independent per-model encode + 3 blob puts out over the
            // thread budget.
            let mut doc_ids = Vec::with_capacity(set.len());
            for i in 0..set.len() {
                let doc = make_doc(i == 0);
                let doc_id = {
                    let _span = env.obs().span("doc_insert");
                    env.with_retry(|| env.docs().insert(MODELS_COLLECTION, doc.clone()))?
                };
                first.get_or_insert(doc_id);
                doc_ids.push(doc_id);
            }
            let models = set.models();
            let _span = env.obs().span("encode_put");
            env.run_parallel(models.len(), |i| {
                // Per-item spans need the item index: siblings without
                // one tie-break on open order, which races across lanes
                // and would make the trace nondeterministic.
                let params = {
                    let _s = env.obs().span_idx("encode", i as u64);
                    encode_verbose_dict(&models[i])?
                };
                let _s = env.obs().span_idx("blob_put", i as u64);
                put_blobs(doc_ids[i], &params)
            })?;
        }
        let first = first.ok_or_else(|| Error::invalid("cannot save an empty model set"))?;
        let count = set.len();
        let id = MmlibBatch { first, count }.id();
        // One commit record covers the whole batch: until it lands, every
        // per-model row above is invisible orphaned phase-one state.
        commit::commit_save(env, &id)?;
        Ok(id)
    }

    fn recover_set(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<ModelSet> {
        let MmlibBatch { first, count } = self.open(env, id)?;
        // One document query and one blob read per model — the Θ(n)
        // round-trips behind MMlib-base's TTR in Figure 5. Each model is
        // an independent pair of round-trips, so they fan out over the
        // environment's thread budget; only the first model's document
        // carries the architecture we need.
        let _span = env.obs().span("fetch_decode");
        let mut fetched = env.run_parallel(count, |i| {
            let (doc, dict) = Self::fetch_model(env, first + i as u64)?;
            Ok(((i == 0).then_some(doc), dict))
        })?;
        let head = fetched
            .first_mut()
            .and_then(|(doc, _)| doc.take())
            .ok_or_else(|| Error::invalid("empty model set id"))?;
        let arch = common::parse_arch(&head)?;
        let models = fetched.into_iter().map(|(_, dict)| dict).collect();
        Ok(ModelSet::new(arch, models))
    }

    /// Selective recovery is MMlib-base's natural strength: every model
    /// is its own artifact, so recovering `k` models costs exactly `k`
    /// document queries and `k` blob reads.
    fn recover_models(
        &self,
        env: &ManagementEnv,
        id: &ModelSetId,
        indices: &[usize],
    ) -> Result<Vec<mmm_dnn::ParamDict>> {
        let MmlibBatch { first, count } = self.open(env, id)?;
        let _span = env.obs().span("fetch_decode");
        env.run_parallel(indices.len(), |p| {
            let i = indices[p];
            if i >= count {
                return Err(Error::invalid(format!(
                    "model index {i} out of range for {count} models"
                )));
            }
            Ok(Self::fetch_model(env, first + i as u64)?.1)
        })
    }
}

impl MmlibBaseSaver {
    /// The shared recovery guard, then the id's batch.
    fn open(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<MmlibBatch> {
        // Parsed first, so a malformed key is `Invalid` rather than a
        // missing commit record.
        let batch = MmlibBatch::parse(&id.key);
        common::guard(env, self.name(), id)?;
        batch
    }

    /// One model's document and decoded parameters.
    fn fetch_model(env: &ManagementEnv, doc_id: u64) -> Result<(Value, ParamDict)> {
        let doc = env.docs().get(MODELS_COLLECTION, doc_id)?;
        let blob = env.blobs().get(&layout::mmlib_params_key(doc_id))?;
        Ok((doc, decode_verbose_dict(&blob)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_dnn::Architectures;
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n)
            .map(|i| arch.build(seed + i as u64).export_param_dict())
            .collect();
        ModelSet::new(arch, models)
    }

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-mmlib").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (_d, env) = env();
        let mut saver = MmlibBaseSaver::new();
        let s = set(7, 0);
        let id = saver.save_initial(&env, &s).unwrap();
        assert_eq!(saver.recover_set(&env, &id).unwrap(), s);
    }

    #[test]
    fn save_costs_linear_store_ops() {
        let (_d, env) = env();
        let mut saver = MmlibBaseSaver::new();
        let n = 20;
        let (_, m) = env.measure(|| saver.save_initial(&env, &set(n, 1)).unwrap());
        assert_eq!(m.stats.doc_inserts, n as u64 + 1, "one doc write per model + commit");
        assert_eq!(m.stats.blob_puts, 3 * n as u64, "params/code/env per model");
    }

    #[test]
    fn recover_costs_linear_store_ops() {
        let (_d, env) = env();
        let mut saver = MmlibBaseSaver::new();
        let n = 12;
        let id = saver.save_initial(&env, &set(n, 2)).unwrap();
        let (_, m) = env.measure(|| saver.recover_set(&env, &id).unwrap());
        assert_eq!(m.stats.doc_queries, n as u64 + 1, "per-model docs + commit check");
        assert_eq!(m.stats.blob_gets, n as u64);
    }

    #[test]
    fn per_model_overhead_is_kilobytes() {
        let (_d, env) = env();
        let mut saver = MmlibBaseSaver::new();
        let n = 10;
        let s = set(n, 3);
        let raw = 4 * s.total_params() as u64;
        let (_, m) = env.measure(|| saver.save_initial(&env, &s).unwrap());
        let overhead_per_model = (m.bytes_written() - raw) / n as u64;
        // Paper: ~8 KB/model of redundant data.
        assert!(
            (4_000..16_000).contains(&overhead_per_model),
            "overhead/model = {overhead_per_model} bytes"
        );
    }

    #[test]
    fn empty_set_is_rejected() {
        let (_d, env) = env();
        let mut saver = MmlibBaseSaver::new();
        let arch = Architectures::ffnn(6);
        let s = ModelSet::new(arch, vec![]);
        assert!(saver.save_initial(&env, &s).is_err());
    }

    #[test]
    fn malformed_key_is_invalid() {
        let (_d, env) = env();
        let saver = MmlibBaseSaver::new();
        for key in ["", "5", "a:b", "5:"] {
            let id = ModelSetId { approach: "mmlib-base".into(), key: key.into() };
            assert!(saver.recover_set(&env, &id).is_err(), "key {key:?}");
        }
    }

    #[test]
    fn two_sets_do_not_interfere() {
        let (_d, env) = env();
        let mut saver = MmlibBaseSaver::new();
        let s1 = set(3, 10);
        let s2 = set(4, 20);
        let id1 = saver.save_initial(&env, &s1).unwrap();
        let id2 = saver.save_initial(&env, &s2).unwrap();
        assert_eq!(saver.recover_set(&env, &id1).unwrap(), s1);
        assert_eq!(saver.recover_set(&env, &id2).unwrap(), s2);
    }
}

//! The **Provenance** approach (paper §3.4).
//!
//! Saves detailed provenance information *instead of* model parameters.
//! The initial set is stored with Baseline's logic. For derived sets it
//! persists, **once per set**: the metadata, the training configuration
//! and the environment info (optimization O2 — MMlib's provenance
//! approach repeated these per model); and **per updated model**: one
//! reference into the externally-persisted dataset registry plus the
//! update kind and seed. Two assumptions from the paper make this
//! sufficient: (1) the training procedure differs only by the used data,
//! and (2) the training data are saved regardless of model management.
//!
//! Recovery is recursive and compute-bound: recover the base set, then
//! *deterministically re-run training* for every recorded update via
//! [`crate::apply_update::apply_update`].

use crate::apply_update::apply_update;
use crate::approach::common::{self, Slots};
use crate::approach::ModelSetSaver;
use crate::artifacts::environment_info;
use crate::commit;
use crate::env::ManagementEnv;
use crate::layout;
use crate::model_set::{Derivation, ModelSet, ModelSetId, ModelUpdate, UpdateKind};
use mmm_data::registry::DatasetRef;
use mmm_dnn::{ArchitectureSpec, ParamDict, TrainConfig};
use mmm_util::{Error, Result};
use serde_json::{json, Value};

/// Saver implementing the Provenance approach. Stateless.
#[derive(Debug, Default, Clone)]
pub struct ProvenanceSaver;

impl ProvenanceSaver {
    /// Create a Provenance saver.
    pub fn new() -> Self {
        ProvenanceSaver
    }

    /// Serialize one update as a JSON line with a realistic URI-style
    /// dataset reference (what a production system would store: locator,
    /// checksum, sample count).
    fn update_line(u: &ModelUpdate) -> String {
        let layers = match &u.kind {
            UpdateKind::Full => Value::Null,
            UpdateKind::Partial { layers } => json!(layers),
        };
        json!({
            "model": u.model_idx,
            "layers": layers,
            "dataset_uri": format!("mmm://datasets/{}?samples={}", u.dataset.id, u.dataset.n_samples),
            "dataset_id": u.dataset.id,
            "dataset_samples": u.dataset.n_samples,
            "checksum": format!("xxh64:{}", u.dataset.id),
            "seed": u.seed,
        })
        .to_string()
    }

    fn parse_update_line(line: &str) -> Result<ModelUpdate> {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| Error::corrupt(format!("bad provenance update line: {e}")))?;
        let model_idx = v
            .get("model")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::corrupt("update line without model index"))? as usize;
        let kind = match v.get("layers") {
            None | Some(Value::Null) => UpdateKind::Full,
            Some(Value::Array(xs)) => UpdateKind::Partial {
                layers: xs
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .map(|u| u as usize)
                            .ok_or_else(|| Error::corrupt("non-integer layer index"))
                    })
                    .collect::<Result<Vec<_>>>()?,
            },
            Some(_) => return Err(Error::corrupt("malformed layers field")),
        };
        let dataset = DatasetRef {
            id: v
                .get("dataset_id")
                .and_then(Value::as_str)
                .ok_or_else(|| Error::corrupt("update line without dataset id"))?
                .to_string(),
            n_samples: v
                .get("dataset_samples")
                .and_then(Value::as_u64)
                .ok_or_else(|| Error::corrupt("update line without sample count"))? as usize,
        };
        let seed = v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::corrupt("update line without seed"))?;
        Ok(ModelUpdate { model_idx, kind, dataset, seed })
    }

    /// Fetch and parse the updates recorded for derived set `doc_id`.
    pub(crate) fn read_updates(env: &ManagementEnv, doc_id: u64) -> Result<Vec<ModelUpdate>> {
        let blob = env.blobs().get(&layout::updates_key(doc_id))?;
        let text = String::from_utf8(blob)
            .map_err(|_| Error::corrupt("provenance updates blob is not UTF-8"))?;
        text.lines()
            .filter(|l| !l.is_empty())
            .map(Self::parse_update_line)
            .collect()
    }
}

impl ModelSetSaver for ProvenanceSaver {
    fn name(&self) -> &'static str {
        "provenance"
    }

    fn save_set(
        &mut self,
        env: &ManagementEnv,
        set: &ModelSet,
        derivation: Option<&Derivation>,
    ) -> Result<ModelSetId> {
        let Some(deriv) = derivation else {
            // Initial set: complete representation using Baseline's logic.
            return common::save_full_snapshot(
                env,
                self.name(),
                &set.arch,
                set.len(),
                &[],
                common::records_of(set),
                |_| Ok(()),
            );
        };
        if deriv.base.approach != self.name() {
            return Err(Error::invalid(format!(
                "provenance sets must chain to provenance sets, got base {:?}",
                deriv.base.approach
            )));
        }
        commit::require_committed(env, &deriv.base)?;
        {
            let _span = env.obs().span("validate");
            for u in &deriv.updates {
                if u.model_idx >= set.len() {
                    return Err(Error::invalid(format!(
                        "update for model {} but the set has {} models",
                        u.model_idx,
                        set.len()
                    )));
                }
                if !env.registry().contains(&u.dataset) {
                    return Err(Error::invalid(format!(
                        "dataset {} is not in the registry; provenance assumes training data is persisted externally",
                        u.dataset.id
                    )));
                }
            }
        }

        // One metadata document per *set*: training info and environment
        // saved once (O2), not per model.
        let train_value = serde_json::to_value(deriv.train)
            .map_err(|e| Error::invalid(format!("unserializable train config: {e}")))?;
        let doc = json!({
            "approach": self.name(),
            "kind": "prov",
            "base": deriv.base.key,
            "n_models": set.len(),
            "n_updates": deriv.updates.len(),
            "train": train_value,
            "environment": environment_info(),
        });
        let doc_id = common::insert_set_doc(env, &doc)?;

        // One dataset reference per updated model.
        let mut lines = String::new();
        for u in &deriv.updates {
            lines.push_str(&Self::update_line(u));
            lines.push('\n');
        }
        {
            let _span = env.obs().span("blob_put");
            let key = layout::updates_key(doc_id);
            env.with_retry(|| env.blobs().put(&key, lines.as_bytes()))?;
        }
        common::commit_set(env, self.name(), doc_id)
    }

    fn recover_set(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<ModelSet> {
        self.recover(env, id, None)
    }

    /// Selective recovery: ranged reads of the selected models from the
    /// full snapshot, then replay **only those models'** recorded
    /// trainings — the big win for the paper's post-accident scenario,
    /// where retraining all 500 updated models to inspect 5 would waste
    /// hours of compute.
    fn recover_models(
        &self,
        env: &ManagementEnv,
        id: &ModelSetId,
        indices: &[usize],
    ) -> Result<Vec<ParamDict>> {
        Ok(self.recover(env, id, Some(indices))?.models)
    }
}

impl ProvenanceSaver {
    /// Whole-set (`None`) or selective recovery through the shared chain
    /// skeleton: the chain's full snapshot, then the recorded trainings
    /// replayed oldest → newest.
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
            parse_train_config,
            |arch, models, slots, doc_id, train| {
                retrain_level(env, arch, models, slots, doc_id, train)
            },
        )
    }
}

/// Parse one derived level's set document: the training configuration
/// its updates were run with.
fn parse_train_config(doc: &Value) -> Result<TrainConfig> {
    if doc.get("kind").and_then(Value::as_str) != Some("prov") {
        return Err(Error::corrupt(format!(
            "unknown set kind {:?}",
            doc.get("kind")
        )));
    }
    serde_json::from_value(
        doc.get("train")
            .cloned()
            .ok_or_else(|| Error::corrupt("provenance document without train config"))?,
    )
    .map_err(|e| Error::corrupt(format!("unparseable train config: {e}")))
}

/// Replay one chain level on the models `slots` holds: "update every
/// model by deterministically repeating its training on the associated
/// dataset". Chain levels are strictly ordered, but within one level
/// different models' retrainings are independent, so the recorded
/// updates are grouped per model (preserving each model's update order)
/// and the groups retrained across the thread budget — retraining
/// dominates Provenance's TTR, making this the approach's main parallel
/// win. Updates of models outside the selection are never run.
fn retrain_level(
    env: &ManagementEnv,
    arch: &ArchitectureSpec,
    models: &mut [ParamDict],
    slots: &Slots,
    doc_id: u64,
    train: &TrainConfig,
) -> Result<()> {
    let mut groups: Vec<(usize, Vec<ModelUpdate>)> = Vec::new();
    {
        let _span = env.obs().span("updates_fetch");
        for u in ProvenanceSaver::read_updates(env, doc_id)? {
            let Some(slot) = slots.of(u.model_idx)? else {
                continue;
            };
            match groups.iter_mut().find(|(s, _)| *s == slot) {
                Some((_, us)) => us.push(u),
                None => groups.push((slot, vec![u])),
            }
        }
    }
    let _span = env.obs().span("retrain");
    let retrained = env.run_parallel(groups.len(), |g| {
        let (slot, updates) = &groups[g];
        let mut model = models[*slot].clone();
        for u in updates {
            let dataset = env.registry().get(&u.dataset)?;
            model = apply_update(arch, &model, u, train, &dataset);
        }
        Ok((*slot, model))
    })?;
    for (slot, model) in retrained {
        models[slot] = model;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_battery::cycles::CycleConfig;
    use mmm_battery::data::CellDataConfig;
    use mmm_data::battery_ds::battery_dataset;
    use mmm_dnn::Architectures;
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn arch() -> mmm_dnn::ArchitectureSpec {
        Architectures::ffnn(6)
    }

    fn set(n: usize, seed: u64) -> ModelSet {
        let a = arch();
        let models = (0..n).map(|i| a.build(seed * 100 + i as u64).export_param_dict()).collect();
        ModelSet::new(a, models)
    }

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-prov").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    fn data_cfg() -> CellDataConfig {
        CellDataConfig {
            cycle: CycleConfig { duration_s: 120, load_scale: 1.0 },
            n_cycles: 1,
            sample_every: 4,
            ..CellDataConfig::default()
        }
    }

    /// Train some models of `base` forward, registering the datasets, and
    /// return the derived set plus its derivation record.
    fn derive(
        env: &ManagementEnv,
        base: &ModelSet,
        base_id: &ModelSetId,
        updates_spec: &[(usize, UpdateKind)],
        uc: u64,
    ) -> (ModelSet, Derivation) {
        let train = TrainConfig { epochs: 1, ..TrainConfig::regression_default(0) };
        let mut out = base.clone();
        let mut updates = Vec::new();
        for (mi, kind) in updates_spec {
            let ds = battery_dataset(&data_cfg(), *mi as u64, uc, 42);
            let dref = env.registry().put(&ds).unwrap();
            let u = ModelUpdate {
                model_idx: *mi,
                kind: kind.clone(),
                dataset: dref,
                seed: 1000 + *mi as u64,
            };
            out.models[*mi] = apply_update(&base.arch, &base.models[*mi], &u, &train, &ds);
            updates.push(u);
        }
        let deriv = Derivation { base: base_id.clone(), train, updates };
        (out, deriv)
    }

    #[test]
    fn initial_roundtrip() {
        let (_d, env) = env();
        let mut saver = ProvenanceSaver::new();
        let s = set(6, 0);
        let id = saver.save_initial(&env, &s).unwrap();
        assert_eq!(saver.recover_set(&env, &id).unwrap(), s);
    }

    #[test]
    fn derived_set_recovers_bit_exactly_by_retraining() {
        let (_d, env) = env();
        let mut saver = ProvenanceSaver::new();
        let s0 = set(6, 1);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let (s1, d1) = derive(&env, &s0, &id0, &[(0, UpdateKind::Full), (3, UpdateKind::Partial { layers: vec![1] })], 1);
        let id1 = saver.save_set(&env, &s1, Some(&d1)).unwrap();
        let recovered = saver.recover_set(&env, &id1).unwrap();
        assert_eq!(recovered, s1, "replayed training must be bit-identical");
    }

    #[test]
    fn derived_save_is_tiny_and_constant_ops() {
        let (_d, env) = env();
        let mut saver = ProvenanceSaver::new();
        let s0 = set(10, 2);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let (s1, d1) = derive(&env, &s0, &id0, &[(1, UpdateKind::Full), (2, UpdateKind::Full)], 1);
        let (_, m) = env.measure(|| saver.save_set(&env, &s1, Some(&d1)).unwrap());
        assert_eq!(m.stats.doc_inserts, 2, "set doc + commit record");
        assert_eq!(m.stats.blob_puts, 1);
        // Constant-size: one doc (train config + environment, ~5 KB) and
        // one small updates blob — independent of the set's parameter
        // volume. At the paper's 5000-model scale this is ~0.1 % of a
        // full snapshot; this toy set just checks the constant bound.
        assert!(m.bytes_written() < 12_000, "wrote {} bytes", m.bytes_written());
    }

    #[test]
    fn two_level_chain_replays_in_order() {
        let (_d, env) = env();
        let mut saver = ProvenanceSaver::new();
        let s0 = set(5, 3);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let (s1, d1) = derive(&env, &s0, &id0, &[(0, UpdateKind::Full)], 1);
        let id1 = saver.save_set(&env, &s1, Some(&d1)).unwrap();
        // Model 0 updated again on new data — order of replay matters.
        let (s2, d2) = derive(&env, &s1, &id1, &[(0, UpdateKind::Full), (4, UpdateKind::Full)], 2);
        let id2 = saver.save_set(&env, &s2, Some(&d2)).unwrap();
        assert_eq!(saver.recover_set(&env, &id2).unwrap(), s2);
        assert_eq!(saver.recover_set(&env, &id1).unwrap(), s1);
    }

    #[test]
    fn unregistered_dataset_is_rejected_at_save() {
        let (_d, env) = env();
        let mut saver = ProvenanceSaver::new();
        let s0 = set(4, 4);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let d = Derivation {
            base: id0,
            train: TrainConfig::regression_default(0),
            updates: vec![ModelUpdate {
                model_idx: 0,
                kind: UpdateKind::Full,
                dataset: DatasetRef { id: "0000000000000000".into(), n_samples: 1 },
                seed: 0,
            }],
        };
        assert!(saver.save_set(&env, &s0, Some(&d)).is_err());
    }

    #[test]
    fn out_of_range_update_index_is_rejected() {
        let (_d, env) = env();
        let mut saver = ProvenanceSaver::new();
        let s0 = set(4, 5);
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let ds = battery_dataset(&data_cfg(), 0, 0, 1);
        let dref = env.registry().put(&ds).unwrap();
        let d = Derivation {
            base: id0,
            train: TrainConfig::regression_default(0),
            updates: vec![ModelUpdate { model_idx: 99, kind: UpdateKind::Full, dataset: dref, seed: 0 }],
        };
        assert!(saver.save_set(&env, &s0, Some(&d)).is_err());
    }

    #[test]
    fn update_line_roundtrip() {
        let u = ModelUpdate {
            model_idx: 17,
            kind: UpdateKind::Partial { layers: vec![0, 2] },
            dataset: DatasetRef { id: "abcd".into(), n_samples: 55 },
            seed: 9,
        };
        let line = ProvenanceSaver::update_line(&u);
        assert_eq!(ProvenanceSaver::parse_update_line(&line).unwrap(), u);
        let f = ModelUpdate { kind: UpdateKind::Full, ..u };
        let line = ProvenanceSaver::update_line(&f);
        assert_eq!(ProvenanceSaver::parse_update_line(&line).unwrap(), f);
    }
}

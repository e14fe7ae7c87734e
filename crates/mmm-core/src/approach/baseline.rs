//! The **Baseline** approach (paper §3.2).
//!
//! Represents a set of models by exactly three artifacts:
//!
//! 1. one metadata document (set-level),
//! 2. the model architecture, stored once inside that document,
//! 3. one binary blob with all models' parameters concatenated.
//!
//! This addresses O1 (redundant model data — architecture, layer names
//! and metadata are stored once per *set* instead of once per model) and
//! O3 (write overhead — a constant number of store round-trips instead of
//! `Θ(n)`), while every set remains independently recoverable.

use crate::approach::common::{self, FullSnapshot};
use crate::approach::ModelSetSaver;
use crate::env::ManagementEnv;
use crate::model_set::{Derivation, ModelSet, ModelSetId};
use crate::param_codec;
use mmm_dnn::{ArchitectureSpec, ParamDict};
use mmm_util::Result;

/// Saver implementing the Baseline approach. Stateless.
#[derive(Debug, Default, Clone)]
pub struct BaselineSaver;

impl BaselineSaver {
    /// Create a Baseline saver.
    pub fn new() -> Self {
        BaselineSaver
    }

    /// Save a set whose models are *produced on demand* instead of held
    /// in memory: `model_fn(i, buf)` appends model `i`'s concat record
    /// (see [`param_codec::append_model_record`]) and the blob streams
    /// to the store in [`ManagementEnv::stream_chunk_bytes`] chunks —
    /// peak staging memory is one chunk regardless of `n_models`. This
    /// is the whole of Baseline's save: [`ModelSetSaver::save_set`] is
    /// this function fed from the set's slice of models.
    pub fn save_streamed(
        &mut self,
        env: &ManagementEnv,
        arch: &ArchitectureSpec,
        n_models: usize,
        model_fn: impl FnMut(usize, &mut Vec<u8>) -> Result<()>,
    ) -> Result<ModelSetId> {
        common::save_full_snapshot(env, self.name(), arch, n_models, &[], model_fn, |_| Ok(()))
    }

    /// Visit every model of a saved set one at a time (in index order)
    /// without materializing the whole `Vec<ParamDict>`: the blob is
    /// read as a zero-copy mapping and decoded model by model, so peak
    /// memory during recovery is one model. Each visited dict is
    /// identical to the corresponding element of
    /// [`ModelSetSaver::recover_set`]'s result, which reads the same
    /// mapping and differs only in collecting the decoded records.
    pub fn recover_visit(
        &self,
        env: &ManagementEnv,
        id: &ModelSetId,
        visit: impl FnMut(usize, ParamDict) -> Result<()>,
    ) -> Result<()> {
        let full = self.open(env, id)?;
        let blob = full.map(env)?;
        let _span = env.obs().span("decode");
        let (names, sizes) = (&full.layer_names, &full.layer_sizes);
        param_codec::decode_concat_visit(&blob, full.n_models, names, sizes, visit)
    }

    /// Guard, then fetch and parse the set document. Every Baseline set
    /// is a full snapshot, so there is no chain to walk.
    fn open(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<FullSnapshot> {
        common::guard(env, self.name(), id)?;
        let doc_id = common::doc_id_of(id)?;
        let doc = {
            let _span = env.obs().span("doc_get");
            env.docs().get(common::SETS_COLLECTION, doc_id)?
        };
        FullSnapshot::open(self.name(), doc_id, &doc)
    }
}

impl ModelSetSaver for BaselineSaver {
    fn name(&self) -> &'static str {
        "baseline"
    }

    /// Baseline treats every set as self-contained: derived sets are
    /// saved exactly like initial ones (its storage is flat across use
    /// cases — Figure 3).
    fn save_set(
        &mut self,
        env: &ManagementEnv,
        set: &ModelSet,
        _derivation: Option<&Derivation>,
    ) -> Result<ModelSetId> {
        self.save_streamed(env, &set.arch, set.len(), common::records_of(set))
    }

    fn recover_set(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<ModelSet> {
        self.open(env, id)?.read(env, None)
    }

    /// Selective recovery via ranged reads: the concatenated layout makes
    /// each model a fixed-size record, so recovering `k` of `n` models
    /// transfers only `k/n` of the blob.
    fn recover_models(
        &self,
        env: &ManagementEnv,
        id: &ModelSetId,
        indices: &[usize],
    ) -> Result<Vec<ParamDict>> {
        Ok(self.open(env, id)?.read(env, Some(indices))?.models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_dnn::Architectures;
    use mmm_store::LatencyProfile;
    use mmm_util::{Error, TempDir};

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n)
            .map(|i| arch.build(seed + i as u64).export_param_dict())
            .collect();
        ModelSet::new(arch, models)
    }

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-baseline").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    #[test]
    fn save_recover_roundtrip_is_bit_exact() {
        let (_d, env) = env();
        let mut saver = BaselineSaver::new();
        let s = set(10, 0);
        let id = saver.save_initial(&env, &s).unwrap();
        let back = saver.recover_set(&env, &id).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn save_uses_constant_store_ops() {
        let (_d, env) = env();
        let mut saver = BaselineSaver::new();
        let (_, m) = env.measure(|| saver.save_initial(&env, &set(50, 1)).unwrap());
        // One metadata write + one blob + one commit record,
        // regardless of n (O3).
        assert_eq!(m.stats.doc_inserts, 2);
        assert_eq!(m.stats.blob_puts, 1);
    }

    #[test]
    fn uncommitted_save_is_invisible() {
        let (_d, env) = env();
        let mut saver = BaselineSaver::new();
        let s = set(4, 9);
        // Phase one only: document + blob, no commit record — what a
        // crash between the blob put and the commit leaves behind.
        let doc = common::full_set_doc("baseline", &s.arch, s.len()).unwrap();
        let doc_id = env.docs().insert(common::SETS_COLLECTION, doc).unwrap();
        let blob = crate::param_codec::encode_concat(s.models()).unwrap();
        env.blobs().put(&common::params_key("baseline", doc_id), &blob).unwrap();
        let id = ModelSetId { approach: "baseline".into(), key: doc_id.to_string() };
        assert!(matches!(saver.recover_set(&env, &id), Err(Error::NotFound(_))));
        assert!(matches!(saver.recover_models(&env, &id, &[0]), Err(Error::NotFound(_))));
        // A later, properly committed save is unaffected.
        let id2 = saver.save_initial(&env, &s).unwrap();
        assert_eq!(saver.recover_set(&env, &id2).unwrap(), s);
    }

    #[test]
    fn storage_is_params_plus_small_constant() {
        let (_d, env) = env();
        let mut saver = BaselineSaver::new();
        let s = set(20, 2);
        let raw = 4 * s.total_params() as u64;
        let (_, m) = env.measure(|| saver.save_initial(&env, &s).unwrap());
        let overhead = m.bytes_written() - raw;
        // Paper §4.2: Baseline's per-set overhead is ~4 KB.
        assert!(overhead < 8_192, "overhead {overhead} bytes");
    }

    #[test]
    fn multiple_sets_are_independent() {
        let (_d, env) = env();
        let mut saver = BaselineSaver::new();
        let s1 = set(5, 10);
        let s2 = set(5, 20);
        let id1 = saver.save_initial(&env, &s1).unwrap();
        let id2 = saver.save_initial(&env, &s2).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(saver.recover_set(&env, &id1).unwrap(), s1);
        assert_eq!(saver.recover_set(&env, &id2).unwrap(), s2);
    }

    #[test]
    fn recovering_foreign_id_fails() {
        let (_d, env) = env();
        let saver = BaselineSaver::new();
        let id = ModelSetId { approach: "update".into(), key: "0".into() };
        assert!(matches!(saver.recover_set(&env, &id), Err(Error::Invalid(_))));
    }

    #[test]
    fn missing_set_is_not_found() {
        let (_d, env) = env();
        let saver = BaselineSaver::new();
        let id = ModelSetId { approach: "baseline".into(), key: "42".into() };
        assert!(matches!(saver.recover_set(&env, &id), Err(Error::NotFound(_))));
    }

    #[test]
    fn streamed_save_lands_bit_identical_blobs() {
        let s = set(12, 7);
        // One flush on a default env, many on an env whose staging chunk
        // is smaller than a model record.
        let (_d1, block_env) = env();
        let dir2 = TempDir::new("mmm-baseline").unwrap();
        let stream_env = ManagementEnv::builder(dir2.path(), LatencyProfile::zero())
            .stream_chunk_bytes(64)
            .open()
            .unwrap();
        let block_id = BaselineSaver::new().save_initial(&block_env, &s).unwrap();
        let (stream_id, m) =
            stream_env.measure(|| BaselineSaver::new().save_initial(&stream_env, &s).unwrap());
        assert_eq!(m.stats.blob_puts, 1, "streaming still charges one put");
        let block_blob =
            block_env.blobs().get(&common::params_key("baseline", common::doc_id_of(&block_id).unwrap())).unwrap();
        let stream_blob = stream_env
            .blobs()
            .get(&common::params_key("baseline", common::doc_id_of(&stream_id).unwrap()))
            .unwrap();
        assert_eq!(block_blob, stream_blob, "chunked writes must land identical bytes");
        assert_eq!(BaselineSaver::new().recover_set(&stream_env, &stream_id).unwrap(), s);
    }

    #[test]
    fn generator_save_and_visit_recovery_roundtrip() {
        let dir = TempDir::new("mmm-baseline").unwrap();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .stream_chunk_bytes(256)
            .open()
            .unwrap();
        let arch = Architectures::ffnn(6);
        let n = 9;
        // Save from a generator: models are built one at a time and never
        // held together in memory.
        let id = BaselineSaver::new()
            .save_streamed(&env, &arch, n, |i, buf| {
                let m = arch.build(100 + i as u64).export_param_dict();
                crate::param_codec::append_model_record(&m, buf);
                Ok(())
            })
            .unwrap();
        // The streamed artifacts recover through the collecting reader…
        let expected = set(n, 100);
        assert_eq!(BaselineSaver::new().recover_set(&env, &id).unwrap(), expected);
        // …and through the one-model-at-a-time visitor.
        let mut seen = 0usize;
        BaselineSaver::new()
            .recover_visit(&env, &id, |i, dict| {
                assert_eq!(dict, expected.models()[i]);
                seen += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, n);
    }

    #[test]
    fn recover_survives_reopen() {
        let dir = TempDir::new("mmm-baseline").unwrap();
        let id;
        let s = set(4, 3);
        {
            let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
            id = BaselineSaver::new().save_initial(&env, &s).unwrap();
        }
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        assert_eq!(BaselineSaver::new().recover_set(&env, &id).unwrap(), s);
    }
}

//! Property-based tests of the Update approach: for *arbitrary* mutation
//! patterns across an arbitrary-depth chain, recovery is bit-exact, and
//! the diff payload contains exactly the changed layers.

use mmm::core::approach::{ModelSetSaver, UpdateSaver};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{Derivation, ModelSet, ModelSetId};
use mmm::dnn::{Architectures, TrainConfig};
use mmm::store::LatencyProfile;
use mmm::util::TempDir;
use proptest::prelude::*;

const N_MODELS: usize = 6;
const N_LAYERS: usize = 4; // FFNN architectures have 4 parametric layers

/// One chain level: for each (model, layer), an optional additive
/// perturbation applied to a pseudo-random position.
type Mutation = Vec<(usize, usize, f32)>;

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    proptest::collection::vec(
        (0..N_MODELS, 0..N_LAYERS, -2.0f32..2.0),
        0..10,
    )
}

fn apply(set: &ModelSet, mutation: &Mutation) -> ModelSet {
    let mut s = set.clone();
    for &(mi, li, delta) in mutation {
        let layer = &mut s.models[mi].layers[li];
        let pos = (mi * 31 + li * 7) % layer.data.len();
        layer.data[pos] += delta;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any chain of arbitrary mutations recovers bit-exactly at every
    /// level.
    #[test]
    fn arbitrary_chains_roundtrip(
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let dir = TempDir::new("prop-update").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let arch = Architectures::ffnn(6);
        let models = (0..N_MODELS).map(|i| arch.build(i as u64).export_param_dict()).collect();
        let mut set = ModelSet::new(arch, models);

        let mut saver = UpdateSaver::new();
        let mut ids = vec![saver.save_initial(&env, &set).unwrap()];
        let mut snapshots = vec![set.clone()];
        for m in &mutations {
            set = apply(&set, m);
            let d = deriv(ids.last().unwrap());
            ids.push(saver.save_set(&env, &set, Some(&d)).unwrap());
            snapshots.push(set.clone());
        }
        for (id, snap) in ids.iter().zip(&snapshots) {
            prop_assert_eq!(&saver.recover_set(&env, id).unwrap(), snap);
        }
    }

    /// The number of changed layers recorded in the metadata equals the
    /// number of layers whose bytes actually differ — no false positives
    /// from the hash-based change detection, no misses.
    #[test]
    fn diff_records_exactly_the_changed_layers(mutation in arb_mutation()) {
        let dir = TempDir::new("prop-diff").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let arch = Architectures::ffnn(6);
        let models = (0..N_MODELS).map(|i| arch.build(100 + i as u64).export_param_dict()).collect();
        let s0 = ModelSet::new(arch, models);
        let s1 = apply(&s0, &mutation);

        // Ground truth: layers whose contents differ (mutations can
        // cancel or hit the same position twice).
        let mut truly_changed = 0usize;
        for (m0, m1) in s0.models().iter().zip(s1.models()) {
            for (l0, l1) in m0.layers.iter().zip(&m1.layers) {
                if l0.data != l1.data {
                    truly_changed += 1;
                }
            }
        }

        let mut saver = UpdateSaver::new();
        let id0 = saver.save_initial(&env, &s0).unwrap();
        let id1 = saver.save_set(&env, &s1, Some(&deriv(&id0))).unwrap();
        let doc = env
            .docs()
            .get("model_sets", id1.key.parse::<u64>().unwrap())
            .unwrap();
        prop_assert_eq!(doc["n_changed_layers"].as_u64().unwrap() as usize, truly_changed);
    }
}

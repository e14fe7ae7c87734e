//! Selective recovery: "we … only recover a selected number of models,
//! for example, after an accident" (paper §1). Every approach must
//! return exactly the same parameters as a full recovery would, at a
//! fraction of the transfer/compute cost.

use mmm::core::approach::{
    ApproachSpec, BaselineSaver, MmlibBaseSaver, ModelSetSaver, ProvenanceSaver, UpdateSaver,
};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{Derivation, ModelSet, ModelSetId};
use mmm::core::{branch, tiering};
use mmm::dnn::{Architectures, TrainConfig};
use mmm::store::{LatencyProfile, StorageBackend};
use mmm::util::{Rng, SplitMix64, TempDir};
use mmm::workload::{DataSource, Fleet, FleetConfig, UpdatePolicy};

const N: usize = 30;
const PICK: [usize; 3] = [2, 17, 29];

type SaverHistory = Vec<(Box<dyn ModelSetSaver>, Vec<ModelSetId>)>;

/// Build a 2-cycle trained history saved with every approach.
fn build() -> (TempDir, ManagementEnv, SaverHistory, Vec<mmm::core::ModelSet>) {
    let dir = TempDir::new("it-selective").unwrap();
    let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
    let mut fleet = Fleet::initial(FleetConfig {
        n_models: N,
        seed: 4,
        arch: Architectures::ffnn(8),
    });
    let policy = UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.3);

    let mut savers: SaverHistory = vec![
        (Box::new(MmlibBaseSaver::new()), Vec::new()),
        (Box::new(BaselineSaver::new()), Vec::new()),
        (Box::new(UpdateSaver::new()), Vec::new()),
        (Box::new(ProvenanceSaver::new()), Vec::new()),
    ];
    let mut snapshots = Vec::new();

    let initial = fleet.to_model_set();
    for (saver, ids) in &mut savers {
        ids.push(saver.save_initial(&env, &initial).unwrap());
    }
    snapshots.push(initial);
    for _ in 0..2 {
        let record = fleet.run_update_cycle(env.registry(), &policy).unwrap();
        let set = fleet.to_model_set();
        for (saver, ids) in &mut savers {
            let deriv = record.derivation(ids.last().unwrap().clone());
            ids.push(saver.save_set(&env, &set, Some(&deriv)).unwrap());
        }
        snapshots.push(set);
    }
    (dir, env, savers, snapshots)
}

#[test]
fn selected_models_match_full_recovery_for_every_approach() {
    let (_d, env, savers, snapshots) = build();
    for (saver, ids) in &savers {
        for (uc, id) in ids.iter().enumerate() {
            // A model some derived level rewrote, asked for twice: every
            // position must get the replayed parameters, not just one.
            let updated = (0..N)
                .find(|&i| snapshots[uc].models()[i] != snapshots[0].models()[i])
                .unwrap_or(0);
            for pick in [&PICK[..], &[updated, updated, PICK[0]]] {
                let picked = saver.recover_models(&env, id, pick).unwrap();
                assert_eq!(picked.len(), pick.len());
                for (p, &idx) in pick.iter().enumerate() {
                    assert_eq!(
                        picked[p],
                        snapshots[uc].models()[idx],
                        "{} uc {uc} model {idx} at position {p} of {pick:?}",
                        saver.name()
                    );
                }
            }
        }
    }
}

#[test]
fn selective_recovery_transfers_less_than_full() {
    let (_d, env, savers, _snapshots) = build();
    for (saver, ids) in &savers {
        let last = ids.last().unwrap();
        let (_, full) = env.measure(|| saver.recover_set(&env, last).unwrap());
        let (_, partial) = env.measure(|| saver.recover_models(&env, last, &PICK).unwrap());
        assert!(
            partial.stats.bytes_read < full.stats.bytes_read,
            "{}: partial {} vs full {} bytes",
            saver.name(),
            partial.stats.bytes_read,
            full.stats.bytes_read
        );
    }
}

#[test]
fn out_of_range_index_is_rejected_by_every_approach() {
    let (_d, env, savers, _snapshots) = build();
    for (saver, ids) in &savers {
        let err = saver.recover_models(&env, &ids[0], &[N + 5]);
        assert!(err.is_err(), "{} accepted an out-of-range index", saver.name());
    }
}

#[test]
fn order_and_duplicates_are_respected() {
    let (_d, env, savers, snapshots) = build();
    let (saver, ids) = &savers[1]; // baseline
    let picked = saver.recover_models(&env, &ids[0], &[5, 1, 5]).unwrap();
    assert_eq!(picked[0], snapshots[0].models()[5]);
    assert_eq!(picked[1], snapshots[0].models()[1]);
    assert_eq!(picked[2], picked[0]);
}

/// Shift every third parameter of `k` random models, either in every
/// layer or in one random layer (sparse, so XOR deltas have zero runs).
fn perturb(set: &ModelSet, rng: &mut SplitMix64, k: usize) -> ModelSet {
    let mut s = set.clone();
    for _ in 0..k {
        let m = rng.below(s.len() as u64) as usize;
        let n_layers = s.models[m].layers.len() as u64;
        let only = (rng.below(2) == 0).then(|| rng.below(n_layers) as usize);
        for (l, layer) in s.models[m].layers.iter_mut().enumerate() {
            if only.is_none_or(|o| o == l) {
                layer.data.iter_mut().step_by(3).for_each(|v| *v += 0.5);
            }
        }
    }
    s
}

/// An Update chain eight levels deep: seven derived saves and, at depth
/// four, a fork node (a diff with no entries) that the chain continues
/// from. Returns every node's id and the set it holds.
fn update_chain(
    env: &ManagementEnv,
    spec: &str,
    rng: &mut SplitMix64,
) -> Vec<(ModelSetId, ModelSet)> {
    let arch = Architectures::ffnn(6);
    let models = (0..N)
        .map(|i| arch.build(100 + i as u64).export_param_dict())
        .collect();
    let mut set = ModelSet::new(arch, models);
    let mut saver = ApproachSpec::parse(spec).unwrap().build();
    let mut chain = vec![(saver.save_initial(env, &set).unwrap(), set.clone())];
    for depth in 1..=8 {
        let base = chain.last().unwrap().0.clone();
        let id = if depth == 4 {
            branch::fork(env, &base, 0, "side").unwrap().head
        } else {
            let k = 1 + rng.below(4) as usize;
            set = perturb(&set, rng, k);
            let deriv = Derivation {
                base,
                train: TrainConfig::regression_default(0),
                updates: vec![],
            };
            saver.save_set(env, &set, Some(&deriv)).unwrap()
        };
        chain.push((id, set.clone()));
    }
    chain
}

/// The equivalence law of selective recovery: recovering `picks` gives
/// exactly `picks` mapped over the whole recovered set — for every
/// chain node, on every backend, with and without intermediate
/// snapshots, at one and at four threads.
#[test]
fn selective_recovery_equals_the_whole_set_indexed_by_the_picks() {
    for backend in [
        StorageBackend::Plain,
        StorageBackend::Cas,
        StorageBackend::Tiered,
    ] {
        for spec in ["update", "update:snapshot-every=3"] {
            for threads in [1, 4] {
                let what = format!("{} {spec} threads={threads}", backend.name());
                let dir = TempDir::new("it-selective-law").unwrap();
                let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
                    .backend(backend)
                    .threads(threads)
                    .open()
                    .unwrap();
                let mut rng = SplitMix64::new(threads as u64);
                let chain = update_chain(&env, spec, &mut rng);
                if backend == StorageBackend::Tiered {
                    // Older levels are then read from the cold tier.
                    let ids: Vec<ModelSetId> = chain.iter().map(|(id, _)| id.clone()).collect();
                    tiering::demote_old_sets(&env, &ids, 3).unwrap();
                }
                let saver = ApproachSpec::parse(spec).unwrap().build();
                for (depth, (id, truth)) in chain.iter().enumerate() {
                    let whole = saver.recover_set(&env, id).unwrap();
                    assert_eq!(&whole, truth, "{what} depth {depth}");
                    let random: Vec<usize> = (0..1 + rng.below(2 * N as u64))
                        .map(|_| rng.below(N as u64) as usize)
                        .collect();
                    let one = vec![rng.below(N as u64) as usize];
                    let every: Vec<usize> = (0..N).collect();
                    let backwards: Vec<usize> = (0..N).rev().collect();
                    for picks in [random, one, every, backwards] {
                        let got = saver.recover_models(&env, id, &picks).unwrap();
                        let want: Vec<_> = picks.iter().map(|&i| whole.models[i].clone()).collect();
                        assert!(got == want, "{what} depth {depth} picks {picks:?}");
                    }
                }
            }
        }
    }
}

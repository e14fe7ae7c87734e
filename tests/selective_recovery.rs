//! Selective recovery: "we … only recover a selected number of models,
//! for example, after an accident" (paper §1). Every approach must
//! return exactly the same parameters as a full recovery would, at a
//! fraction of the transfer/compute cost.

use mmm::core::approach::{
    BaselineSaver, MmlibBaseSaver, ModelSetSaver, ProvenanceSaver, UpdateSaver,
};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::ModelSetId;
use mmm::dnn::Architectures;
use mmm::store::LatencyProfile;
use mmm::util::TempDir;
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

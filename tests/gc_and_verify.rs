//! End-to-end lifecycle tests: archive a real workload, audit it, retire
//! old versions, and confirm the survivors still recover bit-exactly.

use mmm::core::approach::{ModelSetSaver, ProvenanceSaver, UpdateSaver};
use mmm::core::env::ManagementEnv;
use mmm::core::{gc, verify};
use mmm::dnn::Architectures;
use mmm::store::LatencyProfile;
use mmm::util::TempDir;
use mmm::workload::{DataSource, Fleet, FleetConfig, UpdatePolicy};

fn setup() -> (TempDir, ManagementEnv, Fleet, UpdatePolicy) {
    let dir = TempDir::new("it-lifecycle").unwrap();
    let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
    let fleet = Fleet::initial(FleetConfig {
        n_models: 16,
        seed: 5,
        arch: Architectures::ffnn(8),
    });
    let policy = UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.25);
    (dir, env, fleet, policy)
}

#[test]
fn archived_workload_passes_the_integrity_audit() {
    let (_d, env, mut fleet, policy) = setup();
    let mut saver = UpdateSaver::new();
    let mut ids = vec![saver.save_initial(&env, &fleet.to_model_set()).unwrap()];
    for _ in 0..3 {
        let record = fleet.run_update_cycle(env.registry(), &policy).unwrap();
        let deriv = record.derivation(ids.last().unwrap().clone());
        ids.push(saver.save_set(&env, &fleet.to_model_set(), Some(&deriv)).unwrap());
    }
    for id in &ids {
        let report = verify::verify_set(&env, id).unwrap();
        assert!(report.is_healthy(), "{id}: {:?}", report.issues);
    }
}

#[test]
fn snapshot_interval_allows_real_retention() {
    // With intermediate full snapshots the old chain prefix becomes
    // deletable — the practical payoff of the paper's §2.2 remark.
    let (_d, env, mut fleet, policy) = setup();
    let mut saver = UpdateSaver::with_full_snapshot_every(2);
    let mut ids = vec![saver.save_initial(&env, &fleet.to_model_set()).unwrap()];
    let mut snapshots = vec![fleet.to_model_set()];
    for _ in 0..4 {
        let record = fleet.run_update_cycle(env.registry(), &policy).unwrap();
        let deriv = record.derivation(ids.last().unwrap().clone());
        ids.push(saver.save_set(&env, &fleet.to_model_set(), Some(&deriv)).unwrap());
        snapshots.push(fleet.to_model_set());
    }

    // Keep the last two sets. Depths: 0,1,0,1,0 — sets 0..=2 are not
    // needed by 3 (full snapshot at depth 0 is id[2]? depth pattern:
    // save 2 and 4 are full snapshots). Retention must figure it out.
    let deleted = gc::apply_retention(&env, &ids, 2).unwrap();
    assert!(!deleted.is_empty(), "some prefix must be collectible");

    // The retained sets still recover bit-exactly.
    for (uc, id) in ids.iter().enumerate().skip(ids.len() - 2) {
        let recovered = saver.recover_set(&env, id).unwrap();
        assert_eq!(recovered, snapshots[uc], "retained set {uc}");
        assert!(verify::verify_set(&env, id).unwrap().is_healthy());
    }
    // Deleted sets fail loudly.
    for id in &deleted {
        assert!(saver.recover_set(&env, id).is_err());
    }
}

#[test]
fn provenance_chain_audit_detects_lost_updates_blob() {
    let (_d, env, mut fleet, policy) = setup();
    let mut saver = ProvenanceSaver::new();
    let mut ids = vec![saver.save_initial(&env, &fleet.to_model_set()).unwrap()];
    let record = fleet.run_update_cycle(env.registry(), &policy).unwrap();
    let deriv = record.derivation(ids[0].clone());
    ids.push(saver.save_set(&env, &fleet.to_model_set(), Some(&deriv)).unwrap());

    assert!(verify::verify_set(&env, &ids[1]).unwrap().is_healthy());
    env.blobs()
        .delete(&format!("provenance/{}/updates.jsonl", ids[1].key))
        .unwrap();
    let report = verify::verify_set(&env, &ids[1]).unwrap();
    assert!(!report.is_healthy());
    assert!(report.issues[0].contains("updates.jsonl"), "{:?}", report.issues);
}

#[test]
fn divergence_driven_workload_roundtrips_like_random() {
    // Selection strategy must not affect management correctness — only
    // which models change.
    let (_d, env, mut fleet, policy) = setup();
    let policy = policy.with_divergence_selection(16);
    let mut saver = UpdateSaver::new();
    let id0 = saver.save_initial(&env, &fleet.to_model_set()).unwrap();
    let record = fleet.run_update_cycle(env.registry(), &policy).unwrap();
    assert_eq!(record.updates.len(), 4, "25% of 16 models");
    let set = fleet.to_model_set();
    let id1 = saver
        .save_set(&env, &set, Some(&record.derivation(id0)))
        .unwrap();
    assert_eq!(saver.recover_set(&env, &id1).unwrap(), set);
}

/// A lake written before the §4.5 XOR-delta codec was removed can hold
/// `diffz` sets. No decoder for them is kept: recovering one is
/// `Corrupt` and names the kind and the codec, the node audit flags it,
/// and repair parks its bytes under `quarantine/` instead of deleting
/// them. The set is written by hand, as the removed saver laid it out.
#[test]
fn legacy_diffz_sets_are_refused_and_their_bytes_kept() {
    use mmm::core::approach::SETS_COLLECTION;
    use mmm::core::model_set::{ModelSet, ModelSetId};
    use mmm::core::{commit, fsck};
    use mmm::util::Error;

    let dir = TempDir::new("it-legacy-diffz").unwrap();
    let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
    let arch = Architectures::ffnn(6);
    let models = (0..4).map(|i| arch.build(i).export_param_dict()).collect();
    let base_set = ModelSet::new(arch, models);
    let mut saver = UpdateSaver::new();
    let base = saver.save_initial(&env, &base_set).unwrap();

    let doc = serde_json::json!({
        "approach": "update", "kind": "diffz", "base": base.key,
        "n_models": 4, "n_changed_layers": 1, "depth": 1,
    });
    let doc_id = env.docs().insert(SETS_COLLECTION, doc).unwrap();
    // Magic, one entry (model 0, layer 1, 7 payload bytes), then the
    // entry's XOR-delta stream: varints for the word count (1), a zero
    // run (0) and a nonzero run (1), then the one XOR word.
    let mut difz = b"DIFZ".to_vec();
    for field in [1u32, 0, 1, 7] {
        difz.extend_from_slice(&field.to_le_bytes());
    }
    difz.extend_from_slice(&[1, 0, 1, 0, 0, 0x80, 0]);
    let hashes = env
        .blobs()
        .get(&format!("update/{}/hashes.bin", base.key))
        .unwrap();
    let diff_key = format!("update/{doc_id}/diff.bin");
    let hashes_key = format!("update/{doc_id}/hashes.bin");
    env.blobs().put(&diff_key, &difz).unwrap();
    env.blobs().put(&hashes_key, &hashes).unwrap();
    let id = ModelSetId {
        approach: "update".into(),
        key: doc_id.to_string(),
    };
    commit::commit_save(&env, &id).unwrap();

    let refused = |got: mmm::util::Result<Vec<mmm::dnn::ParamDict>>| match got {
        Err(Error::Corrupt(msg)) => {
            assert!(msg.contains("\"diffz\"") && msg.contains("§4.5"), "{msg}");
        }
        other => panic!("a diffz set must be Corrupt, got {other:?}"),
    };
    refused(saver.recover_set(&env, &id).map(|s| s.models));
    refused(saver.recover_models(&env, &id, &[0, 2]));

    let report = verify::verify_set(&env, &id).unwrap();
    assert!(
        report.issues.iter().any(|i| i.contains("diffz")),
        "{:?}",
        report.issues
    );
    let scan = fsck::fsck(&env).unwrap();
    assert!(
        matches!(&scan.damage[..], [fsck::Damage::UnknownKind { id: got, detail }]
            if *got == id && detail.contains("§4.5")),
        "{:?}",
        scan.damage
    );

    let repaired = fsck::repair(&env, &scan).unwrap();
    assert_eq!(repaired.sets_quarantined, 1);
    for (key, bytes) in [(&diff_key, &difz), (&hashes_key, &hashes)] {
        assert!(!env.blobs().exists(key), "{key} left in the live key space");
        let parked = env
            .blobs()
            .get(&format!("{}{key}", fsck::QUARANTINE_PREFIX))
            .unwrap();
        assert_eq!(&parked, bytes, "{key} kept byte for byte");
    }
    assert!(fsck::fsck(&env).unwrap().is_clean());
    assert_eq!(saver.recover_set(&env, &base).unwrap(), base_set);
}

//! Crash-recovery acceptance tests: deterministic fault injection
//! against every saver's two-phase save protocol.
//!
//! The scenario mirrors an archival deployment: a committed set A, one
//! trained update cycle, and a save of set B that dies at an injected
//! fault point. For *every* write operation the save issues we crash
//! (or tear) exactly there, reopen the directory like a fresh process,
//! and require the full recovery story: fsck classifies the damage as
//! GC-able phase-one debris, the last committed set recovers
//! bit-identically, the catalog never shows the unfinished save, and
//! repair leaves a clean store. All fault positions and bit flips are
//! seeded, so any failure replays exactly.

use mmm::core::approach::{ApproachSpec, ModelSetSaver};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{Derivation, ModelSet, ModelSetId};
use mmm::core::{catalog, fsck};
use mmm::dnn::Architectures;
use mmm::store::{FaultInjector, FaultPlan, FaultTarget, LatencyProfile, OpClass};
use mmm::util::{Error, TempDir};
use mmm::workload::{DataSource, Fleet, FleetConfig, UpdatePolicy};

const APPROACHES: [&str; 4] = ["mmlib-base", "baseline", "update", "provenance"];
const N: usize = 4;
const SEED: u64 = 7;
/// More write ops than any approach's save issues (mmlib-base, the
/// worst case, writes 4·N + 1) — a run that never completes is a bug.
const MAX_FAULT_POINTS: u64 = 64;

fn policy() -> UpdatePolicy {
    UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.5)
}

/// One freshly-built scenario: committed set A, trained set B ready to
/// save. Deterministic in `SEED`, so every fault index sees the same
/// operation stream.
struct Scenario {
    dir: TempDir,
    faults: FaultInjector,
    env: ManagementEnv,
    saver: Box<dyn ModelSetSaver>,
    id_a: ModelSetId,
    set_a: ModelSet,
    set_b: ModelSet,
    deriv: Derivation,
}

fn scenario(approach: &str) -> Scenario {
    let dir = TempDir::new("it-fault").unwrap();
    let faults = FaultInjector::new();
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
        .faults(faults.clone())
        .open()
        .unwrap();
    let mut fleet = Fleet::initial(FleetConfig {
        n_models: N,
        seed: SEED,
        arch: Architectures::ffnn(6),
    });
    let mut saver = ApproachSpec::parse(approach).unwrap().build();
    let set_a = fleet.to_model_set();
    let id_a = saver.save_initial(&env, &set_a).unwrap();
    let record = fleet.run_update_cycle(env.registry(), &policy()).unwrap();
    let set_b = fleet.to_model_set();
    let deriv = record.derivation(id_a.clone());
    Scenario { dir, faults, env, saver, id_a, set_a, set_b, deriv }
}

/// Inject `plan(k)` at every write op k of one save of set B until the
/// save survives, verifying the whole recovery story after each death.
fn every_write_op_is_survivable(approach: &str, plan: impl Fn(u64) -> FaultPlan) {
    let mut survived = false;
    for k in 0..MAX_FAULT_POINTS {
        let Scenario { dir, faults, env, mut saver, id_a, set_a, set_b, deriv } =
            scenario(approach);
        faults.arm(plan(k));
        let result = saver.save_set(&env, &set_b, Some(&deriv));
        faults.disarm_all();

        if let Ok(id_b) = result {
            // k exceeded the save's write count: nothing fired. A save
            // needs at least a set document, one blob and the commit
            // record, so the first three indices must have crashed.
            assert!(k >= 3, "{approach}: save with only {k} write op(s)");
            assert_eq!(saver.recover_set(&env, &id_b).unwrap(), set_b, "{approach}: clean save");
            assert!(fsck::fsck(&env).unwrap().is_clean());
            survived = true;
            break;
        }

        // The process "died" mid-save: discard all in-memory state and
        // reopen the directory as a fresh, fault-free environment.
        drop(env);
        drop(saver);
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let ctx = format!("{approach}, write op #{k}");

        // 1. fsck classifies everything the death left behind, and a
        //    crash mid-save can only leave invisible phase-one debris.
        let report = fsck::fsck(&env).unwrap();
        for d in &report.damage {
            assert!(
                matches!(d, fsck::Damage::UncommittedSave { .. }),
                "{ctx}: unexpected damage class: {}",
                d.describe()
            );
        }

        // 2. The last committed set is untouched, bit for bit.
        let saver = ApproachSpec::parse(approach).unwrap().build();
        assert_eq!(saver.recover_set(&env, &id_a).unwrap(), set_a, "{ctx}: committed set");

        // 3. The unfinished save is invisible to the catalog.
        assert_eq!(catalog::list_sets(&env).unwrap().len(), 1, "{ctx}: catalog");

        // 4. Repair collects the debris without quarantining anything,
        //    and a second pass finds a fully clean store.
        let fixed = fsck::repair(&env, &report).unwrap();
        assert_eq!(fixed.sets_quarantined, 0, "{ctx}: debris never quarantines");
        assert_eq!(fixed.orphan_blobs_deleted, 0, "{ctx}: doc-first writes leave no orphans");
        let after = fsck::fsck(&env).unwrap();
        assert!(after.is_clean(), "{ctx}: after repair: {:?}", after.damage);
        assert_eq!(saver.recover_set(&env, &id_a).unwrap(), set_a, "{ctx}: after repair");
    }
    assert!(survived, "{approach}: save never completed within {MAX_FAULT_POINTS} write ops");
}

#[test]
fn a_crash_at_every_write_op_is_recoverable_for_every_approach() {
    for approach in APPROACHES {
        every_write_op_is_survivable(approach, |k| FaultPlan::crash_at(FaultTarget::Writes, k));
    }
}

#[test]
fn a_torn_write_at_every_write_op_is_recoverable_for_every_approach() {
    // Torn writes leave partial bytes on disk (a blob temp file, a log
    // record without its newline) that reopening must sweep or truncate.
    for approach in APPROACHES {
        every_write_op_is_survivable(approach, |k| {
            FaultPlan::torn_write_at(FaultTarget::Writes, k, 5)
        });
    }
}

#[test]
fn transient_store_faults_are_retried_to_a_committed_save() {
    for approach in APPROACHES {
        let Scenario { dir: _dir, faults, env, mut saver, set_b, deriv, .. } = scenario(approach);
        faults.arm(FaultPlan::transient_at(FaultTarget::Writes, 0, 2));
        let before = env.clock().simulated();
        let id_b = saver.save_set(&env, &set_b, Some(&deriv)).unwrap();
        // Two transient failures cost backoffs of base and 2×base,
        // charged to the virtual clock (honest TTS accounting).
        let policy = env.retry_policy();
        assert_eq!(env.clock().simulated() - before, policy.base_backoff * 3, "{approach}");
        assert_eq!(saver.recover_set(&env, &id_b).unwrap(), set_b, "{approach}");
        assert!(fsck::fsck(&env).unwrap().is_clean(), "{approach}");
    }
}

#[test]
fn silent_blob_corruption_is_caught_by_fsck_and_quarantined() {
    let dir = TempDir::new("it-fault-rot").unwrap();
    let faults = FaultInjector::new();
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
        .faults(faults.clone())
        .open()
        .unwrap();
    let fleet = Fleet::initial(FleetConfig { n_models: N, seed: SEED, arch: Architectures::ffnn(6) });
    let set = fleet.to_model_set();
    let mut saver = ApproachSpec::parse("update").unwrap().build();

    // Rot the first blob (the parameter payload) as it is written; the
    // save itself reports success — only the hash audit can notice.
    faults.arm(FaultPlan::bit_flip_at(FaultTarget::Class(OpClass::BlobPut), 0, 9, 0xD15EA5E));
    let id = saver.save_initial(&env, &set).unwrap();
    faults.disarm_all();

    let report = fsck::fsck(&env).unwrap();
    assert!(
        report.damage.iter().any(|d| matches!(d, fsck::Damage::HashMismatch { .. })),
        "hash audit must flag the rot: {:?}",
        report.damage
    );
    let fixed = fsck::repair(&env, &report).unwrap();
    assert_eq!(fixed.sets_quarantined, 1);
    assert!(fsck::fsck(&env).unwrap().is_clean());

    // Quarantine preserves the evidence but hides it from readers.
    let keys = env.blobs().list_keys("").unwrap();
    assert!(
        keys.iter().any(|k| k.starts_with(fsck::QUARANTINE_PREFIX)),
        "quarantined blobs must survive under the quarantine prefix: {keys:?}"
    );
    assert_eq!(env.docs().count(fsck::QUARANTINE_COLLECTION), 1);
    assert!(saver.recover_set(&env, &id).is_err(), "quarantined set must not recover");
    assert!(catalog::list_sets(&env).unwrap().is_empty());
}

#[test]
fn a_flipped_document_record_fails_loudly_on_reopen() {
    // Blob rot is quarantined; metadata rot must instead refuse to open
    // (per-record log checksums), because a wrong set document could
    // silently misdirect every later recovery.
    let dir = TempDir::new("it-fault-doc").unwrap();
    {
        let faults = FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .faults(faults.clone())
            .open()
            .unwrap();
        let fleet =
            Fleet::initial(FleetConfig { n_models: N, seed: SEED, arch: Architectures::ffnn(6) });
        let mut saver = ApproachSpec::parse("update").unwrap().build();
        faults.arm(FaultPlan::bit_flip_at(FaultTarget::Class(OpClass::DocInsert), 0, 9, 99));
        saver.save_initial(&env, &fleet.to_model_set()).unwrap();
    }
    let err = match ManagementEnv::open(dir.path(), LatencyProfile::zero()) {
        Ok(_) => panic!("a flipped set document must fail the open"),
        Err(e) => e,
    };
    assert!(matches!(err, Error::Corrupt(_)), "got {err}");
    assert!(err.to_string().contains("model_sets"), "corrupt collection named: {err}");
}

#[test]
fn injected_damage_replays_bit_identically_from_the_seed() {
    let damaged_params = || {
        let dir = TempDir::new("it-fault-replay").unwrap();
        let faults = FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .faults(faults.clone())
            .open()
            .unwrap();
        let fleet =
            Fleet::initial(FleetConfig { n_models: N, seed: SEED, arch: Architectures::ffnn(6) });
        let mut saver = ApproachSpec::parse("update").unwrap().build();
        faults.arm(FaultPlan::bit_flip_at(FaultTarget::Class(OpClass::BlobPut), 0, 9, 0xC0FFEE));
        saver.save_initial(&env, &fleet.to_model_set()).unwrap();
        faults.disarm_all();
        env.blobs().get("update/0/params.bin").unwrap()
    };
    assert_eq!(damaged_params(), damaged_params(), "same seed, same damage, byte for byte");
}

//! Acceptance tests for the content-addressed (CAS) storage backend:
//! bit-identical recovery against the plain backend for every approach,
//! dedup savings for the Update approach, warm-cache recovery speedups,
//! crash-injected saves that fsck can always repair, and orphan-chunk
//! detection/reclamation.

use mmm::core::approach::{ApproachKind, ApproachSpec};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{ModelSet, ModelSetId};
use mmm::core::{branch, catalog, fsck, gc, lineage, query, tags};
use mmm::dnn::Architectures;
use mmm::store::{FaultInjector, FaultPlan, FaultTarget, LatencyProfile, StorageBackend};
use mmm::util::TempDir;
use mmm::workload::{DataSource, Fleet, FleetConfig, UpdatePolicy};

const N: usize = 4;
const SEED: u64 = 7;
const CYCLES: usize = 2;
/// More write ops than any approach's save issues under CAS (chunk
/// writes plus manifests plus documents).
const MAX_FAULT_POINTS: u64 = 96;

fn policy() -> UpdatePolicy {
    UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.5)
}

fn open(dir: &std::path::Path, backend: StorageBackend, threads: usize) -> ManagementEnv {
    ManagementEnv::builder(dir, LatencyProfile::zero())
        .backend(backend)
        .threads(threads)
        .open()
        .unwrap()
}

/// Save an initial fleet plus `CYCLES` trained update cycles with one
/// approach. Deterministic in `SEED`, so two environments fed the same
/// spec see byte-identical model sets.
fn run_history(env: &ManagementEnv, spec: &str) -> (Vec<ModelSetId>, Vec<ModelSet>) {
    let mut fleet =
        Fleet::initial(FleetConfig { n_models: N, seed: SEED, arch: Architectures::ffnn(6) });
    let mut saver = ApproachSpec::parse(spec).unwrap().build();
    let mut sets = vec![fleet.to_model_set()];
    let mut ids = vec![saver.save_initial(env, &sets[0]).unwrap()];
    for _ in 0..CYCLES {
        let record = fleet.run_update_cycle(env.registry(), &policy()).unwrap();
        let set = fleet.to_model_set();
        let deriv = record.derivation(ids.last().unwrap().clone());
        ids.push(saver.save_set(env, &set, Some(&deriv)).unwrap());
        sets.push(set);
    }
    (ids, sets)
}

#[test]
fn cas_recovery_is_bit_identical_to_plain_for_every_approach() {
    for threads in [1usize, 4] {
        for kind in ApproachKind::ALL {
            let spec = kind.name();
            let plain_dir = TempDir::new("it-cas-plain").unwrap();
            let cas_dir = TempDir::new("it-cas-dedup").unwrap();
            let plain = open(plain_dir.path(), StorageBackend::Plain, threads);
            let cas = open(cas_dir.path(), StorageBackend::Cas, threads);

            let (ids_p, sets) = run_history(&plain, spec);
            let (ids_c, sets_c) = run_history(&cas, spec);
            assert_eq!(sets, sets_c, "{spec} t{threads}: the workload is deterministic");

            let saver = ApproachSpec::parse(spec).unwrap().build();
            for (i, (id_p, id_c)) in ids_p.iter().zip(&ids_c).enumerate() {
                let ctx = format!("{spec} t{threads} set {i}");
                // Full recovery (for Update this walks the diff chain).
                assert_eq!(saver.recover_set(&plain, id_p).unwrap(), sets[i], "{ctx}: plain");
                assert_eq!(saver.recover_set(&cas, id_c).unwrap(), sets[i], "{ctx}: cas");
                // Selective recovery of a subset of models.
                let picked = [0usize, N - 1];
                let m_p = saver.recover_models(&plain, id_p, &picked).unwrap();
                let m_c = saver.recover_models(&cas, id_c, &picked).unwrap();
                assert_eq!(m_p, m_c, "{ctx}: selective recovery");
                // The recovery chain has the same shape on both backends.
                assert_eq!(
                    lineage::recovery_depth(&plain, id_p).unwrap(),
                    lineage::recovery_depth(&cas, id_c).unwrap(),
                    "{ctx}: chain depth"
                );
            }
        }
    }
}

#[test]
fn update_under_cas_charges_strictly_fewer_stored_bytes_than_plain() {
    // Chain-bounded Update (periodic full snapshots) is where layer
    // dedup pays: every snapshot re-stores the whole fleet, but the
    // unchanged models' layer chunks dedup against the previous
    // snapshot instead of being billed again.
    let charged = |backend: StorageBackend| {
        let dir = TempDir::new("it-cas-bytes").unwrap();
        let env = open(dir.path(), backend, 1);
        let mut fleet = Fleet::initial(FleetConfig {
            n_models: N,
            seed: SEED,
            arch: Architectures::ffnn48(),
        });
        let mut saver = ApproachSpec::parse("update:snapshot-every=2").unwrap().build();
        let mut id = saver.save_initial(&env, &fleet.to_model_set()).unwrap();
        for _ in 0..4 {
            let record = fleet.run_update_cycle(env.registry(), &policy()).unwrap();
            let deriv = record.derivation(id.clone());
            id = saver.save_set(&env, &fleet.to_model_set(), Some(&deriv)).unwrap();
        }
        let dedup_bytes = env.blobs().cas().map(|c| c.counters().dedup_bytes).unwrap_or(0);
        (env.stats().bytes_written, dedup_bytes)
    };
    let (plain_bytes, _) = charged(StorageBackend::Plain);
    let (cas_bytes, dedup_bytes) = charged(StorageBackend::Cas);
    assert!(dedup_bytes > 0, "unchanged layers must dedup across snapshots");
    assert!(
        cas_bytes < plain_bytes,
        "cas must charge fewer stored bytes than plain ({cas_bytes} vs {plain_bytes})"
    );
}

#[test]
fn recovery_cache_serves_warm_reads_with_less_simulated_latency() {
    let dir = TempDir::new("it-cas-cache").unwrap();
    // A nonzero latency profile, so avoided chunk reads show up as
    // avoided simulated time.
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::m1())
        .backend(StorageBackend::Cas)
        .cache_bytes(64 * 1024 * 1024)
        .open()
        .unwrap();
    let (ids, _) = run_history(&env, "baseline");
    let saver = ApproachSpec::parse("baseline").unwrap().build();
    let id = ids.last().unwrap();
    let picked = [0usize, 2];
    let cas = env.blobs().cas().unwrap();

    let c0 = cas.counters();
    let (cold_models, cold) = env.measure(|| saver.recover_models(&env, id, &picked).unwrap());
    let c1 = cas.counters();
    let (warm_models, warm) = env.measure(|| saver.recover_models(&env, id, &picked).unwrap());
    let c2 = cas.counters();

    assert_eq!(cold_models, warm_models, "the cache must not change recovered bytes");
    // Counters only ever move forward.
    assert!(c1.cache_misses > c0.cache_misses, "the cold read populates the cache");
    assert!(c2.cache_misses >= c1.cache_misses);
    assert!(c2.cache_hits > c1.cache_hits, "the warm read must hit the cache");
    assert!(
        c2.cache_hit_bytes > c1.cache_hit_bytes,
        "warm cache_hit_bytes must grow: {} vs {}",
        c2.cache_hit_bytes,
        c1.cache_hit_bytes
    );
    assert!(
        warm.sim < cold.sim,
        "cache hits charge no simulated chunk latency (warm {:?} vs cold {:?})",
        warm.sim,
        cold.sim
    );
}

#[test]
fn a_crash_at_every_write_op_under_cas_is_repairable_for_every_approach() {
    for kind in ApproachKind::ALL {
        let spec = kind.name();
        let mut survived = false;
        for k in 0..MAX_FAULT_POINTS {
            let dir = TempDir::new("it-cas-fault").unwrap();
            let faults = FaultInjector::new();
            let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
                .backend(StorageBackend::Cas)
                .faults(faults.clone())
                .open()
                .unwrap();
            let mut fleet = Fleet::initial(FleetConfig {
                n_models: N,
                seed: SEED,
                arch: Architectures::ffnn(6),
            });
            let mut saver = ApproachSpec::parse(spec).unwrap().build();
            let set_a = fleet.to_model_set();
            let id_a = saver.save_initial(&env, &set_a).unwrap();
            let record = fleet.run_update_cycle(env.registry(), &policy()).unwrap();
            let set_b = fleet.to_model_set();
            let deriv = record.derivation(id_a.clone());

            faults.arm(FaultPlan::crash_at(FaultTarget::Writes, k));
            let result = saver.save_set(&env, &set_b, Some(&deriv));
            faults.disarm_all();

            if let Ok(id_b) = result {
                assert!(k >= 3, "{spec}: save with only {k} write op(s)");
                assert_eq!(saver.recover_set(&env, &id_b).unwrap(), set_b, "{spec}: clean save");
                assert!(fsck::fsck(&env).unwrap().is_clean(), "{spec}: clean save leaves no debris");
                survived = true;
                break;
            }

            // The process "died" mid-save: reopen fresh. The backend
            // marker makes a plain reopen adopt the CAS layout.
            drop(env);
            drop(saver);
            let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
            assert_eq!(env.backend(), StorageBackend::Cas);
            let ctx = format!("{spec}, write op #{k}");

            // A crash mid-save can leave phase-one debris and chunk
            // files whose manifest never landed — nothing else.
            let report = fsck::fsck(&env).unwrap();
            for d in &report.damage {
                assert!(
                    matches!(
                        d,
                        fsck::Damage::UncommittedSave { .. } | fsck::Damage::OrphanChunk { .. }
                    ),
                    "{ctx}: unexpected damage class: {}",
                    d.describe()
                );
            }

            let saver = ApproachSpec::parse(spec).unwrap().build();
            assert_eq!(saver.recover_set(&env, &id_a).unwrap(), set_a, "{ctx}: committed set");
            assert_eq!(catalog::list_sets(&env).unwrap().len(), 1, "{ctx}: catalog");

            let fixed = fsck::repair(&env, &report).unwrap();
            assert_eq!(fixed.sets_quarantined, 0, "{ctx}: debris never quarantines");
            let after = fsck::fsck(&env).unwrap();
            assert!(after.is_clean(), "{ctx}: after repair: {:?}", after.damage);
            assert_eq!(saver.recover_set(&env, &id_a).unwrap(), set_a, "{ctx}: after repair");
        }
        assert!(survived, "{spec}: save never completed within {MAX_FAULT_POINTS} write ops");
    }
}

/// Crash at every write op inside a CAS deletion (`delete_set` →
/// manifest delete → `release_chunks`): the surviving sets must stay
/// bit-identical, shared chunks must never be reclaimed out from under
/// them, and the worst a crash may cause is a *leak* (orphan chunks or
/// blobs, invisible debris) that `fsck --repair` reclaims — never
/// corruption.
#[test]
fn a_crash_at_every_write_op_during_cas_gc_leaks_but_never_corrupts() {
    let mut survived = false;
    for k in 0..MAX_FAULT_POINTS {
        let dir = TempDir::new("it-cas-gc-fault").unwrap();
        let faults = FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .backend(StorageBackend::Cas)
            .faults(faults.clone())
            .open()
            .unwrap();
        // An update chain shares chunks between versions, so the
        // deletion below releases a mix of shared and unique chunks.
        let (ids, sets) = run_history(&env, "update");
        let victim = ids.last().unwrap();

        faults.arm(FaultPlan::crash_at(FaultTarget::Writes, k));
        let result = gc::delete_set(&env, victim, false);
        faults.disarm_all();

        if result.is_ok() {
            assert!(k >= 2, "deletion with only {k} write op(s)");
            assert!(fsck::fsck(&env).unwrap().is_clean(), "clean deletion leaves no debris");
            survived = true;
            break;
        }

        // The process "died" mid-deletion: reopen fresh and audit.
        drop(env);
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let ctx = format!("gc write op #{k}");

        // Leak, never corrupt: the only acceptable damage classes are
        // invisible debris and unreferenced leftovers.
        let report = fsck::fsck(&env).unwrap();
        for d in &report.damage {
            assert!(
                matches!(
                    d,
                    fsck::Damage::UncommittedSave { .. }
                        | fsck::Damage::OrphanBlob { .. }
                        | fsck::Damage::OrphanChunk { .. }
                ),
                "{ctx}: unexpected damage class: {}",
                d.describe()
            );
        }

        // Every set the deletion did not get to decommit — in
        // particular every *other* version sharing chunks with the
        // victim — still recovers bit-identically.
        let saver = ApproachSpec::parse("update").unwrap().build();
        for (id, set) in ids.iter().zip(&sets) {
            if mmm::core::commit::is_committed(&env, id).unwrap() {
                assert_eq!(&saver.recover_set(&env, id).unwrap(), set, "{ctx}: set {id}");
            } else {
                assert!(id == victim, "{ctx}: only the victim may be decommitted");
            }
        }

        // Repair reclaims the leak and the survivors are untouched.
        let fixed = fsck::repair(&env, &report).unwrap();
        assert_eq!(fixed.sets_quarantined, 0, "{ctx}: a gc crash never quarantines");
        assert!(fsck::fsck(&env).unwrap().is_clean(), "{ctx}: repair converges");
        for (id, set) in ids.iter().zip(&sets).take(ids.len() - 1) {
            assert_eq!(&saver.recover_set(&env, id).unwrap(), set, "{ctx}: after repair {id}");
        }
    }
    assert!(survived, "deletion never completed within {MAX_FAULT_POINTS} write ops");
}

#[test]
fn fsck_flags_and_gc_reclaims_orphan_chunks() {
    let dir = TempDir::new("it-cas-orphan").unwrap();
    let env = open(dir.path(), StorageBackend::Cas, 1);
    let (ids, _) = run_history(&env, "baseline");
    assert!(fsck::fsck(&env).unwrap().is_clean());

    let chunk_dir = dir.path().join("blobs").join("cas").join("chunks");
    let chunk_files = || std::fs::read_dir(&chunk_dir).unwrap().count();

    // Deleting a set releases its references; chunks no longer reachable
    // from any manifest leave the disk with it.
    let before = chunk_files();
    gc::delete_set(&env, ids.last().unwrap(), false).unwrap();
    assert!(chunk_files() < before, "deleting a set must reclaim its unique chunks");
    assert!(fsck::fsck(&env).unwrap().is_clean());

    // A chunk file without a referencing manifest (as a crash between
    // chunk write and manifest write would leave) is orphan damage that
    // repair deletes...
    let stray = chunk_dir.join("00000000deadbeef-00000010.bin");
    std::fs::write(&stray, vec![0u8; 16]).unwrap();
    let report = fsck::fsck(&env).unwrap();
    assert!(
        report.damage.iter().any(|d| matches!(d, fsck::Damage::OrphanChunk { .. })),
        "fsck must flag the stray chunk: {:?}",
        report.damage
    );
    let fixed = fsck::repair(&env, &report).unwrap();
    assert_eq!(fixed.orphan_chunks_deleted, 1);
    assert!(!stray.exists(), "repair deletes the chunk payload");
    assert!(fsck::fsck(&env).unwrap().is_clean());

    // ...and that gc can reclaim directly, reporting the bytes freed.
    std::fs::write(&stray, vec![0u8; 16]).unwrap();
    let (n, bytes) = gc::reclaim_orphan_chunks(&env).unwrap();
    assert_eq!((n, bytes), (1, 16));
    assert!(fsck::fsck(&env).unwrap().is_clean());
    assert_eq!(gc::reclaim_orphan_chunks(&env).unwrap(), (0, 0), "idempotent when clean");
}

/// A query's rows are the same on both backends, `bytes_stored`
/// included, for a full scan and for a tag probe: on CAS they come from
/// the store's key index, both as kept by the saves and as rebuilt by a
/// reopen.
#[test]
fn cas_catalogue_rows_equal_plain_before_and_after_reopen() {
    let lake = |backend| {
        let dir = TempDir::new("it-cas-catalogue").unwrap();
        let env = open(dir.path(), backend, 1);
        for kind in ApproachKind::ALL {
            let (ids, _) = run_history(&env, kind.name());
            tags::tag_set(&env, &ids[1], "golden").unwrap();
            if kind == ApproachKind::Update {
                branch::fork(&env, &ids[CYCLES], 1, "exp").unwrap();
            }
        }
        (dir, env)
    };
    let rows = |env: &ManagementEnv| ["true", "tag:golden"].map(|q| query::run(env, q).unwrap());
    let (_plain_dir, plain) = lake(StorageBackend::Plain);
    let (cas_dir, cas) = lake(StorageBackend::Cas);
    let expected = rows(&plain);
    assert_eq!(expected[1].records.len(), ApproachKind::ALL.len());
    assert!(expected[0].records.iter().all(|r| r.bytes_stored.total > 0));
    assert_eq!(rows(&cas), expected, "cas, index kept by the saves");
    drop(cas);
    let reopened = open(cas_dir.path(), StorageBackend::Cas, 1);
    assert_eq!(rows(&reopened), expected, "cas, index rebuilt by a reopen");
}

#[test]
fn approach_specs_round_trip_through_their_canonical_form() {
    for s in [
        "mmlib-base",
        "baseline",
        "provenance",
        "update",
        "update:snapshot-every=4",
    ] {
        let spec = ApproachSpec::parse(s).unwrap();
        assert_eq!(spec.to_string(), s, "canonical form is stable");
        assert_eq!(ApproachSpec::parse(&spec.to_string()).unwrap(), spec, "round trip");
        assert_eq!(spec.build().name(), spec.kind.name(), "built saver reports the kind");
    }
    // Whitespace and empty options are normalized.
    let spec = ApproachSpec::parse(" update : snapshot-every=4 , ").unwrap();
    assert_eq!(spec.to_string(), "update:snapshot-every=4");

    for bad in [
        "nope",
        "baseline:delta",
        "provenance:snapshot-every=4",
        "update:snapshot-every=0",
        "update:snapshot-every=x",
        "update:bogus",
        // The §4.5 XOR-delta codec is removed.
        "update:delta",
        "update:snapshot-every=4,delta",
    ] {
        assert!(ApproachSpec::parse(bad).is_err(), "{bad:?} must be rejected");
    }
    let err = ApproachSpec::parse("update:delta").unwrap_err();
    assert!(matches!(err, mmm::util::Error::Invalid(_)), "{err:?}");
    assert!(
        err.to_string().ends_with("(expected 'snapshot-every=K')"),
        "{err}"
    );
}

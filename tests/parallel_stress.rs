//! Parallel stress acceptance tests for the threaded save/recover
//! engine.
//!
//! Three properties of the threading model are pinned here:
//!
//! 1. **Concurrent clients**: all four approaches can save and recover
//!    against one shared environment from separate OS threads (each
//!    internally fanning out over its worker-thread budget) without
//!    corrupting each other — every archived version recovers
//!    bit-identically afterwards and fsck finds a clean store, i.e. no
//!    commit-record interleaving ever exposes a half-saved set.
//! 2. **Thread-count invariance**: on the zero-latency profile the
//!    stored bytes, the store-op counts, and the simulated clock are
//!    identical for `threads = 1` and `threads = N` — parallelism may
//!    only change wall-clock time, never what lands in the store or
//!    what the accounting reports.
//! 3. **Critical-path accounting**: on a real latency profile a
//!    parallel section charges the slowest lane (max), not the sum of
//!    all lanes — simulated TTS/TTR drop when threads are added, but
//!    never below perfect `1/threads` scaling.
//!
//! The worker-thread budget is taken from `MMM_THREADS` (default 4) so
//! CI can sweep it.

use std::time::Duration;

use mmm::core::approach::ApproachSpec;
use mmm::core::env::ManagementEnv;
use mmm::core::fsck;
use mmm::core::model_set::{ModelSet, ModelSetId};
use mmm::dnn::Architectures;
use mmm::store::LatencyProfile;
use mmm::util::TempDir;
use mmm::workload::{DataSource, Fleet, FleetConfig, UpdatePolicy};

const APPROACHES: [&str; 4] = ["mmlib-base", "baseline", "update", "provenance"];

fn threads_from_env() -> usize {
    std::env::var("MMM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(4)
}

fn policy() -> UpdatePolicy {
    UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.5)
}

#[test]
fn four_approaches_save_and_recover_concurrently_against_one_env() {
    let dir = TempDir::new("it-parstress").unwrap();
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
        .threads(threads_from_env())
        .open()
        .unwrap();
    let cycles = 2;

    // One client thread per approach, all hammering the same env. Each
    // archives an initial set plus `cycles` derived sets, recovering
    // after every save while the other threads are mid-write.
    let saved: Vec<Vec<(ModelSetId, ModelSet)>> = std::thread::scope(|s| {
        let handles: Vec<_> = APPROACHES
            .iter()
            .enumerate()
            .map(|(t, approach)| {
                let env = &env;
                s.spawn(move || {
                    let mut saver = ApproachSpec::parse(approach).unwrap().build();
                    let mut fleet = Fleet::initial(FleetConfig {
                        n_models: 6,
                        seed: 100 + t as u64,
                        arch: Architectures::ffnn(6),
                    });
                    let mut out = Vec::new();
                    let set = fleet.to_model_set();
                    let mut last = saver.save_initial(env, &set).unwrap();
                    out.push((last.clone(), set));
                    for _ in 0..cycles {
                        let record = fleet.run_update_cycle(env.registry(), &policy()).unwrap();
                        let set = fleet.to_model_set();
                        let deriv = record.derivation(last.clone());
                        last = saver.save_set(env, &set, Some(&deriv)).unwrap();
                        assert_eq!(saver.recover_set(env, &last).unwrap(), set, "{approach}");
                        out.push((last.clone(), set));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // After the dust settles every archived version of every approach
    // still recovers bit-identically.
    for (t, versions) in saved.iter().enumerate() {
        let saver = ApproachSpec::parse(APPROACHES[t]).unwrap().build();
        for (id, snapshot) in versions {
            assert_eq!(&saver.recover_set(&env, id).unwrap(), snapshot, "{id}");
        }
    }

    // And the concurrent two-phase commits never interleaved into
    // visible damage.
    let report = fsck::fsck(&env).unwrap();
    assert!(
        report.is_clean(),
        "fsck damage after concurrent saves: {:?}",
        report.damage.iter().map(|d| d.describe()).collect::<Vec<_>>()
    );
}

#[test]
fn storage_and_op_accounting_is_thread_count_invariant() {
    let many = threads_from_env().max(2);
    let mut runs = Vec::new();
    for threads in [1, many] {
        let dir = TempDir::new("it-parstress").unwrap();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .threads(threads)
            .open()
            .unwrap();
        let mut per_approach = Vec::new();
        for approach in APPROACHES {
            let mut saver = ApproachSpec::parse(approach).unwrap().build();
            let mut fleet = Fleet::initial(FleetConfig {
                n_models: 8,
                seed: 7,
                arch: Architectures::ffnn(6),
            });
            let set_a = fleet.to_model_set();
            let (id_a, m_init) = env.measure(|| saver.save_initial(&env, &set_a).unwrap());
            let record = fleet.run_update_cycle(env.registry(), &policy()).unwrap();
            let set_b = fleet.to_model_set();
            let deriv = record.derivation(id_a);
            let (id_b, m_save) = env.measure(|| saver.save_set(&env, &set_b, Some(&deriv)).unwrap());
            let (recovered, m_rec) = env.measure(|| saver.recover_set(&env, &id_b).unwrap());
            assert_eq!(recovered, set_b, "{approach} at {threads} thread(s)");
            per_approach.push((approach, m_init.stats, m_save.stats, m_rec.stats));
        }
        runs.push((per_approach, env.clock().simulated()));
    }

    let (sequential, sim_seq) = &runs[0];
    let (parallel, sim_par) = &runs[1];
    for ((a, i1, s1, r1), (_, i2, s2, r2)) in sequential.iter().zip(parallel) {
        // Whole snapshots: op counts, bytes written, bytes read.
        assert_eq!(i1, i2, "{a}: initial-save accounting must not depend on threads");
        assert_eq!(s1, s2, "{a}: derived-save accounting must not depend on threads");
        assert_eq!(r1, r2, "{a}: recovery accounting must not depend on threads");
    }
    assert_eq!(sim_seq, sim_par, "zero-profile simulated clocks must agree");
}

#[test]
fn parallel_sections_charge_the_critical_path_not_the_lane_sum() {
    let many = threads_from_env().max(2);
    let n_models = 12;
    let mut sims = Vec::new();
    for threads in [1, many] {
        let dir = TempDir::new("it-parstress").unwrap();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::by_name("m1").unwrap())
            .threads(threads)
            .open()
            .unwrap();
        // mmlib-base is the op-heaviest approach (3n blob puts on save,
        // 2n round-trips on recover), so its parallel sections dominate.
        let mut saver = ApproachSpec::parse("mmlib-base").unwrap().build();
        let fleet = Fleet::initial(FleetConfig {
            n_models,
            seed: 7,
            arch: Architectures::ffnn(6),
        });
        let set = fleet.to_model_set();
        let before = env.clock().simulated();
        let id = saver.save_initial(&env, &set).unwrap();
        let save_sim = env.clock().simulated() - before;
        let before = env.clock().simulated();
        assert_eq!(saver.recover_set(&env, &id).unwrap(), set);
        let recover_sim = env.clock().simulated() - before;
        sims.push((save_sim, recover_sim));
    }

    let (save_seq, rec_seq) = sims[0];
    let (save_par, rec_par) = sims[1];
    assert!(save_par > Duration::ZERO && rec_par > Duration::ZERO);
    // Parallel lanes charge their max, so the simulated times shrink...
    assert!(
        save_par < save_seq,
        "parallel save charged {save_par:?}, sequential sum is {save_seq:?}"
    );
    assert!(
        rec_par < rec_seq,
        "parallel recovery charged {rec_par:?}, sequential sum is {rec_seq:?}"
    );
    // ...but never below perfect 1/threads scaling of the whole save
    // (the sequential doc inserts and the commit keep it strictly above).
    assert!(
        save_par >= save_seq / many as u32,
        "parallel save {save_par:?} beat perfect {many}-way scaling of {save_seq:?}"
    );
    assert!(
        rec_par >= rec_seq / many as u32,
        "parallel recovery {rec_par:?} beat perfect {many}-way scaling of {rec_seq:?}"
    );
}

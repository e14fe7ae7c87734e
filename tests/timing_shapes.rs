//! Timing-shape tests: with the calibrated latency profiles, the
//! qualitative claims of Figures 4 and 5 must hold at modest scale.
//! Absolute seconds are calibration, but orderings, flatness and the
//! staircase are structural consequences of the op counts.

use std::time::Duration;

use mmm::core::approach::{
    BaselineSaver, MmlibBaseSaver, ModelSetSaver, UpdateSaver, SETS_COLLECTION,
};
use mmm::core::commit::{self, COMMITS_COLLECTION};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{Derivation, ModelSetId};
use mmm::core::{branch, query, tags};
use mmm::dnn::{Architectures, TrainConfig};
use mmm::store::LatencyProfile;
use mmm::util::TempDir;
use mmm::workload::{Fleet, FleetConfig};

const N: usize = 120;

fn fleet() -> Fleet {
    Fleet::initial(FleetConfig {
        n_models: N,
        seed: 31,
        arch: Architectures::ffnn48(),
    })
}

fn perturb(set: &mut mmm::core::model_set::ModelSet, salt: usize) {
    for i in (salt % 10..N).step_by(10) {
        for v in &mut set.models[i].layers[1].data {
            *v += 0.01;
        }
    }
}

/// Figure 4: MMlib-base's TTS is an order of magnitude above Baseline's
/// on both setups, and the server setup shrinks the gap.
#[test]
fn tts_gap_and_setup_effect() {
    let mut gaps = Vec::new();
    for profile in [LatencyProfile::m1(), LatencyProfile::server()] {
        let dir = TempDir::new("it-tts").unwrap();
        let env = ManagementEnv::open(dir.path(), profile).unwrap();
        let set = fleet().to_model_set();
        let (_, mm) = env.measure(|| MmlibBaseSaver::new().save_initial(&env, &set).unwrap());
        let (_, mb) = env.measure(|| BaselineSaver::new().save_initial(&env, &set).unwrap());
        let gap = mm.sim.as_secs_f64() / mb.sim.as_secs_f64();
        assert!(gap > 5.0, "MMlib-base must be much slower to save (gap {gap:.1})");
        gaps.push(gap);
    }
    // Paper §4.3: the server's faster doc-store connection "significantly
    // reduces the overhead of saving individual models" — i.e. shrinks
    // the relative gap.
    assert!(gaps[1] < gaps[0], "server gap {:.1} should be below m1 gap {:.1}", gaps[1], gaps[0]);
}

/// Figure 5a/5b: Baseline's TTR is flat and the lowest; MMlib-base is
/// flat and far higher; Update follows a staircase.
#[test]
fn ttr_staircase_and_orderings() {
    let dir = TempDir::new("it-ttr").unwrap();
    let env = ManagementEnv::open(dir.path(), LatencyProfile::m1()).unwrap();
    let mut set = fleet().to_model_set();

    let mut baseline = BaselineSaver::new();
    let mut mmlib = MmlibBaseSaver::new();
    let mut update = UpdateSaver::new();

    let mut baseline_ids = vec![baseline.save_initial(&env, &set).unwrap()];
    let mut mmlib_ids = vec![mmlib.save_initial(&env, &set).unwrap()];
    let mut update_ids = vec![update.save_initial(&env, &set).unwrap()];

    for cycle in 0..3 {
        perturb(&mut set, cycle);
        baseline_ids.push(baseline.save_initial(&env, &set).unwrap());
        mmlib_ids.push(mmlib.save_initial(&env, &set).unwrap());
        let deriv = Derivation {
            base: update_ids.last().unwrap().clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        update_ids.push(update.save_set(&env, &set, Some(&deriv)).unwrap());
    }

    let ttr = |saver: &dyn ModelSetSaver, id: &ModelSetId| -> Duration {
        let (_, m) = env.measure(|| saver.recover_set(&env, id).unwrap());
        m.sim
    };

    let b: Vec<Duration> = baseline_ids.iter().map(|id| ttr(&baseline, id)).collect();
    let m: Vec<Duration> = mmlib_ids.iter().map(|id| ttr(&mmlib, id)).collect();
    let u: Vec<Duration> = update_ids.iter().map(|id| ttr(&update, id)).collect();

    // MMlib-base way above Baseline at every use case.
    for (mi, bi) in m.iter().zip(&b) {
        assert!(mi.as_secs_f64() > 5.0 * bi.as_secs_f64(), "mmlib {mi:?} vs baseline {bi:?}");
    }
    // Baseline flat: the same constant op count on the same bytes costs
    // the same simulated time at every use case.
    for bi in &b {
        assert_eq!(*bi, b[0], "baseline must stay flat: {b:?}");
    }
    // Update staircase: strictly growing with depth.
    for w in u.windows(2) {
        assert!(w[1] > w[0], "staircase violated: {u:?}");
    }
    // Update's deepest recovery still beats MMlib-base (paper Figure 5).
    assert!(u.last().unwrap() < &m[0], "update {u:?} vs mmlib {m:?}");
}

/// `Measurement.sim` is exactly the virtual clock's advance over the
/// measured section — the deterministic quantity every shape above
/// (and every gated bench number) is stated in.
#[test]
fn measured_sim_is_the_clock_delta() {
    let dir = TempDir::new("it-clock").unwrap();
    let env = ManagementEnv::open(dir.path(), LatencyProfile::m1()).unwrap();
    let set = fleet().to_model_set();
    let before_sim = env.clock().simulated();
    let (_, m) = env.measure(|| MmlibBaseSaver::new().save_initial(&env, &set).unwrap());
    assert!(m.sim > Duration::ZERO);
    assert_eq!(m.sim, env.clock().simulated() - before_sim);
}

/// What a request costs must not depend on what else the lake holds:
/// the commit gate, a tag probe and a fork charge the same operations,
/// bytes and simulated time beside two thousand unrelated commit
/// records (or a thousand untagged sets) as beside none.
#[test]
fn request_cost_does_not_grow_with_the_lake() {
    let dir = TempDir::new("it-flat").unwrap();
    let env = ManagementEnv::open(dir.path(), LatencyProfile::m1()).unwrap();
    let mut set = Fleet::initial(FleetConfig {
        n_models: 6,
        seed: 5,
        arch: Architectures::ffnn(6),
    })
    .to_model_set();
    // Burn a thousand document ids first: every set document and
    // commit record of this test then has a four-digit id, so what a
    // fork writes is the same size before and after the lake grows.
    for collection in [SETS_COLLECTION, COMMITS_COLLECTION] {
        for _ in 0..1_000 {
            let id = env
                .docs()
                .insert(collection, serde_json::json!({}))
                .unwrap();
            env.docs().delete(collection, id).unwrap();
        }
    }
    let baseline = BaselineSaver::new();
    let mut update = UpdateSaver::new();
    let full = baseline.clone().save_initial(&env, &set).unwrap();
    let mut chain = vec![update.save_initial(&env, &set).unwrap()];
    for _ in 0..2 {
        set.models[1].layers[0].data[0] += 1.0;
        let deriv = Derivation {
            base: chain.last().unwrap().clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        chain.push(update.save_set(&env, &set, Some(&deriv)).unwrap());
    }
    let head = chain.last().unwrap();
    tags::tag_set(&env, head, "prod").unwrap();

    let requests = |fork_as: &str| {
        let cost = |f: &dyn Fn()| {
            let ((), m) = env.measure(f);
            (m.stats, m.sim)
        };
        let costs = vec![
            cost(&|| drop(baseline.recover_set(&env, &full).unwrap())),
            cost(&|| drop(update.recover_set(&env, head).unwrap())),
            cost(&|| drop(update.recover_models(&env, head, &[0, 3]).unwrap())),
            cost(&|| assert_eq!(query::run(&env, "tag:prod").unwrap().records.len(), 1)),
            cost(&|| drop(branch::fork(&env, head, 1, fork_as).unwrap())),
            cost(&|| drop(branch::diff(&env, &chain[0], head).unwrap())),
        ];
        // Leave the lake as the fork found it.
        branch::delete_branch(&env, fork_as).unwrap();
        costs
    };

    let alone = requests("a");
    // Two thousand commit records of other sets, then a thousand
    // untagged catalogued sets.
    for i in 0..2_000 {
        let record = serde_json::json!({"approach": "update", "set": format!("x{i}")});
        env.docs().insert(COMMITS_COLLECTION, record).unwrap();
    }
    for _ in 0..1_000 {
        let doc = serde_json::json!({"approach": "update", "kind": "full", "n_models": 1});
        let key = env.docs().insert(SETS_COLLECTION, doc).unwrap().to_string();
        commit::commit_save(
            &env,
            &ModelSetId {
                approach: "update".into(),
                key,
            },
        )
        .unwrap();
    }
    let crowded = requests("b");
    assert!(alone
        .iter()
        .all(|(stats, sim)| stats.total_ops() > 0 && *sim > Duration::ZERO));
    assert_eq!(
        alone, crowded,
        "a request's cost followed the size of the lake"
    );
}

/// What lineage costs a probe: one by-ids find per chain level its
/// deepest candidate sits above a full save, plus one commit lookup once
/// an ancestor needs vouching for — beside the scan's flat seven
/// operations. Under m1 a round-trip outweighs megabytes, so a probe
/// deeper than one level reads fewer bytes than the scan and still costs
/// more simulated time. Charged operations, bytes and simulated time
/// only; no wall clock.
#[test]
fn a_probe_pays_one_round_trip_per_chain_level() {
    let dir = TempDir::new("it-deep").unwrap();
    let env = ManagementEnv::open(dir.path(), LatencyProfile::m1()).unwrap();
    let catalogue = |doc: serde_json::Value| {
        let key = env.docs().insert(SETS_COLLECTION, doc).unwrap().to_string();
        let id = ModelSetId {
            approach: "update".into(),
            key,
        };
        commit::commit_save(&env, &id).unwrap();
        id
    };
    // One chain, ten sets long, every set tagged with its depth.
    let mut base: Option<String> = None;
    for depth in 0..10 {
        let doc = match &base {
            None => serde_json::json!({"approach": "update", "kind": "full", "n_models": 1}),
            Some(base) => serde_json::json!({
                "approach": "update", "kind": "diff", "n_models": 1, "base": base,
            }),
        };
        let id = catalogue(doc);
        tags::tag_set(&env, &id, &format!("d{depth}")).unwrap();
        base = Some(id.key);
    }
    // And a lake around it.
    for _ in 0..200 {
        catalogue(serde_json::json!({"approach": "update", "kind": "full", "n_models": 1}));
    }

    let cost = |expr: &str| {
        let (out, m) = env.measure(|| query::run(&env, expr).unwrap());
        (out, m.stats, m.sim)
    };
    let (all, scan, scan_sim) = cost("true");
    assert_eq!((all.records.len(), scan.total_ops()), (210, 7));
    for depth in 0..10 {
        let (out, probe, probe_sim) = cost(&format!("tag:d{depth}"));
        assert_eq!((out.records.len(), out.scanned), (1, 1));
        assert_eq!(out.records[0].depth, depth);
        let lineage_ops = depth + usize::from(depth >= 2);
        assert_eq!(probe.total_ops() as usize, 5 + lineage_ops, "depth {depth}");
        assert!(probe.bytes_read < scan.bytes_read / 5, "depth {depth}");
        assert_eq!(
            probe_sim < scan_sim,
            depth <= 1,
            "depth {depth}: round-trips decide under m1"
        );
    }
}

/// What a selection reads follows what it returns, not what else each
/// chain level changed. At depth four, recovering two models costs the
/// same blob operations and the same payload bytes whether every level
/// also rewrote 2 or 100 other models; only the diff directory, 12
/// bytes an entry, grows with them. Per level that is one read of the directory
/// plus one ranged read per selected model the level changed. Charged
/// stats only; no wall clock.
#[test]
fn a_selection_reads_only_the_diff_entries_it_returns() {
    const PICKS: [usize; 2] = [3, 7];
    const LEVELS: usize = 4;
    let cost = |unselected: usize| {
        let dir = TempDir::new("it-select-shape").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::m1()).unwrap();
        let mut set = fleet().to_model_set();
        let mut update = UpdateSaver::new();
        let mut chain = vec![update.save_initial(&env, &set).unwrap()];
        for level in 0..LEVELS {
            // Model 3 changes at every level, model 7 at none.
            for i in std::iter::once(3).chain(10..10 + unselected) {
                set.models[i].layers[1].data[level] += 1.0;
            }
            let deriv = Derivation {
                base: chain.last().unwrap().clone(),
                train: TrainConfig::regression_default(0),
                updates: vec![],
            };
            chain.push(update.save_set(&env, &set, Some(&deriv)).unwrap());
        }
        let head = chain.last().unwrap();
        let (got, m) = env.measure(|| update.recover_models(&env, head, &PICKS).unwrap());
        assert_eq!(got, PICKS.map(|i| set.models[i].clone()));
        m.stats
    };
    let (few, many) = (cost(2), cost(100));
    assert_eq!(few.total_ops(), many.total_ops());
    assert_eq!(few.blob_gets, many.blob_gets);
    // One ranged get per picked model of the base snapshot, then per
    // level the directory and the one run of model 3's entry.
    assert_eq!(few.blob_gets as usize, PICKS.len() + LEVELS * 2);
    // The extra bytes are each level's 98 more directory entries and
    // the two more digits of its document's `n_changed_layers`; no
    // payload byte of an unselected model is read.
    assert_eq!(
        many.bytes_read - few.bytes_read,
        (LEVELS * (12 * 98 + 2)) as u64
    );
}

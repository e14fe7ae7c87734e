//! Timing-shape tests: with the calibrated latency profiles, the
//! qualitative claims of Figures 4 and 5 must hold at modest scale.
//! Absolute seconds are calibration, but orderings, flatness and the
//! staircase are structural consequences of the op counts.

use std::time::Duration;

use mmm::core::approach::{
    BaselineSaver, MmlibBaseSaver, ModelSetSaver, UpdateSaver,
};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{Derivation, ModelSetId};
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

//! The end-to-end evaluation scenario (paper Figure 2).
//!
//! One scenario run = one fleet, one environment, all four approaches
//! saving every use case's model set, then recovering every saved set.
//! Every (approach, use case) cell yields storage bytes, TTS and TTR.
//!
//! Two fidelity knobs mirror the paper's own methodology:
//!
//! * `prov_reduced` — §4.4: "to reduce the training time for the
//!   recovery process of Provenance, we — exclusively for this approach —
//!   only train one model with reduced data per iteration of U3". When
//!   set, the derivation handed to the Provenance saver is truncated the
//!   same way (the TTR staircase shape is preserved; absolute recovery
//!   time shrinks enough to run many trials).
//! * `verify_roundtrip` — recover every saved set and assert it equals
//!   the materialized fleet snapshot bit-for-bit (used by tests; costs
//!   memory proportional to `n_cycles × set size`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use mmm_core::approach::{ApproachKind, ApproachSpec, ModelSetSaver};
use mmm_core::env::ManagementEnv;
use mmm_core::model_set::{Derivation, ModelSet, ModelSetId, ModelUpdate};
use mmm_dnn::ArchitectureSpec;
use mmm_obs::Observer;
use mmm_store::{LatencyProfile, StorageBackend};
use mmm_util::{Error, Result};
use mmm_workload::{DataSource, Fleet, FleetConfig, UpdatePolicy};

/// The approaches in the paper's presentation order.
pub const APPROACHES: [&str; 4] = ["mmlib-base", "baseline", "update", "provenance"];

/// Configuration of one scenario run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Fleet size (paper: 5000).
    pub n_models: usize,
    /// Number of U3 update cycles (paper: 3).
    pub n_cycles: usize,
    /// Shared model architecture.
    pub arch: ArchitectureSpec,
    /// Combined update rate (paper default 0.10, split half full / half
    /// partial).
    pub update_rate: f64,
    /// Store latency profile (`m1`, `server`, or `zero`).
    pub profile: LatencyProfile,
    /// Training-data source.
    pub source: DataSource,
    /// Root seed.
    pub seed: u64,
    /// Reduced provenance recording for timing runs (see module docs).
    pub prov_reduced: bool,
    /// Assert recovered sets equal materialized sets (tests).
    pub verify_roundtrip: bool,
    /// Worker threads for the save/recover hot paths (1 = sequential).
    /// Simulated TTS/TTR charge the critical path across lanes, so
    /// results stay comparable across thread counts; wall clock drops.
    pub threads: usize,
    /// Observer wired into the environment; contexts are set to
    /// `approach/use-case` and each measured op runs inside a
    /// `save`/`recover` span, so the per-phase breakdown groups per
    /// scenario cell. Disabled by default (zero overhead).
    pub observer: Observer,
    /// Blob storage backend (plain files or content-addressed chunks).
    pub backend: StorageBackend,
    /// CAS recovery-cache budget in bytes (`None` = backend default;
    /// ignored on the plain backend).
    pub cache_bytes: Option<u64>,
}

impl ExperimentConfig {
    /// A fast, small configuration for tests.
    pub fn small(n_models: usize, n_cycles: usize) -> Self {
        ExperimentConfig {
            n_models,
            n_cycles,
            arch: mmm_dnn::Architectures::ffnn48(),
            update_rate: 0.10,
            profile: LatencyProfile::zero(),
            source: DataSource::battery_small(),
            seed: 7,
            prov_reduced: false,
            verify_roundtrip: false,
            threads: 1,
            observer: Observer::disabled(),
            backend: StorageBackend::Plain,
            cache_bytes: None,
        }
    }

    /// The paper's default scenario at full scale.
    ///
    /// Unlike the paper we can afford `prov_reduced: false` by default:
    /// our deterministic training is cheap enough to really retrain all
    /// updated models during provenance recovery. The `provttr`
    /// harness target reproduces the paper's reduced methodology.
    pub fn paper_default(profile: LatencyProfile) -> Self {
        ExperimentConfig {
            n_models: 5000,
            n_cycles: 3,
            arch: mmm_dnn::Architectures::ffnn48(),
            update_rate: 0.10,
            profile,
            source: DataSource::battery_default(),
            seed: 7,
            prov_reduced: false,
            verify_roundtrip: false,
            threads: 1,
            observer: Observer::disabled(),
            backend: StorageBackend::Plain,
            cache_bytes: None,
        }
    }

    /// Set the worker-thread budget for save/recover hot paths.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attach an observer; the scenario runner wires it into the
    /// environment and annotates every save/recover with context + spans.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Select the blob storage backend.
    pub fn with_backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the CAS recovery-cache budget in bytes.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }
}

/// Measurements of one (approach, use case) cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UseCaseCell {
    /// Bytes written by the save (the paper's storage-consumption metric).
    pub storage_bytes: u64,
    /// Time-to-save (hybrid: real + simulated store latency).
    pub tts: Duration,
    /// Time-to-recover.
    pub ttr: Duration,
    /// Simulated-store share of the TTS (thread-count invariant up to
    /// critical-path scheduling; what the phase breakdown sums to).
    pub tts_sim: Duration,
    /// Simulated-store share of the TTR.
    pub ttr_sim: Duration,
}

/// All measurements of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Use-case labels: `["U1", "U3-1", ...]`.
    pub use_cases: Vec<String>,
    /// Rows per approach (in [`APPROACHES`] order), one cell per use case.
    pub cells: BTreeMap<String, Vec<UseCaseCell>>,
}

impl ScenarioResult {
    /// The cells of one approach.
    ///
    /// # Panics
    /// Panics if the approach was not part of the run.
    pub fn row(&self, approach: &str) -> &[UseCaseCell] {
        &self.cells[approach]
    }

    /// Element-wise median over several runs (the paper reports the
    /// median of five runs for TTS/TTR; storage is constant).
    pub fn median(runs: &[ScenarioResult]) -> ScenarioResult {
        assert!(!runs.is_empty(), "median of zero runs");
        let first = &runs[0];
        let mut cells = BTreeMap::new();
        for (approach, row) in &first.cells {
            let merged: Vec<UseCaseCell> = (0..row.len())
                .map(|uc| {
                    let mut tts: Vec<Duration> =
                        runs.iter().map(|r| r.cells[approach][uc].tts).collect();
                    let mut ttr: Vec<Duration> =
                        runs.iter().map(|r| r.cells[approach][uc].ttr).collect();
                    tts.sort();
                    ttr.sort();
                    UseCaseCell {
                        storage_bytes: row[uc].storage_bytes,
                        tts: tts[tts.len() / 2],
                        ttr: ttr[ttr.len() / 2],
                        tts_sim: row[uc].tts_sim,
                        ttr_sim: row[uc].ttr_sim,
                    }
                })
                .collect();
            cells.insert(approach.clone(), merged);
        }
        ScenarioResult { use_cases: first.use_cases.clone(), cells }
    }
}

/// Truncate a derivation to the paper's reduced provenance-timing form:
/// one updated model, trained on a 64-sample prefix of its data.
fn reduce_derivation(env: &ManagementEnv, deriv: &Derivation) -> Result<Derivation> {
    let Some(first) = deriv.updates.first() else {
        return Ok(deriv.clone());
    };
    let full = env.registry().get(&first.dataset)?;
    let reduced = full.truncated(64);
    let dref = env.registry().put(&reduced)?;
    Ok(Derivation {
        base: deriv.base.clone(),
        train: deriv.train,
        updates: vec![ModelUpdate { dataset: dref, ..first.clone() }],
    })
}

/// Run one full scenario in `dir`. Returns per-cell measurements.
pub fn run_scenario(cfg: &ExperimentConfig, dir: &Path) -> Result<ScenarioResult> {
    let mut builder = ManagementEnv::builder(dir, cfg.profile)
        .threads(cfg.threads)
        .observer(cfg.observer.clone())
        .backend(cfg.backend);
    if let Some(bytes) = cfg.cache_bytes {
        builder = builder.cache_bytes(bytes);
    }
    let env = builder.open()?;
    run_scenario_in_env(cfg, &env)
}

/// Run one full scenario against a pre-built environment (the caller
/// keeps access to its stats, lane history and observer afterwards).
pub fn run_scenario_in_env(cfg: &ExperimentConfig, env: &ManagementEnv) -> Result<ScenarioResult> {
    let mut fleet = Fleet::initial(FleetConfig {
        n_models: cfg.n_models,
        seed: cfg.seed,
        arch: cfg.arch.clone(),
    });
    let mut policy = UpdatePolicy::paper_default(cfg.source.clone()).with_update_rate(cfg.update_rate);
    if let DataSource::Cifar { .. } = cfg.source {
        policy.train = mmm_dnn::TrainConfig {
            epochs: 1,
            ..mmm_dnn::TrainConfig::classification_default(0)
        };
        // The CIFAR CNN has 3 parametric layers; partial updates retrain
        // the middle conv layer.
        policy.partial_layers = vec![1];
    }

    let mut savers: Vec<Box<dyn ModelSetSaver>> = ApproachKind::ALL
        .iter()
        .map(|&kind| ApproachSpec::new(kind).build())
        .collect();

    let mut use_cases = vec!["U1".to_string()];
    let mut cells: BTreeMap<String, Vec<UseCaseCell>> = APPROACHES
        .iter()
        .map(|a| (a.to_string(), Vec::new()))
        .collect();
    // ids[approach][use_case]
    let mut ids: BTreeMap<String, Vec<ModelSetId>> =
        APPROACHES.iter().map(|a| (a.to_string(), Vec::new())).collect();
    // Materialized snapshots for verification (only kept when verifying).
    let mut snapshots: Vec<ModelSet> = Vec::new();

    // ---- U1: save the initial set with every approach. ----
    let initial = fleet.to_model_set();
    for saver in &mut savers {
        let name = saver.name().to_string();
        env.obs().set_context(format!("{name}/U1"));
        let (id, m) = env.measure(|| {
            let _op = env.obs().span_idx("save", 0);
            saver.save_initial(env, &initial)
        });
        let id = id?;
        cells.get_mut(&name).expect("known approach").push(UseCaseCell {
            storage_bytes: m.bytes_written(),
            tts: m.duration,
            ttr: Duration::ZERO,
            tts_sim: m.sim,
            ttr_sim: Duration::ZERO,
        });
        ids.get_mut(&name).expect("known approach").push(id);
    }
    if cfg.verify_roundtrip {
        snapshots.push(initial);
    }

    // ---- U3 cycles: update the fleet, save with every approach. ----
    for cycle in 1..=cfg.n_cycles {
        use_cases.push(format!("U3-{cycle}"));
        let record = fleet.run_update_cycle(env.registry(), &policy)?;
        let set = fleet.to_model_set();
        for saver in &mut savers {
            let name = saver.name().to_string();
            let base = ids[&name].last().expect("U1 saved first").clone();
            let deriv = record.derivation(base);
            let deriv = if cfg.prov_reduced && name == "provenance" {
                reduce_derivation(env, &deriv)?
            } else {
                deriv
            };
            env.obs().set_context(format!("{name}/U3-{cycle}"));
            let (id, m) = env.measure(|| {
                let _op = env.obs().span_idx("save", cycle as u64);
                saver.save_set(env, &set, Some(&deriv))
            });
            let id = id?;
            cells.get_mut(&name).expect("known approach").push(UseCaseCell {
                storage_bytes: m.bytes_written(),
                tts: m.duration,
                ttr: Duration::ZERO,
                tts_sim: m.sim,
                ttr_sim: Duration::ZERO,
            });
            ids.get_mut(&name).expect("known approach").push(id);
        }
        if cfg.verify_roundtrip {
            snapshots.push(set);
        }
    }

    // ---- TTR: recover every saved set. ----
    for saver in &savers {
        let name = saver.name().to_string();
        for (uc, id) in ids[&name].iter().enumerate() {
            env.obs().set_context(format!("{name}/{}", use_cases[uc]));
            let (recovered, m) = env.measure(|| {
                let _op = env.obs().span_idx("recover", uc as u64);
                saver.recover_set(env, id)
            });
            let recovered = recovered?;
            let cell = &mut cells.get_mut(&name).expect("known approach")[uc];
            cell.ttr = m.duration;
            cell.ttr_sim = m.sim;
            if cfg.verify_roundtrip {
                // Reduced provenance intentionally records less than the
                // materialized set — skip its equality check (paper §4.4).
                let skip = cfg.prov_reduced && name == "provenance" && uc > 0;
                if !skip && recovered != snapshots[uc] {
                    return Err(Error::corrupt(format!(
                        "{name} recovered a different set for use case {}",
                        use_cases[uc]
                    )));
                }
            }
        }
    }

    Ok(ScenarioResult { use_cases, cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::TempDir;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig {
            verify_roundtrip: true,
            arch: mmm_dnn::Architectures::ffnn(6),
            ..ExperimentConfig::small(12, 2)
        }
    }

    #[test]
    fn scenario_runs_and_verifies_roundtrips() {
        let dir = TempDir::new("mmm-exp").unwrap();
        let r = run_scenario(&small_cfg(), dir.path()).unwrap();
        assert_eq!(r.use_cases, vec!["U1", "U3-1", "U3-2"]);
        for a in APPROACHES {
            assert_eq!(r.row(a).len(), 3, "{a}");
            assert!(r.row(a).iter().all(|c| c.storage_bytes > 0));
        }
    }

    #[test]
    fn storage_ordering_matches_figure3() {
        // The ordering provenance < update needs a realistic scale: the
        // provenance record has a ~5 KB constant part (train config +
        // environment) that only amortizes over enough models.
        let cfg = ExperimentConfig {
            arch: mmm_dnn::Architectures::ffnn(16),
            n_cycles: 2,
            ..ExperimentConfig::small(60, 2)
        };
        let dir = TempDir::new("mmm-exp").unwrap();
        let r = run_scenario(&cfg, dir.path()).unwrap();
        // U1: MMlib-base > {Baseline, Provenance}; Update adds hash info.
        let u1 = |a: &str| r.row(a)[0].storage_bytes;
        assert!(u1("mmlib-base") > u1("baseline"));
        assert!(u1("update") > u1("baseline"));
        // Identical up to the approach-name string in the metadata doc.
        assert!(u1("provenance").abs_diff(u1("baseline")) < 16, "U1 provenance uses baseline logic");
        // U3: provenance < update < baseline <= mmlib-base.
        for uc in 1..3 {
            let s = |a: &str| r.row(a)[uc].storage_bytes;
            assert!(s("provenance") < s("update"), "uc {uc}");
            assert!(s("update") < s("baseline"), "uc {uc}");
            assert!(s("baseline") < s("mmlib-base"), "uc {uc}");
        }
    }

    #[test]
    fn reduced_provenance_still_recovers_and_shrinks_storage() {
        let dir = TempDir::new("mmm-exp").unwrap();
        // Needs enough parameter volume for the ~5 KB constant provenance
        // record to be the smaller artifact (see ordering test above).
        let cfg = ExperimentConfig {
            prov_reduced: true,
            arch: mmm_dnn::Architectures::ffnn(16),
            ..ExperimentConfig::small(60, 2)
        };
        let r = run_scenario(&cfg, dir.path()).unwrap();
        let prov = r.row("provenance");
        assert!(prov[1].storage_bytes < r.row("baseline")[1].storage_bytes);
        assert!(prov[1].ttr > Duration::ZERO);
    }

    #[test]
    fn median_takes_elementwise_middle() {
        let dir = TempDir::new("mmm-exp").unwrap();
        let cfg = ExperimentConfig { verify_roundtrip: false, ..small_cfg() };
        let r1 = run_scenario(&cfg, dir.path()).unwrap();
        let m = ScenarioResult::median(&[r1.clone(), r1.clone(), r1.clone()]);
        assert_eq!(m.row("baseline")[0].storage_bytes, r1.row("baseline")[0].storage_bytes);
    }
}

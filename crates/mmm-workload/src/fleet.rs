//! The model fleet and its update cycles.

use crate::source::DataSource;
use mmm_core::apply_update::apply_update;
use mmm_core::model_set::{Derivation, ModelSet, ModelSetId, ModelUpdate, UpdateKind};
use mmm_data::DatasetRegistry;
use mmm_dnn::{ArchitectureSpec, ParamDict, TrainConfig};
use mmm_util::{Result, Rng, SplitMix64, Xoshiro256pp};

/// Configuration of the initial fleet (use case U1).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of models (`n >> 1000` in the paper; shrink for tests).
    pub n_models: usize,
    /// Root seed: drives initialization, selection and training.
    pub seed: u64,
    /// The shared architecture.
    pub arch: ArchitectureSpec,
}

/// How an update cycle (use case U3) selects and trains models.
#[derive(Debug, Clone)]
pub struct UpdatePolicy {
    /// Fraction of models that receive a full update (paper: 0.05).
    pub full_fraction: f64,
    /// Fraction of models that receive a partial update (paper: 0.05).
    pub partial_fraction: f64,
    /// Which parametric layers a partial update retrains.
    pub partial_layers: Vec<usize>,
    /// The shared training configuration (per-model seeds are derived).
    pub train: TrainConfig,
    /// Where training data comes from.
    pub source: DataSource,
    /// How updated models are selected.
    pub selection: SelectionStrategy,
}

/// How an update cycle decides *which* models to retrain.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionStrategy {
    /// Uniformly random selection (the evaluation's modeling choice —
    /// selection does not influence storage/TTS/TTR shapes).
    Random,
    /// The paper's motivating mechanism made concrete: "only a subset of
    /// models has diverged significantly from their expected behavior and
    /// needs updating". Every model is evaluated on a fresh probe
    /// dataset of its entity's *current* behavior; the worst-performing
    /// models receive full updates, the next tier partial updates.
    DivergenceDriven {
        /// Probe samples per model (evaluation only, never trained on).
        probe_samples: usize,
    },
}

impl UpdatePolicy {
    /// The paper's default: 5 % full + 5 % partial updates on battery
    /// data, partial updates retraining the two middle hidden layers.
    pub fn paper_default(source: DataSource) -> Self {
        UpdatePolicy {
            full_fraction: 0.05,
            partial_fraction: 0.05,
            partial_layers: vec![1, 2],
            train: TrainConfig { epochs: 1, ..TrainConfig::regression_default(0) },
            source,
            selection: SelectionStrategy::Random,
        }
    }

    /// Switch to divergence-driven selection.
    pub fn with_divergence_selection(mut self, probe_samples: usize) -> Self {
        self.selection = SelectionStrategy::DivergenceDriven { probe_samples };
        self
    }

    /// Scale both fractions so the combined update rate is `rate`
    /// (split evenly between full and partial, like the paper's 10 %,
    /// 20 %, 30 % experiments).
    pub fn with_update_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.full_fraction = rate / 2.0;
        self.partial_fraction = rate / 2.0;
        self
    }
}

/// The approach-agnostic record of one update cycle: everything a saver
/// needs to build its [`Derivation`].
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRecord {
    /// Which update cycle this was (1-based; U3-1 is cycle 1).
    pub update_cycle: u64,
    /// Shared training configuration.
    pub train: TrainConfig,
    /// Per-model updates (sorted by model index).
    pub updates: Vec<ModelUpdate>,
}

impl UpdateRecord {
    /// Bind the record to an approach-specific base set id.
    pub fn derivation(&self, base: ModelSetId) -> Derivation {
        Derivation { base, train: self.train, updates: self.updates.clone() }
    }
}

/// The in-memory fleet: current parameters of every model.
#[derive(Debug, Clone)]
pub struct Fleet {
    cfg: FleetConfig,
    models: Vec<ParamDict>,
    update_cycle: u64,
}

impl Fleet {
    /// Create the initial fleet (U1): `n` models with independent,
    /// seed-derived initializations.
    pub fn initial(cfg: FleetConfig) -> Self {
        assert!(cfg.n_models > 0, "fleet must contain at least one model");
        let models = (0..cfg.n_models)
            .map(|i| {
                let seed = SplitMix64::derive(cfg.seed, "model-init", i as u64);
                cfg.arch.build(seed).export_param_dict()
            })
            .collect();
        Fleet { cfg, models, update_cycle: 0 }
    }

    /// The shared architecture.
    pub fn arch(&self) -> &ArchitectureSpec {
        &self.cfg.arch
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when the fleet is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// How many update cycles have run.
    pub fn update_cycle(&self) -> u64 {
        self.update_cycle
    }

    /// Snapshot the fleet as a model set.
    pub fn to_model_set(&self) -> ModelSet {
        ModelSet::new(self.cfg.arch.clone(), self.models.clone())
    }

    /// Restore a fleet's live state (e.g. after reloading persisted CLI
    /// state): replace the parameters and the update-cycle counter.
    ///
    /// # Panics
    /// Panics if the models do not match the fleet's architecture or
    /// count — validated through [`ModelSet::new`].
    pub fn restore(&mut self, models: Vec<ParamDict>, update_cycle: u64) {
        assert_eq!(models.len(), self.cfg.n_models, "restore model count mismatch");
        // Validate layer layout against the architecture.
        let _ = ModelSet::new(self.cfg.arch.clone(), models.clone());
        self.models = models;
        self.update_cycle = update_cycle;
    }

    /// Select which models get full/partial updates this cycle.
    /// Deterministic in `(fleet seed, cycle)`; full and partial sets are
    /// disjoint.
    fn select_updates(&self, policy: &UpdatePolicy, cycle: u64) -> (Vec<usize>, Vec<usize>) {
        let n = self.models.len();
        let n_full = ((n as f64) * policy.full_fraction).round() as usize;
        let n_partial = ((n as f64) * policy.partial_fraction).round() as usize;
        match &policy.selection {
            SelectionStrategy::Random => {
                let mut rng =
                    Xoshiro256pp::new(SplitMix64::derive(self.cfg.seed, "select-updates", cycle));
                let chosen = rng.sample_indices(n, (n_full + n_partial).min(n));
                let full = chosen[..n_full.min(chosen.len())].to_vec();
                let partial = chosen[n_full.min(chosen.len())..].to_vec();
                (full, partial)
            }
            SelectionStrategy::DivergenceDriven { probe_samples } => {
                let mut ranked = self.rank_by_divergence(policy, cycle, *probe_samples);
                ranked.truncate((n_full + n_partial).min(n));
                let full = ranked[..n_full.min(ranked.len())].to_vec();
                let partial = ranked[n_full.min(ranked.len())..].to_vec();
                (full, partial)
            }
        }
    }

    /// Model indices sorted by descending probe loss (most diverged
    /// first). Probe data is seed-separated from training data.
    fn rank_by_divergence(&self, policy: &UpdatePolicy, cycle: u64, probe_samples: usize) -> Vec<usize> {
        use mmm_data::Targets;
        use mmm_dnn::loss::{cross_entropy, mse};

        let probe_seed = SplitMix64::derive(self.cfg.seed, "probe", cycle);
        let mut model = self.cfg.arch.build(0);
        let mut losses: Vec<(usize, f32)> = Vec::with_capacity(self.models.len());
        for (idx, params) in self.models.iter().enumerate() {
            let probe = policy.source.dataset(idx, cycle, probe_seed).truncated(probe_samples);
            model.import_param_dict(params);
            let pred = model.forward(&probe.inputs, false);
            let loss = match &probe.targets {
                Targets::Regression(t) => mse(&pred, t).0,
                Targets::Labels(l) => cross_entropy(&pred, l).0,
            };
            losses.push((idx, loss));
        }
        // Descending loss; ties broken by index for determinism.
        losses.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        losses.into_iter().map(|(i, _)| i).collect()
    }

    /// Run one update cycle (one U3 iteration): select the diverged
    /// models, generate their new training data (registered in
    /// `registry` — the data is persisted outside model management),
    /// retrain them in parallel, and return the update record.
    pub fn run_update_cycle(&mut self, registry: &DatasetRegistry, policy: &UpdatePolicy) -> Result<UpdateRecord> {
        self.update_cycle += 1;
        let cycle = self.update_cycle;
        let (full, partial) = self.select_updates(policy, cycle);

        let mut tasks: Vec<(usize, UpdateKind)> = full
            .into_iter()
            .map(|i| (i, UpdateKind::Full))
            .chain(
                partial
                    .into_iter()
                    .map(|i| (i, UpdateKind::Partial { layers: policy.partial_layers.clone() })),
            )
            .collect();
        tasks.sort_by_key(|(i, _)| *i);

        // Train in parallel: every task is independent and seed-isolated,
        // so chunking across threads cannot change any result.
        let arch = &self.cfg.arch;
        let models = &self.models;
        let seed = self.cfg.seed;
        let train = policy.train;
        let source = &policy.source;

        let n_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let chunk = tasks.len().div_ceil(n_threads).max(1);
        let results: Vec<Result<Vec<(usize, ParamDict, ModelUpdate)>>> = std::thread::scope(|s| {
            let handles: Vec<_> = tasks
                .chunks(chunk)
                .map(|chunk_tasks| {
                    s.spawn(move || -> Result<Vec<(usize, ParamDict, ModelUpdate)>> {
                        let mut out = Vec::with_capacity(chunk_tasks.len());
                        for (idx, kind) in chunk_tasks {
                            let dataset = source.dataset(*idx, cycle, seed);
                            let dref = registry.put(&dataset)?;
                            let update = ModelUpdate {
                                model_idx: *idx,
                                kind: kind.clone(),
                                dataset: dref,
                                seed: SplitMix64::derive(
                                    seed,
                                    "train-update",
                                    cycle << 32 | *idx as u64,
                                ),
                            };
                            let params =
                                apply_update(arch, &models[*idx], &update, &train, &dataset);
                            out.push((*idx, params, update));
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let mut updates = Vec::with_capacity(tasks.len());
        for r in results {
            for (idx, params, update) in r? {
                self.models[idx] = params;
                updates.push(update);
            }
        }
        updates.sort_by_key(|u| u.model_idx);
        Ok(UpdateRecord { update_cycle: cycle, train, updates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_dnn::Architectures;
    use mmm_util::TempDir;

    fn fleet(n: usize) -> Fleet {
        Fleet::initial(FleetConfig {
            n_models: n,
            seed: 1,
            arch: Architectures::ffnn(6),
        })
    }

    fn registry() -> (TempDir, DatasetRegistry) {
        let dir = TempDir::new("mmm-fleet").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        (dir, reg)
    }

    #[test]
    fn initial_fleet_has_distinct_models() {
        let f = fleet(5);
        assert_eq!(f.len(), 5);
        assert_eq!(f.update_cycle(), 0);
        for i in 1..5 {
            assert_ne!(f.to_model_set().models[0], f.to_model_set().models[i]);
        }
    }

    #[test]
    fn initial_fleet_is_deterministic() {
        assert_eq!(fleet(4).to_model_set(), fleet(4).to_model_set());
    }

    #[test]
    fn update_cycle_touches_exactly_the_selected_fraction() {
        let (_d, reg) = registry();
        let mut f = fleet(20);
        let before = f.to_model_set();
        let policy = UpdatePolicy {
            full_fraction: 0.10,  // 2 models
            partial_fraction: 0.10, // 2 models
            ..UpdatePolicy::paper_default(DataSource::battery_small())
        };
        let record = f.run_update_cycle(&reg, &policy).unwrap();
        assert_eq!(record.updates.len(), 4);
        assert_eq!(record.update_cycle, 1);
        let after = f.to_model_set();
        let updated: Vec<usize> = record.updates.iter().map(|u| u.model_idx).collect();
        for i in 0..20 {
            if updated.contains(&i) {
                assert_ne!(before.models[i], after.models[i], "model {i} should change");
            } else {
                assert_eq!(before.models[i], after.models[i], "model {i} must not change");
            }
        }
    }

    #[test]
    fn partial_updates_only_touch_policy_layers() {
        let (_d, reg) = registry();
        let mut f = fleet(10);
        let before = f.to_model_set();
        let policy = UpdatePolicy {
            full_fraction: 0.0,
            partial_fraction: 0.2,
            partial_layers: vec![1],
            ..UpdatePolicy::paper_default(DataSource::battery_small())
        };
        let record = f.run_update_cycle(&reg, &policy).unwrap();
        let after = f.to_model_set();
        for u in &record.updates {
            assert!(matches!(u.kind, UpdateKind::Partial { .. }));
            let (b, a) = (&before.models[u.model_idx], &after.models[u.model_idx]);
            assert_eq!(b.layers[0], a.layers[0]);
            assert_ne!(b.layers[1], a.layers[1]);
            assert_eq!(b.layers[2], a.layers[2]);
            assert_eq!(b.layers[3], a.layers[3]);
        }
    }

    #[test]
    fn update_cycles_are_deterministic_despite_parallelism() {
        let run = || {
            let (_d, reg) = registry();
            let mut f = fleet(16);
            let policy = UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.5);
            let r1 = f.run_update_cycle(&reg, &policy).unwrap();
            let r2 = f.run_update_cycle(&reg, &policy).unwrap();
            (f.to_model_set(), r1, r2)
        };
        let (s_a, r1_a, r2_a) = run();
        let (s_b, r1_b, r2_b) = run();
        assert_eq!(s_a, s_b);
        assert_eq!(r1_a, r1_b);
        assert_eq!(r2_a, r2_b);
    }

    #[test]
    fn datasets_land_in_the_registry() {
        let (_d, reg) = registry();
        let mut f = fleet(10);
        let policy = UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.4);
        let record = f.run_update_cycle(&reg, &policy).unwrap();
        for u in &record.updates {
            assert!(reg.contains(&u.dataset), "dataset of model {} missing", u.model_idx);
        }
    }

    #[test]
    fn with_update_rate_splits_evenly() {
        let p = UpdatePolicy::paper_default(DataSource::battery_small()).with_update_rate(0.3);
        assert!((p.full_fraction - 0.15).abs() < 1e-12);
        assert!((p.partial_fraction - 0.15).abs() < 1e-12);
    }

    #[test]
    fn selection_differs_across_cycles() {
        let f = fleet(50);
        let policy = UpdatePolicy::paper_default(DataSource::battery_small());
        let (f1, p1) = f.select_updates(&policy, 1);
        let (f2, p2) = f.select_updates(&policy, 2);
        assert!(f1 != f2 || p1 != p2, "different cycles select different models");
    }

    #[test]
    fn divergence_selection_targets_the_worst_models() {
        let (_d, reg) = registry();
        let mut f = fleet(20);
        // Train every model decently on its own cycle-1 data first, so
        // the fleet starts from comparable quality...
        let warmup = UpdatePolicy {
            full_fraction: 1.0,
            partial_fraction: 0.0,
            train: TrainConfig { epochs: 3, ..TrainConfig::regression_default(0) },
            ..UpdatePolicy::paper_default(DataSource::battery_small())
        };
        f.run_update_cycle(&reg, &warmup).unwrap();
        // ...then sabotage two models.
        let sabotage = [4usize, 13];
        for &i in &sabotage {
            for l in &mut f.models[i].layers {
                for v in &mut l.data {
                    *v = 3.0;
                }
            }
        }
        let policy = UpdatePolicy {
            full_fraction: 0.10, // exactly 2 full updates
            partial_fraction: 0.0,
            ..UpdatePolicy::paper_default(DataSource::battery_small())
        }
        .with_divergence_selection(32);
        let (full, partial) = f.select_updates(&policy, 2);
        assert!(partial.is_empty());
        let mut got = full.clone();
        got.sort_unstable();
        assert_eq!(got, sabotage.to_vec(), "the sabotaged models must rank worst");
    }

    #[test]
    fn divergence_selection_is_deterministic() {
        let policy = UpdatePolicy::paper_default(DataSource::battery_small())
            .with_divergence_selection(16);
        let a = fleet(12).select_updates(&policy, 1);
        let b = fleet(12).select_updates(&policy, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn divergence_driven_cycle_runs_end_to_end() {
        let (_d, reg) = registry();
        let mut f = fleet(12);
        let policy = UpdatePolicy::paper_default(DataSource::battery_small())
            .with_update_rate(0.5)
            .with_divergence_selection(16);
        let record = f.run_update_cycle(&reg, &policy).unwrap();
        assert_eq!(record.updates.len(), 6);
    }

    #[test]
    fn record_binds_to_any_base_id() {
        let record = UpdateRecord {
            update_cycle: 1,
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        let base = ModelSetId { approach: "update".into(), key: "3".into() };
        let d = record.derivation(base.clone());
        assert_eq!(d.base, base);
    }
}

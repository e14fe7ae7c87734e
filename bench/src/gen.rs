//! Seeded input generation: fleets, update histories, digests for the
//! correctness oracle, and the model selections of selective recovers.
//!
//! Everything here is a pure function of the seed. The program under
//! test only ever receives the generated model sets and derivations.

use mmm_core::model_set::{Derivation, ModelSet, ModelSetId, UpdateKind};
use mmm_data::{Dataset, DatasetRegistry};
use mmm_dnn::{ArchitectureSpec, Architectures, ParamDict, TrainConfig};
use mmm_util::{Result, Rng, SplitMix64, Xoshiro256pp};
use mmm_workload::{DataSource, Fleet, FleetConfig, UpdatePolicy, UpdateRecord};

/// The paper's update rate: 5 % of the models retrained fully and 5 %
/// partially (the two middle layers) per update cycle.
pub const FULL_FRACTION: f64 = 0.05;
pub const PARTIAL_FRACTION: f64 = 0.05;
pub const PARTIAL_LAYERS: [usize; 2] = [1, 2];

/// Models asked for by one selective recover.
pub const SELECT_MODELS: usize = 10;

pub fn arch() -> ArchitectureSpec {
    Architectures::ffnn48()
}

pub fn rng(seed: u64, label: &str, index: u64) -> Xoshiro256pp {
    Xoshiro256pp::new(SplitMix64::derive(seed, label, index))
}

/// Per-layer content hashes of a whole set, row-major `[model][layer]`:
/// what the oracle keeps of a saved version.
pub fn digest(models: &[ParamDict]) -> Vec<u64> {
    models.iter().flat_map(ParamDict::layer_hashes).collect()
}

/// Whether `models` are models `indices` of the set whose [`digest`] is
/// given: the oracle of a selective recover.
pub fn models_match(
    models: &[ParamDict],
    indices: &[usize],
    digest: &[u64],
    layers_per_model: usize,
) -> bool {
    models.len() == indices.len()
        && indices.iter().zip(models).all(|(&i, m)| {
            m.layer_hashes() == digest[i * layers_per_model..(i + 1) * layers_per_model]
        })
}

/// User bytes of one version: `n · params · 4`.
pub fn user_bytes(set: &ModelSet) -> u64 {
    4 * set.total_params() as u64
}

/// One retraining of one model in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub model: usize,
    pub full: bool,
}

fn nudge(data: &mut [f32], rng: &mut impl Rng) {
    for x in data {
        *x += rng.uniform(-0.01, 0.01);
    }
}

/// Stand-in for one update cycle where training itself is not under
/// test: nudge every parameter of 5 % of the models and the middle
/// layers of another 5 %, so the stored bytes and changed-layer pattern
/// match a real cycle at the paper's rate. Returns who changed.
pub fn perturb(set: &mut ModelSet, rng: &mut impl Rng) -> Vec<Event> {
    let n = set.len();
    let n_full = ((n as f64) * FULL_FRACTION).round() as usize;
    let n_partial = ((n as f64) * PARTIAL_FRACTION).round() as usize;
    let chosen = rng.sample_indices(n, (n_full + n_partial).min(n));
    let mut events = Vec::with_capacity(chosen.len());
    for (k, &model) in chosen.iter().enumerate() {
        let full = k < n_full;
        for (li, layer) in set.models[model].layers.iter_mut().enumerate() {
            if full || PARTIAL_LAYERS.contains(&li) {
                nudge(&mut layer.data, rng);
            }
        }
        events.push(Event { model, full });
    }
    events
}

/// Give every layer of every model new content (a new chain's U1).
pub fn renew(set: &mut ModelSet, rng: &mut impl Rng) {
    for m in &mut set.models {
        for l in &mut m.layers {
            nudge(&mut l.data, rng);
        }
    }
}

pub fn initial_fleet(n_models: usize, seed: u64) -> Fleet {
    Fleet::initial(FleetConfig {
        n_models,
        seed,
        arch: arch(),
    })
}

/// The derivation handed to `save_set` for a perturbed version: Baseline
/// ignores it and Update reads only `base`.
pub fn synthetic_derivation(base: ModelSetId) -> Derivation {
    Derivation {
        base,
        train: TrainConfig::regression_default(0),
        updates: Vec::new(),
    }
}

/// U1 plus `versions - 1` update cycles, materialised.
pub struct History {
    pub versions: Vec<ModelSet>,
    pub digests: Vec<Vec<u64>>,
    /// `events[v]`: the retrainings that turned version `v-1` into `v`.
    pub events: Vec<Vec<Event>>,
    /// Real update records (Provenance only), indexed like `events`.
    pub records: Vec<Option<UpdateRecord>>,
    /// The training data those records reference, to be registered in
    /// every round's environment (paper assumption O2: data is persisted
    /// outside model management).
    pub datasets: Vec<Dataset>,
}

impl History {
    /// Perturbation history (Baseline and Update workloads).
    pub fn synthetic(n_models: usize, versions: usize, seed: u64) -> History {
        let mut set = initial_fleet(n_models, seed).to_model_set();
        let mut h = History::starting_at(set.clone());
        for v in 1..versions {
            let events = perturb(&mut set, &mut rng(seed, "perturb", v as u64));
            h.push(set.clone(), events, None);
        }
        h
    }

    /// Real `Fleet::run_update_cycle` history (Provenance workload):
    /// recovery replays exactly these trainings.
    pub fn trained(
        n_models: usize,
        versions: usize,
        seed: u64,
        registry: &DatasetRegistry,
    ) -> Result<History> {
        let mut fleet = initial_fleet(n_models, seed);
        let policy = UpdatePolicy::paper_default(DataSource::battery_small());
        let mut h = History::starting_at(fleet.to_model_set());
        for _ in 1..versions {
            let record = fleet.run_update_cycle(registry, &policy)?;
            let events = record
                .updates
                .iter()
                .map(|u| Event {
                    model: u.model_idx,
                    full: u.kind == UpdateKind::Full,
                })
                .collect();
            for u in &record.updates {
                h.datasets.push(registry.get(&u.dataset)?);
            }
            h.push(fleet.to_model_set(), events, Some(record));
        }
        Ok(h)
    }

    fn starting_at(u1: ModelSet) -> History {
        History {
            digests: vec![digest(u1.models())],
            versions: vec![u1],
            events: vec![Vec::new()],
            records: vec![None],
            datasets: Vec::new(),
        }
    }

    fn push(&mut self, set: ModelSet, events: Vec<Event>, record: Option<UpdateRecord>) {
        self.digests.push(digest(set.models()));
        self.versions.push(set);
        self.events.push(events);
        self.records.push(record);
    }

    pub fn derivation(&self, v: usize, base: ModelSetId) -> Derivation {
        match &self.records[v] {
            Some(record) => record.derivation(base),
            None => synthetic_derivation(base),
        }
    }

    /// Retrainings a whole-set recover of version `v` has to replay.
    pub fn events_up_to(&self, v: usize) -> usize {
        self.events[..=v].iter().map(Vec::len).sum()
    }

    /// The models of one selective recover, drawn at the fleet's typical
    /// retrain load: one model fully retrained exactly once, one
    /// partially retrained exactly once, the rest never retrained.
    ///
    /// Uniform draws would make Provenance's selective TTR multi-modal
    /// (each retrained model in the draw adds one training), and its
    /// median would then jump between modes from seed to seed.
    pub fn selection(&self, rng: &mut impl Rng) -> Vec<usize> {
        let n = self.versions[0].len();
        let mut fulls = vec![0u32; n];
        let mut partials = vec![0u32; n];
        for e in self.events.iter().flatten() {
            if e.full {
                fulls[e.model] += 1;
            } else {
                partials[e.model] += 1;
            }
        }
        let class = |f: u32, p: u32| -> Vec<usize> {
            (0..n)
                .filter(|&m| fulls[m] == f && partials[m] == p)
                .collect()
        };
        let (full_once, partial_once, never) = (class(1, 0), class(0, 1), class(0, 0));
        let mut out = Vec::with_capacity(SELECT_MODELS);
        for pool in [&full_once, &partial_once] {
            if !pool.is_empty() {
                out.push(pool[rng.below(pool.len() as u64) as usize]);
            }
        }
        let want = SELECT_MODELS.min(n);
        let rest = if never.len() >= want - out.len() {
            never
        } else {
            (0..n).collect()
        };
        for i in rng.sample_indices(rest.len(), rest.len()) {
            if out.len() == want {
                break;
            }
            if !out.contains(&rest[i]) {
                out.push(rest[i]);
            }
        }
        rng.shuffle(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_history_is_a_function_of_the_seed() {
        let a = History::synthetic(40, 3, 9);
        let b = History::synthetic(40, 3, 9);
        let c = History::synthetic(40, 3, 10);
        assert_eq!(a.digests, b.digests);
        assert_ne!(a.digests, c.digests);
        assert_eq!(a.events[1].len(), 4, "5 % + 5 % of 40");
        assert_ne!(a.digests[0], a.digests[1]);
    }

    #[test]
    fn perturb_touches_only_the_chosen_layers() {
        let mut set = initial_fleet(40, 1).to_model_set();
        let before = digest(set.models());
        let events = perturb(&mut set, &mut rng(1, "t", 0));
        let after = digest(set.models());
        let layers = set.arch.parametric_layer_sizes().len();
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        let expect: usize = events
            .iter()
            .map(|e| if e.full { layers } else { PARTIAL_LAYERS.len() })
            .sum();
        assert_eq!(changed, expect);
    }

    #[test]
    fn selection_has_one_of_each_retrained_class() {
        let h = History::synthetic(200, 4, 3);
        let sel = h.selection(&mut rng(3, "sel", 0));
        assert_eq!(sel.len(), SELECT_MODELS);
        let hits = |m: usize| h.events.iter().flatten().filter(|e| e.model == m).count();
        assert_eq!(sel.iter().map(|&m| hits(m)).sum::<usize>(), 2);
        let mut uniq = sel.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), SELECT_MODELS);
    }
}

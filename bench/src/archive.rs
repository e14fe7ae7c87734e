//! The three single-client archive workloads: `concat-archive`
//! (Baseline), `delta-chain` (Update) and `provenance-replay`
//! (Provenance), all on the plain backend.
//!
//! One round archives a whole history into a fresh directory (U1, then
//! every update cycle), lists the archive, recovers every version once,
//! and recovers a few models of the newest version several times.
//! Rounds are whole: every version is recovered exactly once per round,
//! so the share of each chain depth among the TTR samples is fixed and
//! a percentile cannot flip between depths from run to run.

use std::path::Path;
use std::time::Instant;

use mmm_core::env::ManagementEnv;
use mmm_core::model_set::ModelSetId;
use mmm_core::{query, tags};
use mmm_data::DatasetRegistry;
use mmm_store::StorageBackend;
use mmm_util::{Error, Result};

use crate::gen::{self, History};
use crate::probe::{self, doc_id, Approach, Replay};
use crate::report::{self, EndToEnd, Layers, OpSamples};
use crate::stats::Samples;
use crate::trace::Recorder;
use crate::{sys, timed, Budget, Opts, Outcome, Scale, Workload};

/// Rounds a time-budgeted run always completes (a traced run needs one
/// untraced and one traced round to compare).
const MIN_ROUNDS: usize = 2;

struct Sizing {
    approach: Approach,
    n_models: usize,
    /// Archived versions per round: U1 plus the update cycles.
    versions: usize,
    /// Selective recovers per round, at the newest version.
    selects: usize,
    /// Repetitions of each of the two catalogue queries per round.
    query_reps: usize,
}

fn sizing(workload: Workload, scale: Scale) -> Sizing {
    let (approach, n_models, versions, selects) = match workload {
        Workload::ConcatArchive => (Approach::Baseline, 2000, 4, 20),
        // Nine versions put the median recover in the middle of the
        // depth-4 samples and the p90 inside the depth-8 samples.
        Workload::DeltaChain => (Approach::Update, 2000, 9, 20),
        // Five versions, not the paper's four: with an even number of
        // depths the median TTR would sit on the edge between two.
        Workload::ProvenanceReplay => (Approach::Provenance, 200, 5, 10),
        Workload::LakeService => unreachable!("lake-service has its own driver"),
    };
    match scale {
        Scale::Full => Sizing {
            approach,
            n_models,
            versions,
            selects,
            query_reps: 10,
        },
        Scale::Tiny => Sizing {
            approach,
            n_models: 40,
            versions: versions.min(4),
            selects: 2,
            query_reps: 1,
        },
    }
}

fn open_env(dir: &Path) -> Result<ManagementEnv> {
    crate::open_env(dir, StorageBackend::Plain)
}

struct Run<'a> {
    opts: &'a Opts,
    sizing: &'a Sizing,
    history: &'a History,
    rec: Recorder,
    /// Samples of untraced rounds, then of traced rounds.
    modes: [OpSamples; 2],
    layers: Layers,
    attempted: u64,
    failed: u64,
    next_op: u64,
    commits: u64,
    stored_bytes: u64,
}

impl Run<'_> {
    fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("FAILED {what}: {why}");
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// One round in its own directory, which is removed afterwards —
    /// outside every timed span — before dirty pages are drained.
    fn round(&mut self, r: usize, traced: bool, keep: bool) -> Result<()> {
        let dir = self.opts.data_dir.join(format!("round-{r}"));
        let env = open_env(&dir.join("env"))?;
        let scratch = if traced {
            Some(open_env(&dir.join("scratch"))?)
        } else {
            None
        };
        let mut ops = OpSamples::default();
        let done = self.round_ops(r, &dir, &env, scratch.as_ref(), &mut ops, keep);
        drop((env, scratch));
        std::fs::remove_dir_all(&dir)?;
        sys::drain_dirty_pages();
        if keep {
            self.modes[usize::from(traced)].absorb(ops);
        }
        done
    }

    fn round_ops(
        &mut self,
        r: usize,
        dir: &Path,
        env: &ManagementEnv,
        scratch: Option<&ManagementEnv>,
        ops: &mut OpSamples,
        keep: bool,
    ) -> Result<()> {
        let h = self.history;
        let approach = self.sizing.approach;
        let arch = &h.versions[0].arch;
        for ds in &h.datasets {
            env.registry().put(ds)?;
        }
        let mut saver = approach.saver();
        let mut ids: Vec<ModelSetId> = Vec::new();
        let mut docs: Vec<u64> = Vec::new();

        for (v, set) in h.versions.iter().enumerate() {
            let deriv = (v > 0).then(|| h.derivation(v, ids[v - 1].clone()));
            let (res, t0, t1, delta) = timed(env, || saver.save_set(env, set, deriv.as_ref()));
            self.attempted += 1;
            let id = match res {
                Ok(id) => id,
                Err(e) => {
                    self.fail("save", e);
                    return Ok(());
                }
            };
            if keep {
                if v == 0 {
                    &mut ops.tts_initial
                } else {
                    &mut ops.tts
                }
                .push_ms(t1 - t0);
                self.layers.save.add(delta, gen::user_bytes(set));
            }
            docs.push(doc_id(&id)?);
            if let Some(scratch) = scratch {
                let op = self.op_id();
                let root = self.rec.root("save", op, t0, t1);
                let mut replay = Replay {
                    rec: &mut self.rec,
                    real: env,
                    scratch,
                    approach,
                    commits: self.commits,
                };
                let out = match (approach, v) {
                    (Approach::Baseline, _) | (_, 0) => replay.save_full(root, set),
                    (Approach::Update, _) => replay.save_diff(root, set, docs[v - 1]),
                    (Approach::Provenance, _) => replay.save_prov(root, h, v, docs[v - 1]),
                };
                self.commits = replay.commits;
                if let Err(e) = out {
                    self.fail("save replay", e);
                }
            }
            ids.push(id);
        }
        tags::tag_set(env, &ids[0], "prod")?;

        // What an operator does before a recover: list the archive
        // (`mmm list`) and look up the tagged set (`mmm find-tag`).
        let n_sets = ids.len();
        for _ in 0..self.sizing.query_reps {
            for (expr, expect) in [("true", n_sets), ("tag:prod", 1)] {
                let (res, t0, t1, delta) = timed(env, || query::run(env, expr));
                self.attempted += 1;
                match res {
                    Ok(out) if out.records.len() == expect && out.scanned == expect => {
                        let l = &mut self.layers;
                        if expr == "true" {
                            l.store_ops_scan = delta.total_ops();
                        } else {
                            l.store_ops_probe = delta.total_ops();
                            l.scanned_probe += out.scanned as u64;
                            l.results_probe += out.records.len() as u64;
                        }
                    }
                    Ok(out) => self.fail(
                        "query",
                        format!(
                            "{expr}: {} records, {} scanned, expected {expect}",
                            out.records.len(),
                            out.scanned
                        ),
                    ),
                    Err(e) => self.fail("query", e),
                }
                if keep {
                    if expr == "true" {
                        &mut ops.q_scan
                    } else {
                        &mut ops.q_probe
                    }
                    .push_ms(t1 - t0);
                }
                if scratch.is_some() {
                    let op = self.op_id();
                    let root = self.rec.root("query", op, t0, t1);
                    if let Err(e) = probe::replay_query(&mut self.rec, root, env, expr, approach) {
                        self.fail("query replay", e);
                    }
                }
            }
        }

        let chain_of = |v: usize| {
            if approach == Approach::Baseline {
                &docs[v..=v]
            } else {
                &docs[..=v]
            }
        };
        let layers_per_model = arch.parametric_layer_sizes().len();
        for (v, id) in ids.iter().enumerate() {
            let (res, t0, t1, delta) = timed(env, || saver.recover_set(env, id));
            self.attempted += 1;
            match res {
                Ok(set) if gen::digest(set.models()) == h.digests[v] => {
                    if keep {
                        ops.ttr.push_ms(t1 - t0);
                        self.layers.recover.add(delta, gen::user_bytes(&set));
                    }
                }
                Ok(_) => self.fail(
                    "recover",
                    format!("version {v} differs from what was saved"),
                ),
                Err(e) => self.fail("recover", e),
            }
            if let Some(scratch) = scratch {
                let op = self.op_id();
                let root = self.rec.root("recover", op, t0, t1);
                let mut replay = Replay {
                    rec: &mut self.rec,
                    real: env,
                    scratch,
                    approach,
                    commits: self.commits,
                };
                if let Err(e) =
                    replay.recover(root, chain_of(v), arch, h.versions[v].len(), Some(h))
                {
                    self.fail("recover replay", e);
                }
            }
        }

        let newest = ids.len() - 1;
        for s in 0..self.sizing.selects {
            let indices = h.selection(&mut gen::rng(
                self.opts.seed,
                "select",
                ((r as u64) << 16) | s as u64,
            ));
            let (res, t0, t1, delta) =
                timed(env, || saver.recover_models(env, &ids[newest], &indices));
            self.attempted += 1;
            match res {
                Ok(models) => {
                    if !gen::models_match(&models, &indices, &h.digests[newest], layers_per_model) {
                        self.fail("select", "recovered models differ from what was saved");
                    } else if keep {
                        ops.select.push_ms(t1 - t0);
                        self.layers
                            .select
                            .add(delta, (indices.len() * 4 * arch.param_count()) as u64);
                    }
                }
                Err(e) => self.fail("select", e),
            }
            if let Some(scratch) = scratch {
                let op = self.op_id();
                let root = self.rec.root("select", op, t0, t1);
                let mut replay = Replay {
                    rec: &mut self.rec,
                    real: env,
                    scratch,
                    approach,
                    commits: self.commits,
                };
                if let Err(e) = replay.select(root, chain_of(newest), arch, &indices, Some(h)) {
                    self.fail("select replay", e);
                }
            }
        }

        // The dataset registry is outside storage accounting (paper
        // assumption O2), so it is outside this ratio too.
        let env_dir = dir.join("env");
        self.stored_bytes = sys::dir_bytes(&env_dir) - sys::dir_bytes(&env_dir.join("datasets"));
        if scratch.is_some() {
            probe::doc_store_probe(env, &env_dir, &mut self.layers)?;
        }
        Ok(())
    }
}

fn build_history(opts: &Opts, sizing: &Sizing) -> Result<History> {
    match sizing.approach {
        Approach::Provenance => {
            let dir = opts.data_dir.join("setup-registry");
            let registry = DatasetRegistry::open(&dir)?;
            let h = History::trained(sizing.n_models, sizing.versions, opts.seed, &registry);
            drop(registry);
            std::fs::remove_dir_all(&dir)?;
            h
        }
        _ => Ok(History::synthetic(
            sizing.n_models,
            sizing.versions,
            opts.seed,
        )),
    }
}

/// One leg: set-up, then whole rounds until the budget is spent.
pub fn run(opts: &Opts) -> Result<Outcome> {
    let sizing = sizing(opts.workload, opts.scale);
    let t0 = Instant::now();

    // Set-up: generate the inputs and run one round unmeasured.
    let start = Instant::now();
    let history = build_history(opts, &sizing)?;
    let mut warm = new_run(opts, &sizing, &history, t0);
    warm.round(0, false, false)?;
    if warm.failed > 0 {
        return Err(Error::invalid("the warm-up round failed"));
    }
    let setup_s = Samples(vec![start.elapsed().as_secs_f64()]);
    let mut run = new_run(opts, &sizing, &history, t0);

    sys::reset_peak_rss();
    let started = Instant::now();
    let mut r = 0;
    loop {
        let spent = started.elapsed().as_secs_f64();
        let stop = match opts.budget {
            Budget::Rounds(n) => r >= n,
            Budget::Seconds(s) => r >= MIN_ROUNDS && spent + spent / r as f64 > s,
        };
        if stop {
            break;
        }
        run.round(r + 1, opts.trace && r % 2 == 1, true)?;
        r += 1;
    }
    let peak_rss_bytes = sys::peak_rss_bytes();

    let metrics = if opts.trace {
        run.layers.plain_backend = true;
        run.layers.generator_threads = 1;
        let [untraced, traced] = run.modes;
        run.layers.lake_sets = sizing.versions as u64;
        run.layers.q_scan_ms = untraced.q_scan.clone();
        run.layers.q_probe_ms = untraced.q_probe.clone();
        run.layers.untraced = untraced;
        run.layers.traced = traced;
        report::per_layer(&run.rec, &run.layers)
    } else {
        let [ops, _] = run.modes;
        report::end_to_end(&EndToEnd {
            setup_s,
            ops_per_s: crate::stats::ratio(ops.requests() as f64, ops.busy_s()),
            ops,
            stored_bytes: run.stored_bytes,
            user_bytes: history.versions.iter().map(gen::user_bytes).sum(),
            peak_rss_bytes,
        })
    };
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        spans: opts.trace.then_some(run.rec),
    })
}

fn new_run<'a>(opts: &'a Opts, sizing: &'a Sizing, history: &'a History, t0: Instant) -> Run<'a> {
    Run {
        opts,
        sizing,
        history,
        rec: Recorder::new(t0, 0),
        modes: Default::default(),
        layers: Layers::default(),
        attempted: 0,
        failed: 0,
        next_op: 0,
        commits: 0,
        stored_bytes: 0,
    }
}

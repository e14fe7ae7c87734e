//! Seeded chaos harness for the fleet frontend.
//!
//! Drives hundreds of concurrent tenant requests through a
//! [`FleetFrontend`] while a seeded fault storm (crashes, torn writes,
//! doc-log bit flips, transient bursts) hits the stores, then kills the
//! environment, reopens it cold, and checks the crash-consistency
//! invariants:
//!
//! 1. **No committed save unreadable** — every save that returned `Ok`
//!    recovers bit-identically after the crash (bit-flip rounds may
//!    instead *lose* a save whose record the checksummed log discarded,
//!    or repair one away — but never serve wrong bits silently).
//! 2. **No uncommitted save visible** — the catalog never lists a save
//!    that did not commit.
//! 3. **Batches are atomic** — a group-commit record commits all its
//!    members or none; after repair no commit record dangles.
//! 4. **fsck converges** — damage is classified, `repair` runs, and a
//!    second scan comes back clean.
//! 5. **Queries agree with the catalog** — a slice of tenant requests
//!    runs query expressions through the frontend mid-storm, and after
//!    every crash `query "true"` must return exactly the sets the
//!    catalog lists (and therefore only committed ones, by invariant 2).
//!
//! Bit flips are armed against the document log only: its checksummed
//! records guarantee detection on replay. Blob-payload flips are the
//! content-addressed backend's domain and are covered by the CAS and
//! fault-injection test suites.
//!
//! Everything is driven by one seed, so a failing run is replayable
//! with `mmm chaos --seed N`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mmm_core::approach::{self, BaselineSaver, UpdateSaver};
use mmm_core::branch;
use mmm_core::fleet::{AdmissionConfig, FleetFrontend, FrontendConfig, Served};
use mmm_core::model_set::{Derivation, ModelSet, ModelSetId};
use mmm_core::{catalog, commit, fsck, query, ManagementEnv};
use mmm_dnn::{Architectures, TrainConfig};
use mmm_store::{FaultInjector, FaultPlan, FaultTarget, LatencyProfile, OpClass};
use mmm_util::{Result, Rng, SplitMix64, Xoshiro256pp};

/// Knobs of one chaos run (see [`run_chaos`]).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed; every fault plan and model parameter derives from it.
    pub seed: u64,
    /// Concurrent worker threads per round.
    pub threads: usize,
    /// Distinct tenant identities the workers share (fewer tenants than
    /// threads ⇒ real admission contention and shedding).
    pub tenants: usize,
    /// Fault rounds (each ends in a simulated crash + cold reopen).
    pub rounds: usize,
    /// Save/recover iterations per worker per round.
    pub iters: usize,
    /// Models per saved set (small: chaos exercises the control plane,
    /// not the codec).
    pub n_models: usize,
    /// Per-request deadline budget.
    pub deadline: Duration,
    /// Group-commit collection window for the environment.
    pub commit_window: Duration,
    /// Per-tenant admission quotas.
    pub admission: AdmissionConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            threads: 8,
            tenants: 4,
            rounds: 13,
            iters: 2,
            n_models: 2,
            deadline: Duration::from_secs(30),
            commit_window: Duration::ZERO,
            admission: AdmissionConfig { per_tenant_inflight: 2, per_tenant_queue: 2 },
        }
    }
}

impl ChaosConfig {
    /// Total tenant-iterations this configuration drives
    /// (`threads × iters × rounds`).
    pub fn tenant_iterations(&self) -> usize {
        self.threads * self.iters * self.rounds
    }
}

/// The storm a round runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Storm {
    /// No faults: pure concurrency.
    Clean,
    /// One-shot crash error at a random write.
    Crash,
    /// Torn write at a random write (partial payload, then death).
    Torn,
    /// Silent bit flip in a document-log append (detected on replay).
    DocFlip,
    /// A burst of transient failures (exercises retry and breakers).
    Transient,
}

impl Storm {
    fn pick(rng: &mut impl Rng) -> Storm {
        match rng.below(5) {
            0 => Storm::Clean,
            1 => Storm::Crash,
            2 => Storm::Torn,
            3 => Storm::DocFlip,
            _ => Storm::Transient,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Storm::Clean => "clean",
            Storm::Crash => "crash",
            Storm::Torn => "torn",
            Storm::DocFlip => "doc-flip",
            Storm::Transient => "transient",
        }
    }
}

/// What one chaos run did and every invariant violation it found.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Total requests issued through the frontend.
    pub requests: u64,
    /// Saves that returned `Ok`.
    pub saves_ok: u64,
    /// Requests that failed (any error: shed, deadline, fault).
    pub request_errors: u64,
    /// Recovers served fresh with the expected bits.
    pub recovers_fresh: u64,
    /// Recovers served from the stale cache.
    pub recovers_stale: u64,
    /// Queries answered through the frontend mid-storm.
    pub queries_ok: u64,
    /// Saves whose commit record a bit-flip round destroyed or repair
    /// removed (allowed only in doc-flip rounds).
    pub saves_lost_to_flips: u64,
    /// Branches forked by the version-graph tenant mix.
    pub branch_forks: u64,
    /// Clean three-way merges performed by the tenant mix.
    pub branch_merges: u64,
    /// Merges that (deliberately) conflicted and wrote nothing.
    pub branch_conflicts: u64,
    /// fsck damage entries classified as expected crash debris.
    pub debris_entries: u64,
    /// Commit records written (group-commit batches).
    pub commit_batches: u64,
    /// Saves committed through those records.
    pub commit_members: u64,
    /// Every invariant violation, human-readable. Empty ⇒ the run passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held in every round.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn small_set(arch_layers: usize, n_models: usize, seed: u64) -> ModelSet {
    let arch = Architectures::ffnn(arch_layers);
    let models = (0..n_models)
        .map(|i| arch.build(seed.wrapping_add(i as u64)).export_param_dict())
        .collect();
    ModelSet::new(arch, models)
}

/// One version-graph tenant iteration: save a fresh update chain, fork
/// two branches off it, advance each with a derived save, and three-way
/// merge them. A quarter of these deliberately collide on the same
/// layer, so the merge must surface a conflict and write nothing.
///
/// Under a storm any step may fail — partial progress is fine (whatever
/// was acknowledged is recorded and must survive the crash); nothing
/// unacknowledged enters the expected map.
#[allow(clippy::too_many_arguments)]
fn branch_iteration(
    env: &ManagementEnv,
    frontend: &FleetFrontend,
    tenant: &str,
    round: usize,
    worker: usize,
    config: &ChaosConfig,
    wrng: &mut impl mmm_util::Rng,
    outcomes: &Mutex<Vec<(ModelSetId, ModelSet)>>,
    counters: &Mutex<[u64; 9]>,
    violations: &Mutex<Vec<String>>,
) {
    let bump = |i: usize, v: u64| {
        counters.lock().unwrap_or_else(|e| e.into_inner())[i] += v;
    };
    let record = |id: &ModelSetId, set: &ModelSet| {
        bump(1, 1);
        outcomes.lock().unwrap_or_else(|e| e.into_inner()).push((id.clone(), set.clone()));
    };
    let conflicting = wrng.below(4) == 0;
    let tag = wrng.next_u64();
    let deadline = Some(config.deadline);
    let mut saver = UpdateSaver::new();
    let base_set = small_set(4, config.n_models, wrng.next_u64());
    let train = || TrainConfig::regression_default(0);
    // Each frontend call is one tenant request in the SLO accounting,
    // so the request counter must track calls actually issued — an
    // early failure means the later saves never happened.
    let res = (|| -> Result<()> {
        bump(0, 1);
        let base = frontend.save_initial(tenant, &mut saver, &base_set, deadline)?;
        record(&base, &base_set);
        let ours_name = format!("c{round}-{worker}-{tag:x}-a");
        let theirs_name = format!("c{round}-{worker}-{tag:x}-b");

        let ours_branch = branch::fork(env, &base, 0, &ours_name)?;
        bump(5, 1);
        record(&ours_branch.head, &base_set);
        let mut ours_set = base_set.clone();
        ours_set.models[0].layers[0].data[0] += 1.0;
        let d = Derivation { base: ours_branch.head.clone(), train: train(), updates: vec![] };
        bump(0, 1);
        let ours = frontend.save_set(tenant, &mut saver, &ours_set, Some(&d), deadline)?;
        record(&ours, &ours_set);
        branch::advance(env, &ours_name, &ours)?;

        let theirs_branch = branch::fork(env, &base, 0, &theirs_name)?;
        bump(5, 1);
        record(&theirs_branch.head, &base_set);
        let mut theirs_set = base_set.clone();
        let m = config.n_models - 1;
        if conflicting {
            theirs_set.models[0].layers[0].data[0] -= 1.0;
        } else {
            theirs_set.models[m].layers[2].data[0] -= 1.0;
        }
        let d = Derivation { base: theirs_branch.head.clone(), train: train(), updates: vec![] };
        bump(0, 1);
        let theirs = frontend.save_set(tenant, &mut saver, &theirs_set, Some(&d), deadline)?;
        record(&theirs, &theirs_set);
        branch::advance(env, &theirs_name, &theirs)?;

        let out = branch::merge(env, &base, &ours, &theirs)?;
        match (out.merged, conflicting) {
            (Some(merged), false) => {
                bump(6, 1);
                let mut merged_set = ours_set.clone();
                merged_set.models[m].layers[2].data[0] = theirs_set.models[m].layers[2].data[0];
                record(&merged, &merged_set);
            }
            (None, true) => bump(7, 1),
            (Some(_), true) => violations
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(format!("round {round}: conflicting merge of {ours} and {theirs} produced a set")),
            (None, false) => violations
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(format!("round {round}: disjoint merge of {ours} and {theirs} reported conflicts")),
        }
        Ok(())
    })();
    if res.is_err() {
        bump(2, 1);
    }
}

/// Arm this round's storm on a fresh injector. Returns the storm for
/// invariant classification.
fn arm_storm(faults: &FaultInjector, rng: &mut impl Rng) -> Storm {
    let storm = Storm::pick(rng);
    match storm {
        Storm::Clean => {}
        Storm::Crash => {
            // A couple of independent crash points among the round's
            // writes; each is one-shot.
            for _ in 0..1 + rng.below(3) {
                faults.arm(FaultPlan::crash_at(FaultTarget::Writes, rng.below(40)));
            }
        }
        Storm::Torn => {
            // A torn append means the process died mid-write: nothing
            // after it may land, or the partial bytes would sit in the
            // *middle* of the log — a state no real crash can produce.
            // The follow-up plan kills every later write in the round.
            let idx = rng.below(40);
            faults.arm(FaultPlan::torn_write_at(FaultTarget::Writes, idx, rng.below(256) as usize));
            faults.arm(FaultPlan::transient_at(FaultTarget::Writes, idx + 1, u32::MAX));
        }
        Storm::DocFlip => {
            for _ in 0..1 + rng.below(2) {
                faults.arm(FaultPlan::bit_flip_at(
                    FaultTarget::Class(OpClass::DocInsert),
                    rng.below(30),
                    1 + rng.below(4) as usize,
                    rng.next_u64(),
                ));
            }
        }
        Storm::Transient => {
            faults.arm(FaultPlan::transient_at(
                FaultTarget::Any,
                rng.below(20),
                2 + rng.below(12) as u32,
            ));
        }
    }
    storm
}

/// Run the full chaos schedule against `dir` (one store directory,
/// reused across rounds so damage and repairs accumulate realistically).
pub fn run_chaos(dir: &Path, config: &ChaosConfig) -> Result<ChaosReport> {
    run_chaos_observed(dir, config, &mmm_obs::Observer::disabled())
}

/// [`run_chaos`] with an attached observer: every request gets a
/// tenant/request-id attribution, a tagged root span, and per-tenant
/// SLO counters — the observability plane's end-to-end exercise.
pub fn run_chaos_observed(
    dir: &Path,
    config: &ChaosConfig,
    obs: &mmm_obs::Observer,
) -> Result<ChaosReport> {
    let mut rng = Xoshiro256pp::new(config.seed);
    let mut report = ChaosReport::default();
    // Every save the harness believes committed: id → expected bits.
    let mut expected: HashMap<ModelSetId, ModelSet> = HashMap::new();

    for round in 0..config.rounds {
        let faults = FaultInjector::new();
        let storm = arm_storm(&faults, &mut rng);
        let env = ManagementEnv::builder(dir, LatencyProfile::zero())
            .observer(obs.clone())
            .faults(faults.clone())
            .commit_window(config.commit_window)
            .open()?;
        obs.set_context(format!("chaos/round-{round}"));
        let frontend = FleetFrontend::with_config(
            &env,
            FrontendConfig {
                admission: config.admission,
                default_deadline: config.deadline,
                ..FrontendConfig::default()
            },
        );

        // One worker per thread; outcomes collected under a mutex
        // (contention is negligible next to the store work).
        let outcomes: Mutex<Vec<(ModelSetId, ModelSet)>> = Mutex::new(Vec::new());
        let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
        // req, ok, err, fresh, stale, forks, merges, conflicts, queries
        let counters: Mutex<[u64; 9]> = Mutex::new([0; 9]);
        std::thread::scope(|scope| {
            for worker in 0..config.threads {
                let frontend = &frontend;
                let env = &env;
                let outcomes = &outcomes;
                let violations = &violations;
                let counters = &counters;
                let config = &config;
                let mut wrng = Xoshiro256pp::new(
                    SplitMix64::new(config.seed ^ (round as u64) << 32 ^ worker as u64).next_u64(),
                );
                scope.spawn(move || {
                    let tenant = format!("tenant-{}", worker % config.tenants.max(1));
                    let mut saver = BaselineSaver::new();
                    for _ in 0..config.iters {
                        // ~10% of iterations drive the version graph
                        // instead of the linear save path: fork, update
                        // the branch, and three-way merge a sibling.
                        if wrng.below(10) == 0 {
                            branch_iteration(
                                env, frontend, &tenant, round, worker, config, &mut wrng,
                                outcomes, counters, violations,
                            );
                            continue;
                        }
                        // Another slice reads the lake through the query
                        // engine mid-storm. Errors are legal (shed,
                        // deadline, injected fault); answers must be
                        // predicate-consistent.
                        if wrng.below(8) == 0 {
                            let expr = match wrng.below(3) {
                                0 => "true",
                                1 => "kind = \"full\"",
                                _ => "n_models >= 1 and not tag:no-such-tag",
                            };
                            {
                                let mut c = counters.lock().unwrap_or_else(|e| e.into_inner());
                                c[0] += 1;
                            }
                            match frontend.query(&tenant, expr, Some(config.deadline)) {
                                Ok(out) => {
                                    let mut c =
                                        counters.lock().unwrap_or_else(|e| e.into_inner());
                                    c[8] += 1;
                                    drop(c);
                                    if expr.starts_with("kind")
                                        && out.records.iter().any(|r| {
                                            r.kind != mmm_core::catalog::SetKind::Full
                                        })
                                    {
                                        violations
                                            .lock()
                                            .unwrap_or_else(|e| e.into_inner())
                                            .push(format!(
                                                "round {round}: query `{expr}` returned a \
                                                 non-matching record"
                                            ));
                                    }
                                }
                                Err(_) => {
                                    let mut c =
                                        counters.lock().unwrap_or_else(|e| e.into_inner());
                                    c[2] += 1;
                                }
                            }
                            continue;
                        }
                        let set = small_set(4, config.n_models, wrng.next_u64());
                        // A slice of requests runs with a hopeless
                        // budget to exercise the deadline path.
                        let deadline = if wrng.below(8) == 0 {
                            Some(Duration::ZERO)
                        } else {
                            Some(config.deadline)
                        };
                        {
                            let mut c = counters.lock().unwrap_or_else(|e| e.into_inner());
                            c[0] += 2;
                        }
                        match frontend.save_initial(&tenant, &mut saver, &set, deadline) {
                            Ok(id) => {
                                {
                                    let mut c =
                                        counters.lock().unwrap_or_else(|e| e.into_inner());
                                    c[1] += 1;
                                }
                                outcomes
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push((id.clone(), set.clone()));
                                // Immediately read our own write.
                                match frontend.recover(&tenant, &saver, &id, deadline) {
                                    Ok(r) => {
                                        let mut c =
                                            counters.lock().unwrap_or_else(|e| e.into_inner());
                                        if r.served == Served::Stale {
                                            c[4] += 1;
                                        } else {
                                            c[3] += 1;
                                        }
                                        drop(c);
                                        if r.set != set {
                                            violations
                                                .lock()
                                                .unwrap_or_else(|e| e.into_inner())
                                                .push(format!(
                                                    "round {round} ({}): recover of {id} \
                                                     returned wrong bits mid-round",
                                                    storm.name()
                                                ));
                                        }
                                    }
                                    Err(_) => {
                                        let mut c =
                                            counters.lock().unwrap_or_else(|e| e.into_inner());
                                        c[2] += 1;
                                    }
                                }
                            }
                            Err(_) => {
                                let mut c = counters.lock().unwrap_or_else(|e| e.into_inner());
                                c[2] += 1;
                                c[0] -= 1; // the paired recover never ran
                            }
                        }
                    }
                });
            }
        });

        let [req, ok, err, fresh, stale, forks, merges, conflicts, queries] =
            counters.into_inner().unwrap_or_else(|e| e.into_inner());
        report.requests += req;
        report.saves_ok += ok;
        report.request_errors += err;
        report.recovers_fresh += fresh;
        report.recovers_stale += stale;
        report.branch_forks += forks;
        report.branch_merges += merges;
        report.branch_conflicts += conflicts;
        report.queries_ok += queries;
        report
            .violations
            .extend(violations.into_inner().unwrap_or_else(|e| e.into_inner()));
        for (id, set) in outcomes.into_inner().unwrap_or_else(|e| e.into_inner()) {
            expected.insert(id, set);
        }
        let gc_stats = env.commit_gate().stats();
        report.commit_batches += gc_stats.batches;
        report.commit_members += gc_stats.members;

        // ---- crash: drop the environment, reopen cold, audit. ----
        frontend.publish_health();
        drop(frontend);
        drop(env);
        let env = reopen_after_crash(dir, round, storm, &mut report)?;
        audit_round(&env, round, storm, &mut expected, &mut report)?;
        report.rounds += 1;
    }
    Ok(report)
}

/// Cold reopen after a round's crash. The strict open is fail-stop on a
/// flipped record; only a doc-flip round may need the salvage pass, and
/// needing it in any other round is itself an invariant violation.
fn reopen_after_crash(
    dir: &Path,
    round: usize,
    storm: Storm,
    report: &mut ChaosReport,
) -> Result<ManagementEnv> {
    match ManagementEnv::open(dir, LatencyProfile::zero()) {
        Ok(env) => Ok(env),
        Err(mmm_util::Error::Corrupt(why)) => {
            if storm != Storm::DocFlip {
                report.violations.push(format!(
                    "round {round} ({}): store corrupt on reopen without a bit flip: {why}",
                    storm.name()
                ));
            }
            let salvaged = fsck::salvage_docs(dir)?;
            report.debris_entries += salvaged.records_dropped + salvaged.torn_tails;
            ManagementEnv::open(dir, LatencyProfile::zero())
        }
        Err(e) => Err(e),
    }
}

/// Post-crash audit of one round: classify fsck damage, repair,
/// re-scan, and verify every committed save.
fn audit_round(
    env: &ManagementEnv,
    round: usize,
    storm: Storm,
    expected: &mut HashMap<ModelSetId, ModelSet>,
    report: &mut ChaosReport,
) -> Result<()> {
    let scan = fsck::fsck(env)?;
    for d in &scan.damage {
        let allowed = match d {
            // Phase-one debris and crash-leaked orphans are the normal
            // residue of dying mid-save.
            fsck::Damage::UncommittedSave { .. }
            | fsck::Damage::OrphanBlob { .. }
            | fsck::Damage::OrphanChunk { .. } => true,
            // A discarded flipped record may leave a committed set's
            // documents gone (dangling commit) or a derived chain
            // broken — only a doc-flip round may do that.
            fsck::Damage::DanglingCommit { .. }
            | fsck::Damage::DanglingChain { .. }
            | fsck::Damage::MissingBlob { .. }
            | fsck::Damage::HashMismatch { .. }
            | fsck::Damage::OrphanBranch { .. } => storm == Storm::DocFlip,
            // No saver writes a kind the layout does not know.
            fsck::Damage::UnknownKind { .. } => false,
        };
        if allowed {
            report.debris_entries += 1;
        } else {
            report.violations.push(format!(
                "round {round} ({}): unexpected damage: {}",
                storm.name(),
                d.describe()
            ));
        }
    }

    // Repair must converge. One pass is not always enough: quarantining
    // a chain's base exposes its descendants (and any branch pointing
    // at them) as newly dangling, so iterate scan→repair — the cascade
    // is bounded by chain depth. Damage still present after the pass
    // budget is a real violation.
    let mut scan = scan;
    let mut passes = 0;
    while !scan.is_clean() {
        fsck::repair(env, &scan)?;
        passes += 1;
        scan = fsck::fsck(env)?;
        if passes >= 6 {
            for d in &scan.damage {
                report.violations.push(format!(
                    "round {round} ({}): damage survived {passes} repair passes: {}",
                    storm.name(),
                    d.describe()
                ));
            }
            break;
        }
        // Cascade damage uncovered by a repair pass is expected debris;
        // anything unexpected in the *first* scan was already flagged.
        report.debris_entries += scan.damage.len() as u64;
    }

    // No uncommitted save visible: the catalog only lists committed ids.
    let committed = commit::committed_ids(env)?;
    let listed: Vec<ModelSetId> = catalog::list_sets(env)?.into_iter().map(|s| s.id).collect();
    for id in &listed {
        if !committed.contains(&(id.approach.clone(), id.key.clone())) {
            report.violations.push(format!(
                "round {round} ({}): catalog lists uncommitted set {id}",
                storm.name(),
            ));
        }
    }

    // The query engine and the catalog agree: after repair, `true`
    // matches exactly the catalog's sets — no phantom records, no sets
    // the redesigned read path drops.
    match query::run(env, "true") {
        Ok(out) => {
            let queried: std::collections::HashSet<&ModelSetId> =
                out.records.iter().map(|r| &r.id).collect();
            for id in &listed {
                if !queried.contains(id) {
                    report.violations.push(format!(
                        "round {round} ({}): query `true` dropped catalog set {id}",
                        storm.name(),
                    ));
                }
            }
            if queried.len() != listed.len() {
                let catalog: std::collections::HashSet<&ModelSetId> = listed.iter().collect();
                for id in queried.difference(&catalog) {
                    report.violations.push(format!(
                        "round {round} ({}): query `true` invented set {id}",
                        storm.name(),
                    ));
                }
            }
        }
        Err(e) => report.violations.push(format!(
            "round {round} ({}): query `true` failed after repair: {e}",
            storm.name(),
        )),
    }

    // Branch heads resolve to committed sets (fsck + repair above must
    // have retired any orphaned pointer).
    for b in branch::branches(env)? {
        if !commit::is_committed(env, &b.head)? {
            report.violations.push(format!(
                "round {round} ({}): branch {:?} points at uncommitted set {}",
                storm.name(),
                b.name,
                b.head
            ));
        }
    }

    // Every save acknowledged Ok is durable and bit-identical. A
    // doc-flip round may have destroyed the commit (or repair removed a
    // damaged set — for update chains, a flipped ancestor takes its
    // descendants with it) — that counts as a lost save, never as
    // wrong bits.
    let mut lost: Vec<ModelSetId> = Vec::new();
    for (id, set) in expected.iter() {
        if !commit::is_committed(env, id)? {
            if storm == Storm::DocFlip {
                report.saves_lost_to_flips += 1;
                lost.push(id.clone());
            } else {
                report.violations.push(format!(
                    "round {round} ({}): committed save {id} vanished",
                    storm.name()
                ));
            }
            continue;
        }
        match approach::recover_any(env, id) {
            Ok(back) if &back == set => {}
            Ok(_) => report.violations.push(format!(
                "round {round} ({}): committed save {id} recovered with wrong bits",
                storm.name()
            )),
            Err(e) if storm == Storm::DocFlip => {
                report.saves_lost_to_flips += 1;
                lost.push(id.clone());
                let _ = e;
            }
            Err(e) => report.violations.push(format!(
                "round {round} ({}): committed save {id} unreadable: {e}",
                storm.name()
            )),
        }
    }
    for id in lost {
        expected.remove(&id);
    }
    Ok(())
}

/// One row of [`ServiceBenchReport`]: sustained service throughput at a
/// given worker count.
#[derive(Debug, Clone, Copy)]
pub struct ServiceBenchRow {
    /// Concurrent worker threads driving the frontend.
    pub threads: usize,
    /// Save requests issued.
    pub saves: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Sustained acknowledged saves per second of wall-clock time.
    pub saves_per_sec: f64,
    /// Shed requests as a fraction of all issued.
    pub shed_rate: f64,
    /// 99th-percentile deadline overrun across requests (hybrid
    /// real+simulated time past the budget; 0 when within deadline).
    pub p99_overrun: Duration,
    /// Commit records per acknowledged save (< 1.0 ⇒ group commit
    /// coalesced appends).
    pub commit_records_per_save: f64,
}

/// The service benchmark: sustained frontend throughput without faults.
#[derive(Debug, Clone, Default)]
pub struct ServiceBenchReport {
    /// One row per measured thread count.
    pub rows: Vec<ServiceBenchRow>,
}

/// Measure sustained frontend service throughput (no faults): saves/sec,
/// shed rate, and p99 deadline overrun at each of `thread_counts`.
pub fn service_bench(
    dir: &Path,
    thread_counts: &[usize],
    saves_per_thread: usize,
    config: &ChaosConfig,
) -> Result<ServiceBenchReport> {
    let mut out = ServiceBenchReport::default();
    for (i, &threads) in thread_counts.iter().enumerate() {
        let obs = mmm_obs::Observer::new();
        let subdir = dir.join(format!("svc-{threads}-{i}"));
        std::fs::create_dir_all(&subdir)?;
        let env = ManagementEnv::builder(&subdir, LatencyProfile::zero())
            .observer(obs.clone())
            .commit_window(config.commit_window)
            .open()?;
        let frontend = FleetFrontend::with_config(
            &env,
            FrontendConfig {
                admission: config.admission,
                default_deadline: config.deadline,
                ..FrontendConfig::default()
            },
        );
        let inserts_before = env.stats().doc_inserts;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let frontend = &frontend;
                let config = &config;
                let mut wrng = Xoshiro256pp::new(config.seed ^ (worker as u64) << 17);
                scope.spawn(move || {
                    let tenant = format!("tenant-{}", worker % config.tenants.max(1));
                    let mut saver = BaselineSaver::new();
                    for _ in 0..saves_per_thread {
                        let set = small_set(4, config.n_models, wrng.next_u64());
                        let _ = frontend.save_initial(&tenant, &mut saver, &set, None);
                    }
                });
            }
        });
        let wall = start.elapsed();
        let c = frontend.counters();
        let saves = (threads * saves_per_thread) as u64;
        let overrun_ns = obs
            .metrics()
            .and_then(|m| m.histogram("mmm_fleet_deadline_overrun_ns"))
            .and_then(|h| h.quantile(0.99))
            .unwrap_or(0);
        let commit_inserts = env.stats().doc_inserts - inserts_before;
        let acked = c.ok.max(1);
        out.rows.push(ServiceBenchRow {
            threads,
            saves,
            shed: c.shed,
            saves_per_sec: c.ok as f64 / wall.as_secs_f64().max(1e-9),
            shed_rate: c.shed as f64 / saves.max(1) as f64,
            p99_overrun: Duration::from_nanos(overrun_ns),
            // Each baseline save is 1 set doc + 1 commit record; the
            // commit share is what group commit can shrink.
            commit_records_per_save: (commit_inserts.saturating_sub(acked)) as f64 / acked as f64,
        });
    }
    Ok(out)
}

/// Render a [`ServiceBenchReport`] as the canonical `BENCH_service.json`
/// document (`mmm chaos --bench-out`, and the `repro gate` candidate).
pub fn service_bench_json(
    config: &ChaosConfig,
    saves_per_thread: usize,
    bench: &ServiceBenchReport,
) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = bench
        .rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "threads": r.threads,
                "saves": r.saves,
                "shed": r.shed,
                "saves_per_sec": r.saves_per_sec,
                "shed_rate": r.shed_rate,
                "p99_deadline_overrun_ns": r.p99_overrun.as_nanos() as u64,
                "commit_records_per_save": r.commit_records_per_save,
            })
        })
        .collect();
    serde_json::json!({
        "bench": "service",
        "seed": config.seed,
        "saves_per_thread": saves_per_thread,
        "commit_window_ms": config.commit_window.as_millis() as u64,
        "rows": rows,
    })
}

/// Render a [`ChaosReport`] (and optional bench rows) as a JSON value
/// for `--report-out` / CI artifacts.
pub fn report_json(config: &ChaosConfig, report: &ChaosReport) -> serde_json::Value {
    serde_json::json!({
        "seed": config.seed,
        "threads": config.threads,
        "tenants": config.tenants,
        "rounds": report.rounds,
        "tenant_iterations": config.tenant_iterations(),
        "requests": report.requests,
        "saves_ok": report.saves_ok,
        "request_errors": report.request_errors,
        "recovers_fresh": report.recovers_fresh,
        "recovers_stale": report.recovers_stale,
        "queries_ok": report.queries_ok,
        "saves_lost_to_flips": report.saves_lost_to_flips,
        "branch_forks": report.branch_forks,
        "branch_merges": report.branch_merges,
        "branch_conflicts": report.branch_conflicts,
        "debris_entries": report.debris_entries,
        "commit_batches": report.commit_batches,
        "commit_members": report.commit_members,
        "violations": report.violations.clone(),
        "passed": report.passed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::TempDir;

    #[test]
    fn a_small_clean_run_has_no_violations() {
        let dir = TempDir::new("mmm-chaos").unwrap();
        let config = ChaosConfig {
            threads: 4,
            tenants: 2,
            rounds: 2,
            iters: 1,
            seed: 3,
            ..ChaosConfig::default()
        };
        let report = run_chaos(dir.path(), &config).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.rounds, 2);
        assert!(report.saves_ok > 0);
    }

    #[test]
    fn the_report_json_round_trips_the_verdict() {
        let config = ChaosConfig::default();
        let mut report = ChaosReport { rounds: 1, ..ChaosReport::default() };
        report.violations.push("example".into());
        let v = report_json(&config, &report);
        assert_eq!(*v.get("passed").unwrap(), serde_json::Value::Bool(false));
        assert_eq!(*v.get("rounds").unwrap(), 1u64);
    }
}

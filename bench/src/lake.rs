//! `lake-service`: concurrent tenants saving and recovering small model
//! sets through the `FleetFrontend` on the content-addressed backend,
//! against a lake that already holds ten thousand catalogued sets, then
//! one client querying that lake.
//!
//! The work here is counted in operations, not bytes: a set is 1.3 MB,
//! but every request walks commit records, the catalogue and CAS chunk
//! files. Blob-bandwidth gains should not move this workload; document
//! store, commit, CAS, fleet and query changes move only this one.

use std::path::Path;
use std::time::{Duration, Instant};

use mmm_core::approach::{ModelSetSaver, UpdateSaver, SETS_COLLECTION};
use mmm_core::env::ManagementEnv;
use mmm_core::fleet::Served;
use mmm_core::model_set::{ModelSet, ModelSetId};
use mmm_core::{branch, commit, param_codec, query, tags, FleetFrontend};
use mmm_store::StorageBackend;
use mmm_util::{Error, Result, Rng, Xoshiro256pp};
use serde_json::json;

use crate::gen;
use crate::probe::{self, doc_id, Approach, Replay};
use crate::report::{self, EndToEnd, Layers, OpSamples, OpStats};
use crate::stats::{ratio, Samples};
use crate::trace::Recorder;
use crate::{sys, timed, Budget, Opts, Outcome, Scale};

/// Share of a time budget spent serving; the rest goes to queries.
const SERVE_SHARE: f64 = 0.6;

/// Every this-many-th request of a client forks its head and diffs the
/// fork against the chain's base.
const BRANCH_EVERY: u64 = 50;

struct Sizing {
    /// Committed catalogue rows seeded before any tenant arrives.
    lake_rows: usize,
    n_models: usize,
    /// Versions per chain; the next save starts a chain with new content.
    chain_len: usize,
    /// Chains each tenant archives during set-up, so that cold recovers
    /// have earlier chains to draw from at the first timed request. A
    /// chain holds ~3.4 MB of distinct chunks; the tenants' earlier
    /// chains outgrow the 64 MiB CAS read cache within the first seconds
    /// of the serve phase, while a current chain always fits.
    preseed_chains: usize,
    warmup_requests: u64,
    /// Saves of the 1-client frontend-versus-direct comparison.
    overhead_saves: usize,
}

fn sizing(scale: Scale) -> Sizing {
    match scale {
        Scale::Full => Sizing {
            lake_rows: 10_000,
            n_models: 64,
            chain_len: 16,
            preseed_chains: 3,
            warmup_requests: 20,
            overhead_saves: 30,
        },
        Scale::Tiny => Sizing {
            lake_rows: 300,
            n_models: 40,
            chain_len: 4,
            preseed_chains: 1,
            warmup_requests: 4,
            overhead_saves: 3,
        },
    }
}

fn open_env(dir: &Path) -> Result<ManagementEnv> {
    crate::open_env(dir, StorageBackend::Cas)
}

/// Seed `n` committed catalogue rows the way `repro query` does: chains
/// of ten update sets, every hundredth tagged `prod`, hash tables whose
/// overlap with row 0 is `(i % 9) / 8` — so every query's result count
/// is a closed form in `n`. Unlike `repro query`, only the head of each
/// chain gets a hash table: on the CAS backend a table costs two file
/// creations and a directory, and ten thousand of them would make
/// set-up several times longer than the measurement. Returns the key of
/// row 0.
fn seed_lake(env: &ManagementEnv, n: usize) -> Result<String> {
    let (mut first, mut prev) = (String::new(), String::new());
    for i in 0..n {
        let mut doc = json!({ "approach": "update", "kind": "full", "n_models": 4 + (i % 13) });
        if i % 10 != 0 {
            doc = json!({ "approach": "update", "kind": "diff", "n_models": 4 + (i % 13), "base": prev });
        }
        let key = env.docs().insert(SETS_COLLECTION, doc)?.to_string();
        if i % 10 == 0 {
            let shared = if i == 0 { 8 } else { i % 9 };
            let row: Vec<u64> = (0..8u64)
                .map(|j| {
                    if (j as usize) < shared {
                        j
                    } else {
                        0x10000 + (i as u64) * 8 + j
                    }
                })
                .collect();
            env.blobs().put(
                &format!("update/{key}/hashes.bin"),
                &param_codec::encode_hashes(&vec![row; 4]),
            )?;
        }
        let id = ModelSetId {
            approach: "update".into(),
            key: key.clone(),
        };
        commit::commit_save(env, &id)?;
        if i % 100 == 0 {
            tags::tag_set(env, &id, "prod")?;
        }
        if i == 0 {
            first = key.clone();
        }
        prev = key;
    }
    Ok(first)
}

/// How many seeded rows each benchmark query matches.
struct SeededCounts {
    tagged: usize,
    pred: usize,
    deep: usize,
    similar: usize,
}

fn seeded_counts(n: usize) -> SeededCounts {
    let count = |f: &dyn Fn(usize) -> bool| (0..n).filter(|&i| f(i)).count();
    SeededCounts {
        tagged: n.div_ceil(100),
        pred: count(&|i| i % 10 != 0 && 4 + (i % 13) >= 10),
        deep: count(&|i| i % 10 >= 5),
        similar: count(&|i| i % 10 == 0 && (i == 0 || i % 9 >= 4)),
    }
}

struct Chain {
    ids: Vec<ModelSetId>,
    docs: Vec<u64>,
    digests: Vec<Vec<u64>>,
}

/// What the clients share.
struct Ctx<'a> {
    env: &'a ManagementEnv,
    frontend: &'a FleetFrontend<'a>,
    /// Scratch environment of write replays; `Some` while tracing.
    scratch: Option<&'a ManagementEnv>,
    sizing: &'a Sizing,
}

/// One closed-loop tenant.
struct Client {
    idx: u32,
    tenant: String,
    saver: UpdateSaver,
    set: ModelSet,
    rng: Xoshiro256pp,
    chains: Vec<Chain>,
    requests: u64,
    forks: u64,
    deep_forks: u64,
    ops: OpSamples,
    fleet_recover_ms: Samples,
    fork_us: Samples,
    fork_bytes: Samples,
    diff_us: Samples,
    saves: u64,
    rec: Recorder,
    commits: u64,
    attempted: u64,
    failed: u64,
}

impl Client {
    fn new(idx: u32, seed: u64, sizing: &Sizing, t0: Instant) -> Client {
        Client {
            idx,
            tenant: format!("tenant-{idx}"),
            saver: UpdateSaver::new(),
            set: gen::initial_fleet(sizing.n_models, seed ^ (u64::from(idx) << 32)).to_model_set(),
            rng: gen::rng(seed, "client", u64::from(idx)),
            chains: Vec::new(),
            requests: 0,
            forks: 0,
            deep_forks: 0,
            ops: OpSamples::default(),
            fleet_recover_ms: Samples::default(),
            fork_us: Samples::default(),
            fork_bytes: Samples::default(),
            diff_us: Samples::default(),
            saves: 0,
            rec: Recorder::new(t0, idx + 1),
            commits: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("FAILED {} {what}: {why}", self.tenant);
    }

    /// Forget everything measured so far (after set-up and warm-up).
    fn reset_measurements(&mut self) {
        self.ops = OpSamples::default();
        self.fleet_recover_ms = Samples::default();
        self.fork_us = Samples::default();
        self.fork_bytes = Samples::default();
        self.diff_us = Samples::default();
        self.saves = 0;
        self.rec.spans.clear();
        self.attempted = 0;
    }

    fn root(&mut self, name: &'static str, t0: Instant, t1: Instant) -> u32 {
        let op = (u64::from(self.idx) << 40) | self.attempted;
        self.rec.root(name, op, t0, t1)
    }

    /// The next request of this tenant's fixed schedule.
    fn step(&mut self, ctx: &Ctx<'_>) {
        let i = self.requests;
        self.requests += 1;
        if i % BRANCH_EVERY == BRANCH_EVERY - 1 && !self.chains.is_empty() {
            self.branch(ctx);
        } else if i.is_multiple_of(2) || self.chains.is_empty() {
            self.save(ctx);
        } else {
            let k = i / 2;
            if k % 3 == 2 {
                self.select(ctx);
            } else {
                self.recover(ctx, k % 2 == 1);
            }
        }
    }

    fn save(&mut self, ctx: &Ctx<'_>) {
        let new_chain = self
            .chains
            .last()
            .is_none_or(|c| c.ids.len() >= ctx.sizing.chain_len);
        let base = if new_chain {
            gen::renew(&mut self.set, &mut self.rng);
            None
        } else {
            gen::perturb(&mut self.set, &mut self.rng);
            self.chains.last().and_then(|c| c.ids.last().cloned())
        };
        let deriv = base.map(gen::synthetic_derivation);
        let (res, t0, t1, _) = timed(ctx.env, || {
            ctx.frontend.save_set(
                &self.tenant,
                &mut self.saver,
                &self.set,
                deriv.as_ref(),
                None,
            )
        });
        self.attempted += 1;
        let id = match res {
            Ok(id) => id,
            Err(e) => return self.fail("save", e),
        };
        self.saves += 1;
        if new_chain {
            &mut self.ops.tts_initial
        } else {
            &mut self.ops.tts
        }
        .push_ms(t1 - t0);
        let doc = match doc_id(&id) {
            Ok(doc) => doc,
            Err(e) => return self.fail("save", e),
        };
        if let Some(scratch) = ctx.scratch {
            let root = self.root("save", t0, t1);
            let base_doc = self
                .chains
                .last()
                .and_then(|c| c.docs.last().copied())
                .filter(|_| !new_chain);
            let mut replay = Replay {
                rec: &mut self.rec,
                real: ctx.env,
                scratch,
                approach: Approach::Update,
                commits: self.commits,
            };
            let out = match base_doc {
                None => replay.save_full(root, &self.set),
                Some(base) => replay.save_diff(root, &self.set, base),
            };
            self.commits = replay.commits;
            if let Err(e) = out {
                self.fail("save replay", e);
            }
        }
        if new_chain {
            self.chains.push(Chain {
                ids: Vec::new(),
                docs: Vec::new(),
                digests: Vec::new(),
            });
        }
        let chain = self.chains.last_mut().expect("pushed above");
        chain.ids.push(id);
        chain.docs.push(doc);
        chain.digests.push(gen::digest(self.set.models()));
    }

    /// Whole-set recover: `cold` draws from the earlier chains (more
    /// chunks than the CAS cache holds), otherwise from the current one.
    fn recover(&mut self, ctx: &Ctx<'_>, cold: bool) {
        let last = self.chains.len() - 1;
        let c = if cold && last > 0 {
            self.rng.below(last as u64) as usize
        } else {
            last
        };
        let v = self.rng.below(self.chains[c].ids.len() as u64) as usize;
        let id = self.chains[c].ids[v].clone();
        let (res, t0, t1, _) = timed(ctx.env, || {
            ctx.frontend.recover(&self.tenant, &self.saver, &id, None)
        });
        self.attempted += 1;
        match res {
            Ok(got) if got.served == Served::Stale => self.fail("recover", "served stale"),
            Ok(got) if gen::digest(got.set.models()) != self.chains[c].digests[v] => {
                self.fail("recover", format!("{id} differs from what was saved"));
            }
            Ok(_) => {
                self.ops.ttr.push_ms(t1 - t0);
                self.fleet_recover_ms.push_ms(t1 - t0);
            }
            Err(e) => self.fail("recover", e),
        }
        if let Some(scratch) = ctx.scratch {
            let root = self.root("recover", t0, t1);
            let mut replay = Replay {
                rec: &mut self.rec,
                real: ctx.env,
                scratch,
                approach: Approach::Update,
                commits: self.commits,
            };
            if let Err(e) = replay.recover(
                root,
                &self.chains[c].docs[..=v],
                &self.set.arch,
                self.set.len(),
                None,
            ) {
                self.fail("recover replay", e);
            }
        }
    }

    /// Selective recover at the head. The frontend has no entry point
    /// for it, so the tenant calls the saver as the CLI does.
    fn select(&mut self, ctx: &Ctx<'_>) {
        let chain = self
            .chains
            .last()
            .expect("select is only scheduled after a save");
        let (v, head) = (
            chain.ids.len() - 1,
            chain.ids.last().expect("non-empty").clone(),
        );
        let indices = self
            .rng
            .sample_indices(self.set.len(), gen::SELECT_MODELS.min(self.set.len()));
        let (res, t0, t1, _) = timed(ctx.env, || {
            self.saver.recover_models(ctx.env, &head, &indices)
        });
        self.attempted += 1;
        let layers = self.set.arch.parametric_layer_sizes().len();
        match res {
            Ok(models) => {
                let digest = &self.chains.last().expect("checked").digests[v];
                if gen::models_match(&models, &indices, digest, layers) {
                    self.ops.select.push_ms(t1 - t0);
                } else {
                    self.fail("select", "recovered models differ from what was saved");
                }
            }
            Err(e) => self.fail("select", e),
        }
        if let Some(scratch) = ctx.scratch {
            let root = self.root("select", t0, t1);
            let docs = &self.chains.last().expect("checked").docs;
            let mut replay = Replay {
                rec: &mut self.rec,
                real: ctx.env,
                scratch,
                approach: Approach::Update,
                commits: self.commits,
            };
            if let Err(e) = replay.select(root, docs, &self.set.arch, &indices, None) {
                self.fail("select replay", e);
            }
        }
    }

    /// Fork the head, then diff the fork against the chain's base: the
    /// diff must list exactly the layers the history changed.
    fn branch(&mut self, ctx: &Ctx<'_>) {
        let chain = self
            .chains
            .last()
            .expect("branch is only scheduled after a save");
        let (base, head) = (
            chain.ids[0].clone(),
            chain.ids.last().expect("non-empty").clone(),
        );
        let expect = chain.digests[0]
            .iter()
            .zip(chain.digests.last().expect("non-empty"))
            .filter(|(a, b)| a != b)
            .count();
        let depth = chain.ids.len();
        let name = format!("t{}-b{}", self.idx, self.forks);
        let (res, t0, t1, delta) = timed(ctx.env, || branch::fork(ctx.env, &head, 0, &name));
        self.attempted += 1;
        let fork = match res {
            Ok(b) => b,
            Err(e) => return self.fail("fork", e),
        };
        self.forks += 1;
        self.deep_forks += u64::from(depth >= 5);
        self.fork_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.fork_bytes.push(delta.bytes_written as f64);
        if ctx.scratch.is_some() {
            self.root("fork", t0, t1);
        }
        let (res, t0, t1, _) = timed(ctx.env, || branch::diff(ctx.env, &base, &fork.head));
        self.attempted += 1;
        match res {
            Ok(d) if d.changed.len() == expect && d.added_models == 0 && d.removed_models == 0 => {
                self.diff_us.push((t1 - t0).as_secs_f64() * 1e6);
            }
            Ok(d) => self.fail(
                "diff",
                format!("{} changed layers, expected {expect}", d.changed.len()),
            ),
            Err(e) => self.fail("diff", e),
        }
        if ctx.scratch.is_some() {
            self.root("diff", t0, t1);
        }
    }

    /// Sets this tenant added to the catalogue, and how many of them
    /// are diffs / at depth five or more.
    fn catalogue(&self) -> (usize, usize, usize) {
        let sets: usize = self.chains.iter().map(|c| c.ids.len()).sum();
        let diffs: usize = self.chains.iter().map(|c| c.ids.len() - 1).sum();
        let deep: usize = self
            .chains
            .iter()
            .map(|c| c.ids.len().saturating_sub(5))
            .sum();
        (
            sets + self.forks as usize,
            diffs + self.forks as usize,
            deep + self.deep_forks as usize,
        )
    }
}

/// Run every client until `stop` says so, one thread each.
fn serve(clients: &mut [Client], ctx: &Ctx<'_>, stop: impl Fn(&Client) -> bool + Sync) {
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let stop = &stop;
            s.spawn(move || {
                while !stop(client) {
                    client.step(ctx);
                }
            });
        }
    });
}

fn until(deadline: Instant, requests: Option<u64>) -> impl Fn(&Client) -> bool + Sync {
    move |c: &Client| match requests {
        Some(n) => c.requests >= n,
        None => Instant::now() >= deadline,
    }
}

/// Everything before the first timed request: seed the lake, let every
/// tenant archive its earlier chains, warm up.
fn setup(
    opts: &Opts,
    sizing: &Sizing,
    dir: &Path,
    t0: Instant,
) -> Result<(ManagementEnv, String, Vec<Client>)> {
    let env = open_env(dir)?;
    let first = seed_lake(&env, sizing.lake_rows)?;
    let n_clients = sys::nproc().clamp(1, 2) as u32;
    let mut clients: Vec<Client> = (0..n_clients)
        .map(|i| Client::new(i, opts.seed, sizing, t0))
        .collect();
    {
        let frontend = FleetFrontend::new(&env);
        let ctx = Ctx {
            env: &env,
            frontend: &frontend,
            scratch: None,
            sizing,
        };
        let preseed = (sizing.preseed_chains * sizing.chain_len) as u64;
        std::thread::scope(|s| {
            for client in clients.iter_mut() {
                let ctx = &ctx;
                s.spawn(move || {
                    for _ in 0..preseed {
                        client.save(ctx);
                    }
                });
            }
        });
        serve(
            &mut clients,
            &ctx,
            until(Instant::now(), Some(sizing.warmup_requests)),
        );
    }
    if let Some(c) = clients.iter().find(|c| c.failed > 0) {
        return Err(Error::invalid(format!("set-up failed for {}", c.tenant)));
    }
    for c in &mut clients {
        c.reset_measurements();
    }
    Ok((env, first, clients))
}

/// One leg: set-up, serve phase, query phase.
pub fn run(opts: &Opts) -> Result<Outcome> {
    let sizing = sizing(opts.scale);
    let t0 = Instant::now();
    let lake_dir = opts.data_dir.join("lake");

    let start = Instant::now();
    let (env, first_key, mut clients) = setup(opts, &sizing, &lake_dir, t0)?;
    let setup_s = Samples(vec![start.elapsed().as_secs_f64()]);
    let scratch = if opts.trace {
        Some(open_env(&opts.data_dir.join("scratch"))?)
    } else {
        None
    };
    let frontend = FleetFrontend::new(&env);

    sys::reset_peak_rss();
    let (serve_time, query_time, requests, query_reps) = match opts.budget {
        Budget::Seconds(s) => (
            Some(s * SERVE_SHARE),
            Some(s * (1.0 - SERVE_SHARE)),
            None,
            0,
        ),
        Budget::Rounds(n) => (None, None, Some(100 * n as u64), n),
    };
    let phase = |share: f64, from: u64| {
        let deadline = Instant::now() + Duration::from_secs_f64(serve_time.unwrap_or(0.0) * share);
        until(deadline, requests.map(|n| from + (n as f64 * share) as u64))
    };
    let warmup = sizing.warmup_requests;

    // Serve phase. A traced run serves the first half untraced (its CAS
    // and frontend counters, and the baseline of the tracing overhead)
    // and the second half with replays on.
    let mut layers = Layers::default();
    let cas_before = env.cas().map(|c| c.counters()).unwrap_or_default();
    let commits_before = env.commit_gate().stats();
    if opts.trace {
        let ctx = Ctx {
            env: &env,
            frontend: &frontend,
            scratch: None,
            sizing: &sizing,
        };
        serve(&mut clients, &ctx, phase(0.5, warmup));
        layers.untraced = merged_ops(&mut clients);
        layers.fleet_recover_ms = Samples(
            clients
                .iter_mut()
                .flat_map(|c| std::mem::take(&mut c.fleet_recover_ms.0))
                .collect(),
        );
    } else {
        let ctx = Ctx {
            env: &env,
            frontend: &frontend,
            scratch: None,
            sizing: &sizing,
        };
        serve(&mut clients, &ctx, phase(1.0, warmup));
    }
    let cas_after = env.cas().map(|c| c.counters()).unwrap_or_default();
    let commits_after = env.commit_gate().stats();
    layers.cas = mmm_store::CasCounters {
        chunk_puts: cas_after.chunk_puts - cas_before.chunk_puts,
        chunk_put_bytes: cas_after.chunk_put_bytes - cas_before.chunk_put_bytes,
        dedup_hits: cas_after.dedup_hits - cas_before.dedup_hits,
        dedup_bytes: cas_after.dedup_bytes - cas_before.dedup_bytes,
        cache_hits: cas_after.cache_hits - cas_before.cache_hits,
        cache_hit_bytes: cas_after.cache_hit_bytes - cas_before.cache_hit_bytes,
        cache_misses: cas_after.cache_misses - cas_before.cache_misses,
    };
    layers.cas_saves = clients.iter().map(|c| c.saves).sum();
    layers.commit_records = commits_after.batches - commits_before.batches;
    layers.commit_members = commits_after.members - commits_before.members;

    // Requests per busy second, summed over the clients of the untraced
    // serve phase (a client's verification time is not the system's).
    let ops_per_s: f64 = clients
        .iter()
        .map(|c| ratio(c.ops.requests() as f64, c.ops.busy_s()))
        .sum();
    let mut e2e_ops = if opts.trace {
        OpSamples::default()
    } else {
        merged_ops(&mut clients)
    };

    if opts.trace {
        let ctx = Ctx {
            env: &env,
            frontend: &frontend,
            scratch: scratch.as_ref(),
            sizing: &sizing,
        };
        let done = clients.iter().map(|c| c.requests).max().unwrap_or(0);
        serve(&mut clients, &ctx, phase(0.5, done));
        layers.traced = merged_ops(&mut clients);
    }
    let counters = frontend.counters();
    layers.shed = counters.shed;
    layers.stale_serves = counters.stale_serves;
    for c in &mut clients {
        layers.fork_us.0.append(&mut c.fork_us.0);
        layers.fork_bytes_written.0.append(&mut c.fork_bytes.0);
        layers.diff_us.0.append(&mut c.diff_us.0);
    }
    let mut attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = clients.iter().map(|c| c.failed).sum::<u64>() + counters.shed;

    // Query phase: one client, the expressions round-robin.
    let seeded = seeded_counts(sizing.lake_rows);
    let (mut sets, mut diffs, mut deep) = (sizing.lake_rows, seeded.pred, seeded.deep);
    for c in &clients {
        let (s, d, p) = c.catalogue();
        sets += s;
        diffs += d;
        deep += p;
    }
    let similar = format!("similar-to(update:{first_key}, 0.5)");
    // (expression, expected records, expected scanned)
    let mut exprs: Vec<(&str, usize, usize)> = vec![
        ("true", sets, sets),
        ("tag:prod", seeded.tagged, seeded.tagged),
    ];
    if opts.trace {
        exprs.push(("kind = \"diff\" and n_models >= 10", diffs, sets));
        exprs.push(("depth >= 5", deep, sets));
        exprs.push((&similar, seeded.similar, sets));
    }
    let mut rec = Recorder::new(t0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(query_time.unwrap_or(0.0));
    let more = |rep: usize| match query_time {
        Some(_) => rep < 3 || Instant::now() < deadline,
        None => rep < query_reps,
    };
    let mut rep = 0;
    while more(rep) {
        for (k, &(expr, want_records, want_scanned)) in exprs.iter().enumerate() {
            let (res, q0, q1, delta) = timed(&env, || query::run(&env, expr));
            attempted += 1;
            let out = match res {
                Ok(out) => out,
                Err(e) => {
                    failed += 1;
                    eprintln!("FAILED query {expr}: {e}");
                    continue;
                }
            };
            if out.records.len() != want_records || out.scanned != want_scanned {
                failed += 1;
                eprintln!(
                    "FAILED query {expr}: {} records / {} scanned, expected {want_records} / {want_scanned}",
                    out.records.len(),
                    out.scanned
                );
                continue;
            }
            let ms = (q1 - q0).as_secs_f64() * 1e3;
            match k {
                0 => {
                    e2e_ops.q_scan.push(ms);
                    layers.q_scan_ms.push(ms);
                    layers.store_ops_scan = delta.total_ops();
                }
                1 => {
                    e2e_ops.q_probe.push(ms);
                    layers.q_probe_ms.push(ms);
                    layers.store_ops_probe = delta.total_ops();
                    layers.scanned_probe += out.scanned as u64;
                    layers.results_probe += out.records.len() as u64;
                }
                2 => {
                    layers.q_pred_ms.push(ms);
                    layers.scanned_pred += out.scanned as u64;
                    layers.results_pred += out.records.len() as u64;
                }
                3 => layers.q_depth_ms.push(ms),
                _ => layers.q_sim_ms.push(ms),
            }
            if opts.trace && k < 2 {
                let root = rec.root("query", (1 << 48) | attempted, q0, q1);
                if let Err(e) = probe::replay_query(&mut rec, root, &env, expr, Approach::Update) {
                    failed += 1;
                    eprintln!("FAILED query replay: {e}");
                }
            }
        }
        rep += 1;
    }
    layers.lake_sets = sets as u64;

    if let Some(scratch) = &scratch {
        let (a, f) = overhead_phase(&env, scratch, &sizing, opts.seed, &mut rec, &mut layers);
        attempted += a;
        failed += f;
        probe::doc_store_probe(&env, &lake_dir, &mut layers)?;
    }
    let peak_rss_bytes = sys::peak_rss_bytes();

    let metrics = if opts.trace {
        for c in clients.iter_mut() {
            rec.absorb(std::mem::replace(&mut c.rec, Recorder::new(t0, 0)));
        }
        layers.generator_threads = clients.len();
        report::per_layer(&rec, &layers)
    } else {
        let user_bytes: u64 = clients
            .iter()
            .map(|c| {
                c.chains.iter().map(|ch| ch.ids.len() as u64).sum::<u64>() * gen::user_bytes(&c.set)
            })
            .sum();
        report::end_to_end(&EndToEnd {
            setup_s,
            ops: e2e_ops,
            ops_per_s,
            stored_bytes: sys::dir_bytes(&lake_dir),
            user_bytes,
            peak_rss_bytes,
        })
    };
    drop(frontend);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        spans: opts.trace.then_some(rec),
    })
}

fn merged_ops(clients: &mut [Client]) -> OpSamples {
    let mut all = OpSamples::default();
    for c in clients {
        all.absorb(std::mem::take(&mut c.ops));
    }
    all
}

/// One client, the same sets saved once through the frontend and once
/// straight through a saver: the difference is the frontend's cost, and
/// with a single client the store counters around each direct operation
/// are exact. Returns (attempted, failed).
fn overhead_phase(
    env: &ManagementEnv,
    scratch: &ManagementEnv,
    sizing: &Sizing,
    seed: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> (u64, u64) {
    let frontend = FleetFrontend::new(env);
    let mut set = gen::initial_fleet(sizing.n_models, seed ^ 0xfeed).to_model_set();
    let mut rng = gen::rng(seed, "overhead", 0);
    let (mut via_frontend, mut direct) = (UpdateSaver::new(), UpdateSaver::new());
    let mut heads: [Option<ModelSetId>; 2] = [None, None];
    let (mut direct_ids, mut direct_docs, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let (mut save, mut recover, mut select) =
        (OpStats::default(), OpStats::default(), OpStats::default());
    let mut fail = |what: &str, e: &dyn std::fmt::Display| {
        failed += 1;
        eprintln!("FAILED overhead {what}: {e}");
    };
    for step in 0..=sizing.overhead_saves {
        if step > 0 {
            gen::perturb(&mut set, &mut rng);
        }
        let derivs = heads.clone().map(|h| h.map(gen::synthetic_derivation));
        let (res, t0, t1, _) = timed(env, || {
            frontend.save_set(
                "overhead",
                &mut via_frontend,
                &set,
                derivs[0].as_ref(),
                None,
            )
        });
        attempted += 1;
        match res {
            Ok(id) => {
                heads[0] = Some(id);
                if step > 0 {
                    layers.fleet_save_ms.push_ms(t1 - t0);
                }
            }
            Err(e) => fail("frontend save", &e),
        }
        let (res, t0, t1, delta) = timed(env, || direct.save_set(env, &set, derivs[1].as_ref()));
        attempted += 1;
        match res {
            Ok(id) => {
                if step > 0 {
                    layers.direct_save_ms.push_ms(t1 - t0);
                }
                save.add(delta, gen::user_bytes(&set));
                direct_docs.push(doc_id(&id).unwrap_or(0));
                heads[1] = Some(id.clone());
                direct_ids.push(id);
                digests.push(gen::digest(set.models()));
            }
            Err(e) => fail("direct save", &e),
        }
    }
    let layers_per_model = set.arch.parametric_layer_sizes().len();
    for (v, id) in direct_ids.iter().enumerate() {
        let (res, t0, t1, delta) = timed(env, || direct.recover_set(env, id));
        attempted += 1;
        match res {
            Ok(got) if gen::digest(got.models()) == digests[v] => {
                recover.add(delta, gen::user_bytes(&got))
            }
            Ok(_) => fail("direct recover", &"differs from what was saved"),
            Err(e) => fail("direct recover", &e),
        }
        let root = rec.root("recover", (2 << 48) | v as u64, t0, t1);
        let mut replay = Replay {
            rec,
            real: env,
            scratch,
            approach: Approach::Update,
            commits: 1 << 40,
        };
        if let Err(e) = replay.recover(root, &direct_docs[..=v], &set.arch, set.len(), None) {
            fail("recover replay", &e);
        }
        let indices = rng.sample_indices(set.len(), gen::SELECT_MODELS.min(set.len()));
        let (res, _, _, delta) = timed(env, || direct.recover_models(env, id, &indices));
        attempted += 1;
        match res {
            Ok(models) if gen::models_match(&models, &indices, &digests[v], layers_per_model) => {
                select.add(delta, (indices.len() * 4 * set.arch.param_count()) as u64)
            }
            Ok(_) => fail("direct select", &"differs from what was saved"),
            Err(e) => fail("direct select", &e),
        }
    }
    (layers.save, layers.recover, layers.select) = (save, recover, select);
    (attempted, failed)
}

//! `mmm` — command-line multi-model management.
//!
//! Manages a fleet of models in a persistent directory across
//! invocations: create a fleet, run update cycles, archive every version
//! with a chosen approach, inspect lineage, audit integrity, recover,
//! and garbage-collect.
//!
//! ```text
//! mmm init    --dir D [--models N] [--arch ffnn48|ffnn69|cifar] [--approach SPEC] [--backend plain|cas|tiered] [--cache-mb N]
//! mmm update  --dir D [--rate 0.10] [--divergence]
//! mmm list    --dir D
//! mmm lineage --dir D <set-id>
//! mmm verify  --dir D <set-id>
//! mmm fsck    --dir D [--repair] [--salvage]
//! mmm recover --dir D <set-id>
//! mmm gc      --dir D --keep-last K
//! mmm info    --dir D <set-id>
//! mmm export  --dir D <set-id> <file>
//! mmm import  --dir D <file>
//! mmm tag     --dir D <set-id> [<tag>]      # without <tag>: list tags
//! mmm find-tag --dir D <tag>
//! mmm query   --dir D <expr> [--json]        # model-lake search, e.g.
//!             'kind = "diff" and n_models >= 100 and tag:prod and bytes > 50MB'
//! mmm advise  [--priority storage|recovery|balanced]
//! mmm stats   [--models N] [--cycles K] [--setup zero|m1|server]
//! mmm chaos   [--dir D] [--seed S] [--rounds N] [--threads T] [--iters I] [--tenants K]
//!             [--models N] [--deadline-ms MS] [--commit-window-ms MS]
//!             [--report-out F] [--bench-out F]
//! mmm tier    --dir D [--keep-hot K]         # demote all but the K newest sets
//! mmm tier    --dir D --promote <set-id>     # pull one set back to the hot tier
//! mmm serve-obs [--listen ADDR] [--duration-ms MS] [--seed S]
//! mmm top     <addr>                         # one-shot /tenants SLO table
//! ```
//!
//! Set ids are printed by `init`/`update`/`list` in the form
//! `approach:key` (e.g. `update:3`).
//!
//! `--approach` takes an approach spec: a kind name optionally followed
//! by `:options` (e.g. `update:snapshot-every=4`). `--backend cas`
//! stores parameter blobs content-addressed — identical layers across
//! sets and versions are stored once — with an LRU recovery cache sized
//! by `--cache-mb`. The backend choice is persisted in the environment
//! and re-adopted on later invocations.
//!
//! Every command accepts `--threads N` to fan the save/recover hot
//! paths (hashing, chunk encoding, blob transfers)
//! out over N worker threads. Stored bytes and reported simulated
//! times are identical for every `N`; only wall-clock time changes.
//!
//! `mmm stats` runs a self-contained micro-scenario (all four
//! approaches, U1 + `--cycles` U3 cycles in a temp directory) with full
//! tracing enabled and pretty-prints the per-phase TTS/TTR breakdown in
//! simulated time. `--trace-out FILE` / `--metrics-out FILE` also dump
//! the JSONL span trace and Prometheus metrics text. `mmm stats
//! --from-trace FILE` skips the run and renders the same breakdown
//! offline from a previously dumped trace; a missing or truncated trace
//! is a hard error (non-zero exit), never an empty report.
//!
//! The live introspection plane: `mmm serve-obs` binds a
//! dependency-free HTTP endpoint (std TcpListener) serving `/metrics`
//! (Prometheus text), `/healthz` and `/tenants` (per-tenant SLO
//! snapshots as JSON) while driving deterministic demo fleet traffic;
//! `mmm top <addr>` renders a one-shot SLO table from a running
//! endpoint. Any other command accepts `--obs-listen ADDR` to expose
//! the same endpoints for its own run (e.g. `mmm chaos --obs-listen
//! 127.0.0.1:9184`).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mmm::bench::experiment::{run_scenario_in_env, ExperimentConfig};
use mmm::bench::report;
use mmm::core::advisor::{recommend, Priorities, Scenario};
use mmm::core::approach::{ApproachSpec, ModelSetSaver};
use mmm::core::env::ManagementEnv;
use mmm::core::model_set::{ModelSet, ModelSetId};
use mmm::core::{branch, bundle, catalog, fsck, gc, lineage, query, tags, tiering, verify};
use mmm::dnn::{ArchitectureSpec, Architectures, ParamDict};
use mmm::obs::Observer;
use mmm::store::{LatencyProfile, StorageBackend};
use mmm::util::codec::{put_f32_slice, put_str, put_u32, put_u64, Reader};
use mmm::util::{Error, Result, TempDir};
use mmm::workload::{DataSource, Fleet, FleetConfig, UpdatePolicy};

// ---------------------------------------------------------------------
// CLI plumbing

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage:\n  mmm init    --dir D [--models N] [--arch ffnn48|ffnn69|cifar] [--approach SPEC] [--seed S] [--backend plain|cas|tiered] [--cache-mb N]\n  mmm update  --dir D [--rate R] [--divergence]\n  mmm list    --dir D\n  mmm lineage --dir D <set-id>\n  mmm verify  --dir D <set-id>\n  mmm fsck    --dir D [--repair] [--salvage]\n  mmm recover --dir D <set-id>\n  mmm gc      --dir D --keep-last K\n  mmm fork    --dir D <set-id|branch> <name> [--at N]\n  mmm diff    --dir D <a> <b>          (set ids or branch names)\n  mmm merge   --dir D <base> <ours> <theirs> [--into BRANCH]\n  mmm branch  --dir D [--delete NAME]\n  mmm log     --dir D [--graph] [<set-id|branch>]\n  mmm export  --dir D <set-id> <file>\n  mmm import  --dir D <file>\n  mmm advise  [--priority storage|recovery|balanced]\n  mmm stats   [--models N] [--cycles K] [--setup zero|m1|server] [--trace-out F] [--metrics-out F] [--from-trace F]\n  mmm chaos   [--dir D] [--seed S] [--rounds N] [--threads T] [--iters I] [--tenants K] [--deadline-ms MS] [--commit-window-ms MS] [--report-out F] [--bench-out F]\n  mmm tier    --dir D [--keep-hot K] | --promote <set-id>\n  mmm tag     --dir D <set-id> [<tag>]\n  mmm find-tag --dir D <tag>\n  mmm query   --dir D <expr> [--json]\n  mmm serve-obs [--listen ADDR] [--duration-ms MS] [--seed S]\n  mmm top     <addr>\n\nquery exprs combine and/or/not/parens over kind, approach, key, base,\nn_models, depth, bytes (50MB etc.), tag:NAME, branch:NAME,\ndescendant-of(ID), similar-to(ID, 0.9)\napproach SPEC = kind[:opts], e.g. update, update:snapshot-every=4\nall commands accept --threads N (parallel save/recover; default 1),\n--backend/--cache-mb (an environment keeps the backend it was created with),\nand --obs-listen ADDR (serve /metrics /healthz /tenants for this run)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[derive(Default)]
struct Args {
    command: String,
    positional: Vec<String>,
    dir: Option<PathBuf>,
    models: usize,
    arch: String,
    approach: String,
    seed: u64,
    rate: f64,
    divergence: bool,
    all: bool,
    repair: bool,
    keep_last: usize,
    priority: String,
    threads: usize,
    backend: Option<StorageBackend>,
    cache_mb: Option<u64>,
    cycles: usize,
    setup: String,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    models_explicit: bool,
    rounds: usize,
    iters: usize,
    tenants: usize,
    deadline_ms: u64,
    commit_window_ms: u64,
    salvage: bool,
    report_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    keep_hot: usize,
    promote: bool,
    listen: Option<String>,
    duration_ms: u64,
    obs_listen: Option<String>,
    from_trace: Option<PathBuf>,
    at: usize,
    delete: Option<String>,
    graph: bool,
    into: Option<String>,
    json: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        models: 100,
        arch: "ffnn48".into(),
        approach: "update".into(),
        seed: 42,
        rate: 0.10,
        keep_last: 3,
        priority: "storage".into(),
        threads: 1,
        cycles: 2,
        setup: "zero".into(),
        rounds: 13,
        iters: 2,
        tenants: 4,
        deadline_ms: 30_000,
        keep_hot: 2,
        duration_ms: 10_000,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => a.dir = Some(PathBuf::from(next(&mut it, "--dir"))),
            "--models" => {
                a.models = num(&mut it, "--models");
                a.models_explicit = true;
            }
            "--arch" => a.arch = next(&mut it, "--arch"),
            "--approach" => a.approach = next(&mut it, "--approach"),
            "--seed" => a.seed = num(&mut it, "--seed") as u64,
            "--rate" => {
                a.rate = next(&mut it, "--rate")
                    .parse()
                    .unwrap_or_else(|_| usage("--rate needs a number"))
            }
            "--divergence" => a.divergence = true,
            "--all" => a.all = true,
            "--repair" => a.repair = true,
            "--keep-last" => a.keep_last = num(&mut it, "--keep-last"),
            "--priority" => a.priority = next(&mut it, "--priority"),
            "--threads" => a.threads = num(&mut it, "--threads").max(1),
            "--backend" => {
                let name = next(&mut it, "--backend");
                a.backend = Some(
                    StorageBackend::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown backend {name:?} (plain|cas)"))),
                );
            }
            "--cache-mb" => a.cache_mb = Some(num(&mut it, "--cache-mb") as u64),
            "--cycles" => a.cycles = num(&mut it, "--cycles"),
            "--setup" => a.setup = next(&mut it, "--setup"),
            "--trace-out" => a.trace_out = Some(PathBuf::from(next(&mut it, "--trace-out"))),
            "--metrics-out" => a.metrics_out = Some(PathBuf::from(next(&mut it, "--metrics-out"))),
            "--rounds" => a.rounds = num(&mut it, "--rounds"),
            "--iters" => a.iters = num(&mut it, "--iters"),
            "--tenants" => a.tenants = num(&mut it, "--tenants").max(1),
            "--deadline-ms" => a.deadline_ms = num(&mut it, "--deadline-ms") as u64,
            "--commit-window-ms" => a.commit_window_ms = num(&mut it, "--commit-window-ms") as u64,
            "--salvage" => a.salvage = true,
            "--keep-hot" => a.keep_hot = num(&mut it, "--keep-hot"),
            "--promote" => a.promote = true,
            "--report-out" => a.report_out = Some(PathBuf::from(next(&mut it, "--report-out"))),
            "--bench-out" => a.bench_out = Some(PathBuf::from(next(&mut it, "--bench-out"))),
            "--listen" => a.listen = Some(next(&mut it, "--listen")),
            "--duration-ms" => a.duration_ms = num(&mut it, "--duration-ms") as u64,
            "--obs-listen" => a.obs_listen = Some(next(&mut it, "--obs-listen")),
            "--from-trace" => a.from_trace = Some(PathBuf::from(next(&mut it, "--from-trace"))),
            "--at" => a.at = num(&mut it, "--at"),
            "--delete" => a.delete = Some(next(&mut it, "--delete")),
            "--graph" => a.graph = true,
            "--into" => a.into = Some(next(&mut it, "--into")),
            "--json" => a.json = true,
            "--help" | "-h" => usage(""),
            other if a.command.is_empty() && !other.starts_with('-') => a.command = other.into(),
            other if !other.starts_with('-') => a.positional.push(other.into()),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if a.command.is_empty() {
        usage("no command given");
    }
    a
}

fn next(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn num(it: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    next(it, flag)
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} needs a number")))
}

fn require_dir(a: &Args) -> &Path {
    a.dir.as_deref().unwrap_or_else(|| usage("--dir is required"))
}

/// Process-wide observer: enabled when the command records traces
/// (`stats`, or any command run with `--trace-out`/`--metrics-out`),
/// otherwise a no-op.
static OBSERVER: OnceLock<Observer> = OnceLock::new();

fn obs() -> &'static Observer {
    OBSERVER.get_or_init(Observer::disabled)
}

fn open_env(a: &Args) -> Result<ManagementEnv> {
    let mut builder = ManagementEnv::builder(require_dir(a), LatencyProfile::zero())
        .threads(a.threads)
        .observer(obs().clone());
    // Without --backend the environment re-adopts whatever backend it
    // was created with (persisted marker file).
    if let Some(backend) = a.backend {
        builder = builder.backend(backend);
    }
    if let Some(mb) = a.cache_mb {
        builder = builder.cache_bytes(mb * 1024 * 1024);
    }
    builder.open()
}

fn parse_set_id(s: &str) -> ModelSetId {
    let (approach, key) = s
        .split_once(':')
        .unwrap_or_else(|| usage(&format!("malformed set id {s:?}; expected approach:key")));
    ModelSetId { approach: approach.into(), key: key.into() }
}

fn make_saver(spec: &str) -> Box<dyn ModelSetSaver> {
    ApproachSpec::parse(spec)
        .unwrap_or_else(|e| usage(&e.to_string()))
        .build()
}

// ---------------------------------------------------------------------
// Persistent CLI state: the live fleet + bookkeeping, stored as blobs in
// the environment's file store under a reserved "cli/" prefix (they are
// working state, not archived model sets).

const STATE_KEY: &str = "cli/state.bin";
const STATE_MAGIC: &[u8; 4] = b"MMCL";

struct CliState {
    approach: String,
    seed: u64,
    arch: ArchitectureSpec,
    update_cycle: u64,
    last_set: Option<ModelSetId>,
    history: Vec<ModelSetId>,
    models: Vec<ParamDict>,
}

impl CliState {
    fn save(&self, env: &ManagementEnv) -> Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(STATE_MAGIC);
        put_str(&mut buf, &self.approach);
        put_u64(&mut buf, self.seed);
        put_str(&mut buf, &serde_json::to_string(&self.arch).expect("arch serializes"));
        put_u64(&mut buf, self.update_cycle);
        let ids: Vec<String> = self.history.iter().map(ModelSetId::to_string).collect();
        put_str(&mut buf, &self.last_set.as_ref().map(ModelSetId::to_string).unwrap_or_default());
        put_u32(&mut buf, ids.len() as u32);
        for id in &ids {
            put_str(&mut buf, id);
        }
        put_u32(&mut buf, self.models.len() as u32);
        for m in &self.models {
            put_u32(&mut buf, m.layers.len() as u32);
            for l in &m.layers {
                put_str(&mut buf, &l.name);
                put_u64(&mut buf, l.data.len() as u64);
                put_f32_slice(&mut buf, &l.data);
            }
        }
        env.blobs().put(STATE_KEY, &buf)
    }

    fn load(env: &ManagementEnv) -> Result<CliState> {
        let bytes = env
            .blobs()
            .get(STATE_KEY)
            .map_err(|_| Error::invalid("no fleet here; run `mmm init --dir ...` first"))?;
        let mut r = Reader::new(&bytes);
        if r.bytes(4)? != STATE_MAGIC {
            return Err(Error::corrupt("bad CLI state magic"));
        }
        let approach = r.str()?;
        let seed = r.u64()?;
        let arch: ArchitectureSpec = serde_json::from_str(&r.str()?)
            .map_err(|e| Error::corrupt(format!("bad arch in CLI state: {e}")))?;
        let update_cycle = r.u64()?;
        let last_raw = r.str()?;
        let last_set = if last_raw.is_empty() { None } else { Some(parse_set_id(&last_raw)) };
        let n_ids = r.u32()? as usize;
        let mut history = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            history.push(parse_set_id(&r.str()?));
        }
        let n_models = r.u32()? as usize;
        let mut models = Vec::with_capacity(n_models);
        for _ in 0..n_models {
            let n_layers = r.u32()? as usize;
            let mut layers = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                let name = r.str()?;
                let n = r.u64()? as usize;
                layers.push(mmm::dnn::LayerParams { name, data: r.f32_slice(n)? });
            }
            models.push(ParamDict { layers });
        }
        Ok(CliState { approach, seed, arch, update_cycle, last_set, history, models })
    }

    fn to_fleet(&self) -> Fleet {
        let mut fleet = Fleet::initial(FleetConfig {
            n_models: self.models.len(),
            seed: self.seed,
            arch: self.arch.clone(),
        });
        fleet.restore(self.models.clone(), self.update_cycle);
        fleet
    }
}

// ---------------------------------------------------------------------
// Commands

fn cmd_init(a: &Args) -> Result<()> {
    let dir = require_dir(a);
    let env = open_env(a)?;
    if env.blobs().exists(STATE_KEY) {
        return Err(Error::invalid(format!("{} already holds a fleet", dir.display())));
    }
    let arch = match a.arch.as_str() {
        "ffnn48" => Architectures::ffnn48(),
        "ffnn69" => Architectures::ffnn69(),
        "cifar" => Architectures::cifar_cnn(),
        other => usage(&format!("unknown architecture {other:?}")),
    };
    let fleet = Fleet::initial(FleetConfig { n_models: a.models, seed: a.seed, arch: arch.clone() });
    let mut saver = make_saver(&a.approach);
    let set = fleet.to_model_set();
    let id = saver.save_initial(&env, &set)?;
    let state = CliState {
        approach: a.approach.clone(),
        seed: a.seed,
        arch,
        update_cycle: 0,
        last_set: Some(id.clone()),
        history: vec![id.clone()],
        models: set.models,
    };
    state.save(&env)?;
    println!(
        "initialized fleet: {} × {} ({} params/model), approach {}",
        a.models,
        state.arch.name,
        state.arch.param_count(),
        a.approach
    );
    println!("U1 archived as {id}");
    Ok(())
}

fn cmd_update(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let mut state = CliState::load(&env)?;
    let mut fleet = state.to_fleet();

    let source = if state.arch.name == "CIFAR" {
        DataSource::Cifar { n_samples: 64 }
    } else {
        DataSource::battery_small()
    };
    let mut policy = UpdatePolicy::paper_default(source).with_update_rate(a.rate);
    if state.arch.name == "CIFAR" {
        policy.train = mmm::dnn::TrainConfig { epochs: 1, ..mmm::dnn::TrainConfig::classification_default(0) };
        policy.partial_layers = vec![1];
    }
    if a.divergence {
        policy = policy.with_divergence_selection(32);
    }

    let record = fleet.run_update_cycle(env.registry(), &policy)?;
    let set = fleet.to_model_set();
    let mut saver = make_saver(&state.approach);
    let base = state
        .last_set
        .clone()
        .ok_or_else(|| Error::invalid("fleet has no archived base set"))?;
    let ((id, m), selection) = (
        env.measure(|| saver.save_set(&env, &set, Some(&record.derivation(base)))),
        if a.divergence { "divergence-driven" } else { "random" },
    );
    let id = id?;
    println!(
        "update cycle {}: {} models retrained ({selection}); archived {:.3} MB in {:.3}s as {id}",
        record.update_cycle,
        record.updates.len(),
        m.bytes_written() as f64 / 1e6,
        m.duration.as_secs_f64()
    );
    state.update_cycle = fleet.update_cycle();
    state.models = set.models;
    state.last_set = Some(id.clone());
    state.history.push(id);
    state.save(&env)
}

fn cmd_list(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    if a.all {
        // Catalog view: every set archived in this environment,
        // including ones created outside this CLI fleet. Served by the
        // query engine (`mmm query true` is the superset view); the
        // line format here is a stable contract.
        for r in query::run(&env, "true")?.records {
            println!(
                "{:<24} kind={:<5} models={:<6} base={}",
                r.id.to_string(),
                r.kind,
                r.n_models,
                r.base.as_deref().unwrap_or("-")
            );
        }
        return Ok(());
    }
    let state = CliState::load(&env)?;
    println!(
        "fleet: {} × {} | approach {} | {} update cycle(s)",
        state.models.len(),
        state.arch.name,
        state.approach,
        state.update_cycle
    );
    for (i, id) in state.history.iter().enumerate() {
        let uc = if i == 0 { "U1".to_string() } else { format!("U3-{i}") };
        println!("  {uc:<6} {id}");
    }
    Ok(())
}

fn cmd_lineage(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let id = parse_set_id(a.positional.first().unwrap_or_else(|| usage("lineage needs a set id")));
    for node in lineage::lineage(&env, &id)? {
        println!(
            "{} kind={} models={} changes={}",
            node.id, node.kind, node.n_models, node.n_changes
        );
    }
    Ok(())
}

/// A positional that names a set: either an explicit `approach:key` id
/// or a branch name (resolved to that branch's head).
fn resolve_set(env: &ManagementEnv, s: &str) -> Result<ModelSetId> {
    if s.contains(':') {
        return Ok(parse_set_id(s));
    }
    Ok(branch::branch_by_name(env, s)?.head)
}

fn cmd_fork(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let source = a.positional.first().unwrap_or_else(|| usage("fork needs a source set or branch"));
    let name = a.positional.get(1).unwrap_or_else(|| usage("fork needs a branch name"));
    let source = resolve_set(&env, source)?;
    let b = branch::fork(&env, &source, a.at, name)?;
    println!("forked branch {:?} at {} (head {})", b.name, b.root, b.head);
    Ok(())
}

fn cmd_diff(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let ia = resolve_set(&env, a.positional.first().unwrap_or_else(|| usage("diff needs two sets")))?;
    let ib = resolve_set(&env, a.positional.get(1).unwrap_or_else(|| usage("diff needs two sets")))?;
    let d = branch::diff(&env, &ia, &ib)?;
    if d.is_empty() {
        println!("{} and {} are identical", d.a, d.b);
        return Ok(());
    }
    for c in &d.changed {
        println!("changed model {} layer {} ({} bytes)", c.model, c.layer, c.bytes);
    }
    println!(
        "{} layer(s) changed ({} bytes), {} model(s) added ({} bytes), {} model(s) removed ({} bytes)",
        d.changed.len(),
        d.bytes_changed,
        d.added_models,
        d.bytes_added,
        d.removed_models,
        d.bytes_removed
    );
    Ok(())
}

fn cmd_merge(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    if a.positional.len() < 3 {
        usage("merge needs <base> <ours> <theirs>");
    }
    let base = resolve_set(&env, &a.positional[0])?;
    let ours = resolve_set(&env, &a.positional[1])?;
    let theirs = resolve_set(&env, &a.positional[2])?;
    let outcome = branch::merge(&env, &base, &ours, &theirs)?;
    if !outcome.is_clean() {
        for c in &outcome.conflicts {
            println!("CONFLICT: model {} layer {} changed on both sides", c.model, c.layer);
        }
        return Err(Error::invalid(format!(
            "{} conflict(s); nothing was written",
            outcome.conflicts.len()
        )));
    }
    let merged = outcome.merged.expect("clean merge produces a set");
    println!(
        "merged {} (ours {} layer(s), theirs {} layer(s))",
        merged, outcome.took_ours, outcome.took_theirs
    );
    if let Some(name) = &a.into {
        let b = branch::advance(&env, name, &merged)?;
        println!("advanced branch {:?} to {}", b.name, b.head);
    }
    Ok(())
}

fn cmd_branch(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    if let Some(name) = &a.delete {
        let r = branch::delete_branch(&env, name)?;
        println!(
            "deleted branch {:?}: {} set(s), {} doc(s), {} blob(s), {} commit(s)",
            name, r.sets_deleted, r.docs_deleted, r.blobs_deleted, r.commits_deleted
        );
        if let Some(id) = r.stopped_on_dependent {
            println!("kept {id}: another set still derives from it");
        }
        return Ok(());
    }
    let all = branch::branches(&env)?;
    if all.is_empty() {
        println!("no branches");
    }
    for b in all {
        println!("{:<16} head={} root={} nodes={}", b.name, b.head, b.root, b.nodes.len());
    }
    Ok(())
}

fn cmd_log(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let branches = branch::branches(&env)?;
    let label = |key: &str| -> String {
        let mut tags: Vec<String> = branches
            .iter()
            .filter(|b| b.head.key == key)
            .map(|b| b.name.clone())
            .collect();
        tags.sort();
        if tags.is_empty() { String::new() } else { format!(" [{}]", tags.join(", ")) }
    };
    if let Some(start) = a.positional.first() {
        // Linear history of one set, newest first (like `git log`).
        let id = resolve_set(&env, start)?;
        for node in lineage::lineage(&env, &id)? {
            println!(
                "{} kind={} models={} changes={}{}",
                node.id,
                node.kind,
                node.n_models,
                node.n_changes,
                label(&node.id.key)
            );
        }
        return Ok(());
    }
    // Whole-store view. With --graph, render the version DAG as a
    // forest: children indent under their base, branch heads annotated.
    let sets = catalog::list_sets(&env)?;
    if !a.graph {
        for s in sets.iter().filter(|s| s.id.approach != "mmlib-base") {
            println!(
                "{:<24} kind={:<5} models={:<6}{}",
                s.id.to_string(),
                s.kind,
                s.n_models,
                label(&s.id.key)
            );
        }
        return Ok(());
    }
    let mut children: std::collections::BTreeMap<&str, Vec<&catalog::SetSummary>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<&catalog::SetSummary> = Vec::new();
    for s in sets.iter().filter(|s| s.id.approach != "mmlib-base") {
        match s.base.as_deref() {
            Some(base) => children.entry(base).or_default().push(s),
            None => roots.push(s),
        }
    }
    fn render(
        s: &catalog::SetSummary,
        depth: usize,
        last: bool,
        children: &std::collections::BTreeMap<&str, Vec<&catalog::SetSummary>>,
        label: &dyn Fn(&str) -> String,
    ) {
        let lead = if depth == 0 {
            "*".to_string()
        } else {
            format!("{}{}", "  ".repeat(depth - 1), if last { "└─" } else { "├─" })
        };
        let branch_note =
            s.branch.as_ref().map(|b| format!(" (fork -> {b})")).unwrap_or_default();
        println!(
            "{} {} kind={} models={}{}{}",
            lead,
            s.id,
            s.kind,
            s.n_models,
            label(&s.id.key),
            branch_note
        );
        if let Some(kids) = children.get(s.id.key.as_str()) {
            for (i, kid) in kids.iter().enumerate() {
                render(kid, depth + 1, i + 1 == kids.len(), children, label);
            }
        }
    }
    for root in roots {
        render(root, 0, true, &children, &label);
    }
    Ok(())
}

fn cmd_verify(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let id = parse_set_id(a.positional.first().unwrap_or_else(|| usage("verify needs a set id")));
    let report = verify::verify_set(&env, &id)?;
    println!(
        "checked {} documents, {} blobs{}",
        report.docs_checked,
        report.blobs_checked,
        if report.hashes_checked { ", parameter hashes audited" } else { "" }
    );
    if report.is_healthy() {
        println!("OK: {id} is healthy");
        Ok(())
    } else {
        for issue in &report.issues {
            println!("ISSUE: {issue}");
        }
        Err(Error::corrupt(format!("{} issue(s) found", report.issues.len())))
    }
}

fn cmd_fsck(a: &Args) -> Result<()> {
    // --salvage: quarantine unreadable document-log records first, so a
    // store whose strict open fails with Corrupt can be audited at all.
    if a.salvage {
        let dir = a.dir.as_deref().ok_or_else(|| Error::invalid("--salvage needs --dir"))?;
        let s = fsck::salvage_docs(dir)?;
        if s.is_noop() {
            println!("salvage: document logs already clean ({} collection(s))", s.collections);
        } else {
            println!(
                "salvage: kept {} record(s), quarantined {} bad record(s) and {} torn tail(s)",
                s.records_kept, s.records_dropped, s.torn_tails
            );
        }
    }
    let env = open_env(a)?;
    let report = fsck::fsck(&env)?;
    println!("checked {} set(s), {} blob(s)", report.sets_checked, report.blobs_checked);
    if report.is_clean() {
        println!("OK: environment is clean");
        return Ok(());
    }
    for damage in &report.damage {
        println!("DAMAGE: {}", damage.describe());
    }
    if !a.repair {
        return Err(Error::corrupt(format!(
            "{} problem(s) found; rerun with --repair to fix",
            report.damage.len()
        )));
    }
    // Destructured without `..`, so a new field cannot go unprinted.
    let fsck::RepairReport {
        uncommitted_docs_deleted,
        uncommitted_blobs_deleted,
        orphan_blobs_deleted,
        orphan_chunks_deleted,
        dangling_commits_removed,
        sets_quarantined,
        branches_quarantined,
    } = fsck::repair(&env, &report)?;
    println!(
        "repair: {uncommitted_docs_deleted} uncommitted doc(s) and \
         {uncommitted_blobs_deleted} uncommitted blob(s) collected, \
         {orphan_blobs_deleted} orphan blob(s) and {orphan_chunks_deleted} orphan chunk(s) deleted, \
         {dangling_commits_removed} dangling commit(s) removed, \
         {sets_quarantined} set(s) and {branches_quarantined} branch(es) quarantined"
    );
    let after = fsck::fsck(&env)?;
    if after.is_clean() {
        println!("OK: environment is clean after repair");
        Ok(())
    } else {
        for damage in &after.damage {
            println!("REMAINING: {}", damage.describe());
        }
        Err(Error::corrupt(format!("{} problem(s) remain after repair", after.damage.len())))
    }
}

fn cmd_recover(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let id = parse_set_id(a.positional.first().unwrap_or_else(|| usage("recover needs a set id")));
    let saver = make_saver(&id.approach);
    let (set, m): (Result<ModelSet>, _) = env.measure(|| saver.recover_set(&env, &id));
    let set = set?;
    println!(
        "recovered {} models × {} params in {:.3}s ({} store ops)",
        set.len(),
        set.arch.param_count(),
        m.duration.as_secs_f64(),
        m.stats.total_ops()
    );
    Ok(())
}

fn cmd_gc(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let mut state = CliState::load(&env)?;
    let deleted = gc::apply_retention(&env, &state.history, a.keep_last)?;
    for id in &deleted {
        println!("deleted {id}");
    }
    println!("{} set(s) deleted, {} retained", deleted.len(), state.history.len() - deleted.len());
    state.history.retain(|id| !deleted.contains(id));
    state.save(&env)?;
    // Reclaim datasets no surviving provenance record references.
    let (n, bytes) = gc::collect_unreferenced_datasets(&env)?;
    if n > 0 {
        println!("reclaimed {n} unreferenced dataset(s), {:.2} MB", bytes as f64 / 1e6);
    }
    // On the cas backend, sweep chunk payloads no manifest references.
    let (chunks, chunk_bytes) = gc::reclaim_orphan_chunks(&env)?;
    if chunks > 0 {
        println!(
            "reclaimed {chunks} unreferenced chunk(s), {:.2} MB",
            chunk_bytes as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_tier(a: &Args) -> Result<()> {
    use mmm::store::StorageTier;
    let env = open_env(a)?;
    if a.promote {
        let id = parse_set_id(
            a.positional.first().unwrap_or_else(|| usage("tier --promote needs a set id")),
        );
        let (blobs, bytes) = tiering::promote_set(&env, &id)?;
        println!("promoted {id}: {blobs} blob(s), {:.3} MB back on the hot tier", bytes as f64 / 1e6);
    } else {
        let state = CliState::load(&env)?;
        let report = tiering::demote_old_sets(&env, &state.history, a.keep_hot)?;
        for id in &report.demoted {
            println!("demoted {id}");
        }
        println!(
            "{} set(s) demoted ({} blob(s), {:.3} MB); {} kept hot",
            report.demoted.len(),
            report.blobs_demoted,
            report.bytes_demoted as f64 / 1e6,
            state.history.len().min(a.keep_hot)
        );
    }
    let tiered = env.tiered().expect("tier commands require the tiered backend");
    for tier in [StorageTier::Hot, StorageTier::Cold] {
        let snap = tiered.tier_stats(tier);
        println!(
            "{:<4} tier: {:.3} MB on disk | session traffic: {} get(s), {} put(s)",
            tier.name(),
            tiered.tier_disk_bytes(tier) as f64 / 1e6,
            snap.blob_gets,
            snap.blob_puts,
        );
    }
    Ok(())
}

fn cmd_info(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let id = parse_set_id(a.positional.first().unwrap_or_else(|| usage("info needs a set id")));
    let chain = lineage::lineage(&env, &id)?;
    let head = &chain[0];
    println!("set:      {id}");
    println!("kind:     {}", head.kind);
    println!("models:   {}", head.n_models);
    println!("depth:    {} (chain of {})", chain.len() - 1, chain.len());
    let t = tags::tags_of(&env, &id)?;
    println!("tags:     {}", if t.is_empty() { "-".into() } else { t.join(", ") });
    let report = verify::verify_set(&env, &id)?;
    println!(
        "health:   {} ({} docs, {} blobs checked)",
        if report.is_healthy() { "OK" } else { "ISSUES" },
        report.docs_checked,
        report.blobs_checked
    );
    for issue in &report.issues {
        println!("  ISSUE: {issue}");
    }
    Ok(())
}

fn cmd_tag(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let id = parse_set_id(a.positional.first().unwrap_or_else(|| usage("tag needs a set id")));
    match a.positional.get(1) {
        Some(tag) => {
            tags::tag_set(&env, &id, tag)?;
            println!("tagged {id} with {tag:?}");
        }
        None => {
            for t in tags::tags_of(&env, &id)? {
                println!("{t}");
            }
        }
    }
    Ok(())
}

fn cmd_find_tag(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let tag = a.positional.first().unwrap_or_else(|| usage("find-tag needs a tag"));
    // Thin sugar over the query engine's tag index probe. Output stays
    // one id per line; only committed sets are listed (a tag left on a
    // deleted set no longer prints a dangling id).
    let q = query::Query::from_expr(query::Expr::Tag(tag.clone()));
    for r in q.run(&env)?.records {
        println!("{}", r.id);
    }
    Ok(())
}

/// Render a [`query::QueryOutput`] as the stable `--json` document.
fn query_json(expr: &str, out: &mmm::core::query::QueryOutput) -> serde_json::Value {
    serde_json::json!({
        "query": expr,
        "count": out.records.len(),
        "scanned": out.scanned,
        "probes": out.probes,
        "sets": out.records.iter().map(|r| serde_json::json!({
            "id": r.id.to_string(),
            "approach": r.id.approach,
            "key": r.id.key,
            "kind": r.kind.as_str(),
            "n_models": r.n_models,
            "base": r.base,
            "fork_of": r.fork_of,
            "tags": r.tags,
            "branches": r.branches,
            "depth": r.depth,
            "bytes": serde_json::json!({
                "total": r.bytes_stored.total,
                "hot": r.bytes_stored.hot,
                "cold": r.bytes_stored.cold,
            }),
            "similarity": r.similarity,
        })).collect::<Vec<_>>(),
    })
}

fn cmd_query(a: &Args) -> Result<()> {
    // Join the positionals so lightly-quoted shells still work:
    // `mmm query tag:prod and depth >= 2`.
    let expr_text = a.positional.join(" ");
    if expr_text.trim().is_empty() {
        usage("query needs an expression, e.g. 'kind = \"diff\" and tag:prod'");
    }
    let q = match query::Query::parse(&expr_text) {
        Ok(q) => q,
        Err(e) => {
            // Point at the offending byte before the error line.
            eprintln!("  {expr_text}");
            eprintln!("  {}^", " ".repeat(e.offset.min(expr_text.len())));
            return Err(Error::invalid(e.to_string()));
        }
    };
    let env = open_env(a)?;
    let out = q.run(&env)?;
    if a.json {
        println!("{}", query_json(&expr_text, &out));
        return Ok(());
    }
    for r in &out.records {
        let tags = if r.tags.is_empty() { "-".to_string() } else { r.tags.join(",") };
        let branches =
            if r.branches.is_empty() { "-".to_string() } else { r.branches.join(",") };
        let sim = r.similarity.map(|s| format!(" sim={s:.3}")).unwrap_or_default();
        println!(
            "{:<24} kind={:<5} models={:<6} depth={:<3} bytes={:<10} base={:<8} tags={} branches={}{}",
            r.id.to_string(),
            r.kind,
            r.n_models,
            r.depth,
            r.bytes_stored.total,
            r.base.as_deref().unwrap_or("-"),
            tags,
            branches,
            sim
        );
    }
    let probes = if out.probes.is_empty() {
        String::new()
    } else {
        format!("; probes: {}", out.probes.join(", "))
    };
    println!("{} set(s) matched of {} scanned{probes}", out.records.len(), out.scanned);
    Ok(())
}

fn cmd_export(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let id = parse_set_id(a.positional.first().unwrap_or_else(|| usage("export needs a set id")));
    let path = a.positional.get(1).unwrap_or_else(|| usage("export needs an output file"));
    let bytes = bundle::export_set(&env, &id)?;
    std::fs::write(path, &bytes)?;
    println!("exported {id} ({:.3} MB) to {path}", bytes.len() as f64 / 1e6);
    Ok(())
}

fn cmd_import(a: &Args) -> Result<()> {
    let env = open_env(a)?;
    let path = a.positional.first().unwrap_or_else(|| usage("import needs a bundle file"));
    let bytes = std::fs::read(path)?;
    let id = bundle::import_set(&env, &bytes)?;
    println!("imported as {id}");
    Ok(())
}

fn cmd_advise(a: &Args) -> Result<()> {
    let priorities = match a.priority.as_str() {
        "storage" => Priorities::storage_first(),
        "recovery" => Priorities::recovery_first(),
        "balanced" => Priorities::balanced(),
        other => usage(&format!("unknown priority {other:?}")),
    };
    let scenario = Scenario { n_models: a.models.max(1), ..Scenario::default() };
    let rec = recommend(&scenario, &priorities);
    for (approach, score) in &rec.ranking {
        println!("{:<12} score {score:.2}", approach.name());
    }
    println!("-> use the {} approach", rec.best().name());
    Ok(())
}

/// Offline `mmm stats --from-trace`: render the per-phase breakdown
/// from a previously dumped JSONL span trace. A missing, empty, or
/// mid-record-truncated trace is a hard error (non-zero exit), never a
/// silently empty report.
fn stats_from_trace(path: &Path) -> Result<()> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        Error::invalid(format!(
            "cannot read trace file {} ({e}); expected JSONL from --trace-out",
            path.display()
        ))
    })?;
    let records = mmm::obs::parse_trace_jsonl(&text)
        .map_err(|e| Error::corrupt(format!("trace {} is unusable: {e}", path.display())))?;
    if records.is_empty() {
        return Err(Error::invalid(format!(
            "trace {} holds no spans (empty or events-only file)",
            path.display()
        )));
    }
    println!(
        "=== per-phase TTS/TTR breakdown (simulated time) — {} span(s) from {} ===",
        records.len(),
        path.display()
    );
    print!("{}", mmm::obs::render_breakdown(&mmm::obs::breakdown(&records)));
    Ok(())
}

fn cmd_stats(a: &Args) -> Result<()> {
    if let Some(path) = &a.from_trace {
        return stats_from_trace(path);
    }
    let profile = LatencyProfile::by_name(&a.setup)
        .unwrap_or_else(|| usage(&format!("unknown setup {:?}; expected zero|m1|server", a.setup)));
    let cfg = ExperimentConfig {
        profile,
        ..ExperimentConfig::small(a.models, a.cycles)
    }
    .with_threads(a.threads)
    .with_observer(obs().clone());
    let dir = TempDir::new("mmm-stats")?;
    let env = ManagementEnv::builder(dir.path(), profile)
        .threads(cfg.threads)
        .observer(obs().clone())
        .open()?;
    println!(
        "micro-scenario: {} models × {} ({} params/model), U1 + {} U3 cycle(s)",
        cfg.n_models,
        cfg.arch.name,
        cfg.arch.param_count(),
        cfg.n_cycles
    );
    let r = run_scenario_in_env(&cfg, &env)?;
    print!("{}", report::run_header(env.profile().name, cfg.threads, &env.store_stats().lane_history()));
    println!("\n=== storage (MB) ===\n{}", report::storage_table(&r));
    println!("=== TTS (s) ===\n{}", report::tts_table(&r));
    println!("=== TTR (s) ===\n{}", report::ttr_table(&r));
    println!("=== per-phase TTS/TTR breakdown (simulated time) ===");
    print!("{}", report::phase_table(obs()));
    Ok(())
}

fn cmd_chaos(a: &Args) -> Result<()> {
    use mmm::workload::chaos::{self, ChaosConfig};
    use std::time::Duration;

    let config = ChaosConfig {
        seed: a.seed,
        threads: a.threads.max(1),
        tenants: a.tenants,
        rounds: a.rounds,
        iters: a.iters,
        // Chaos exercises the control plane; tiny sets keep the storm
        // schedule dense. An explicit --models overrides.
        n_models: if a.models_explicit { a.models.max(1) } else { 2 },
        deadline: Duration::from_millis(a.deadline_ms),
        commit_window: Duration::from_millis(a.commit_window_ms),
        ..ChaosConfig::default()
    };
    // --dir reuses (and further batters) an existing store; default is a
    // throwaway directory.
    let tmp;
    let dir: &Path = match &a.dir {
        Some(d) => d,
        None => {
            tmp = TempDir::new("mmm-chaos")?;
            tmp.path()
        }
    };

    println!(
        "chaos: seed {} · {} round(s) × {} thread(s) × {} iter(s) = {} tenant-iterations",
        config.seed,
        config.rounds,
        config.threads,
        config.iters,
        config.tenant_iterations()
    );
    let report = chaos::run_chaos_observed(dir, &config, obs())?;
    println!(
        "requests {} · saves ok {} · errors {} · recovers fresh {} / stale {}",
        report.requests,
        report.saves_ok,
        report.request_errors,
        report.recovers_fresh,
        report.recovers_stale
    );
    println!(
        "commit batches {} covering {} save(s) · crash debris {} · flip-lost saves {}",
        report.commit_batches, report.commit_members, report.debris_entries, report.saves_lost_to_flips
    );

    if let Some(path) = &a.bench_out {
        let bench = chaos::service_bench(dir, &[1, 4], 25, &config)?;
        let doc = chaos::service_bench_json(&config, 25, &bench);
        let text = serde_json::to_string(&doc)
            .map_err(|e| Error::invalid(format!("unserializable bench report: {e}")))?;
        std::fs::write(path, text)?;
        println!("wrote service bench to {}", path.display());
    }

    if let Some(path) = &a.report_out {
        let doc = chaos::report_json(&config, &report);
        let text = serde_json::to_string(&doc)
            .map_err(|e| Error::invalid(format!("unserializable chaos report: {e}")))?;
        std::fs::write(path, text)?;
        println!("wrote chaos report to {}", path.display());
    }

    if report.passed() {
        println!("OK: every invariant held across {} round(s)", report.rounds);
        Ok(())
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        Err(Error::corrupt(format!("{} invariant violation(s)", report.violations.len())))
    }
}

/// `mmm serve-obs`: bind the introspection endpoint and drive
/// deterministic demo fleet traffic (three tenants saving/recovering
/// tiny sets through the frontend) until `--duration-ms` elapses, so
/// `/metrics` and `/tenants` have live data to show.
fn cmd_serve_obs(a: &Args) -> Result<()> {
    use mmm::core::fleet::FleetFrontend;
    use std::time::{Duration, Instant};

    let addr = a.listen.clone().unwrap_or_else(|| "127.0.0.1:0".to_string());
    // The demo environment exists before the server so the /query
    // route can capture a handle: the server thread runs queries
    // against the same store the demo traffic writes to.
    let tmp = TempDir::new("mmm-serve-obs")?;
    let env = std::sync::Arc::new(
        ManagementEnv::builder(tmp.path(), LatencyProfile::m1())
            .threads(a.threads)
            .observer(obs().clone())
            .commit_window(Duration::from_millis(2))
            .open()?,
    );
    let qenv = env.clone();
    let handler: mmm::obs::QueryHandler = std::sync::Arc::new(move |expr: &str| {
        query::run(&qenv, expr)
            .map(|out| query_json(expr, &out).to_string())
            .map_err(|e| e.to_string())
    });
    let server = mmm::obs::ObsServer::start_with_query(
        addr.as_str(),
        obs().clone(),
        mmm::obs::slo::DEFAULT_OBJECTIVE,
        Some(handler),
    )
    .map_err(|e| Error::invalid(format!("cannot bind {addr}: {e}")))?;
    // The bound address line is the contract scripts scrape for; flush
    // it before the (long) serving window starts.
    println!("obs: serving on http://{}", server.local_addr());
    println!(
        "obs: endpoints /metrics /healthz /tenants /query; serving for {} ms",
        a.duration_ms
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let frontend = FleetFrontend::new(&env);
    let tenants = ["acme", "globex", "initech"];
    let arch = Architectures::ffnn48();
    let set =
        Fleet::initial(FleetConfig { n_models: 2, seed: a.seed, arch: arch.clone() }).to_model_set();
    let deadline = Some(Duration::from_secs(30));
    let mut ids = Vec::new();
    for tenant in tenants {
        let mut saver = make_saver("baseline");
        ids.push(frontend.save_initial(tenant, saver.as_mut(), &set, deadline)?);
    }
    frontend.publish_health();

    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < Duration::from_millis(a.duration_ms) {
        let tenant = tenants[i % tenants.len()];
        let saver = make_saver("baseline");
        let _ = frontend.recover(tenant, saver.as_ref(), &ids[i % ids.len()], deadline);
        if i % 5 == 4 {
            let mut saver = make_saver("baseline");
            if let Ok(id) = frontend.save_set(tenant, saver.as_mut(), &set, None, deadline) {
                let slot = i % ids.len();
                ids[slot] = id;
            }
        }
        frontend.publish_health();
        std::thread::sleep(Duration::from_millis(10));
        i += 1;
    }
    frontend.publish_health();
    drop(frontend);
    server.shutdown();
    println!("obs: served {} request(s) over {:.1}s", i, start.elapsed().as_secs_f64());
    Ok(())
}

/// Minimal HTTP/1.1 GET against the introspection endpoint; returns
/// the response body.
fn http_get(addr: &str, path: &str) -> Result<String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| Error::invalid(format!("cannot connect to {addr}: {e}")))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).ok();
    stream.set_write_timeout(Some(std::time::Duration::from_secs(5))).ok();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| Error::corrupt(format!("malformed HTTP response from {addr}")))
}

/// `mmm top <addr>`: one-shot render of a running endpoint's `/tenants`
/// SLO snapshot.
fn cmd_top(a: &Args) -> Result<()> {
    let addr =
        a.positional.first().unwrap_or_else(|| usage("top needs the endpoint address (host:port)"));
    let body = http_get(addr, "/tenants")?;
    let doc: serde_json::Value = serde_json::from_str(&body)
        .map_err(|e| Error::corrupt(format!("bad /tenants JSON from {addr}: {e}")))?;
    let objective = doc
        .get("objective")
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(mmm::obs::slo::DEFAULT_OBJECTIVE);
    let rows: Vec<mmm::obs::TenantSlo> = serde_json::from_value(
        doc.get("tenants").cloned().unwrap_or(serde_json::Value::Array(Vec::new())),
    )
    .map_err(|e| Error::corrupt(format!("bad tenant rows from {addr}: {e}")))?;
    println!("tenants @ {addr} (objective {:.2}%)", objective * 100.0);
    print!("{}", mmm::obs::render_tenants(&rows));
    Ok(())
}

fn main() {
    let args = parse_args();
    if args.command == "stats"
        || args.command == "serve-obs"
        || args.trace_out.is_some()
        || args.metrics_out.is_some()
        || args.obs_listen.is_some()
    {
        let _ = OBSERVER.set(Observer::new());
    }
    // --obs-listen exposes this run's observer over HTTP for its whole
    // duration (serve-obs manages its own listener via --listen).
    let obs_server = args.obs_listen.as_ref().map(|addr| {
        mmm::obs::ObsServer::start(
            addr.as_str(),
            obs().clone(),
            mmm::obs::slo::DEFAULT_OBJECTIVE,
        )
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(2);
        })
    });
    if let Some(server) = &obs_server {
        eprintln!("obs: serving on http://{}", server.local_addr());
    }
    let result = match args.command.as_str() {
        "init" => cmd_init(&args),
        "update" => cmd_update(&args),
        "list" => cmd_list(&args),
        "lineage" => cmd_lineage(&args),
        "fork" => cmd_fork(&args),
        "diff" => cmd_diff(&args),
        "merge" => cmd_merge(&args),
        "branch" => cmd_branch(&args),
        "log" => cmd_log(&args),
        "verify" => cmd_verify(&args),
        "fsck" => cmd_fsck(&args),
        "recover" => cmd_recover(&args),
        "gc" => cmd_gc(&args),
        "info" => cmd_info(&args),
        "export" => cmd_export(&args),
        "import" => cmd_import(&args),
        "tag" => cmd_tag(&args),
        "find-tag" => cmd_find_tag(&args),
        "query" => cmd_query(&args),
        "advise" => cmd_advise(&args),
        "stats" => cmd_stats(&args),
        "chaos" => cmd_chaos(&args),
        "tier" => cmd_tier(&args),
        "serve-obs" => cmd_serve_obs(&args),
        "top" => cmd_top(&args),
        other => usage(&format!("unknown command {other:?}")),
    };
    // Dump observability artifacts even when the command failed — the
    // trace of a failed run is exactly what one wants to look at.
    if let Some(path) = &args.trace_out {
        match obs().write_trace(path) {
            Ok(()) => eprintln!("wrote span trace to {}", path.display()),
            Err(e) => eprintln!("error: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.metrics_out {
        match obs().write_metrics(path) {
            Ok(()) => eprintln!("wrote metrics to {}", path.display()),
            Err(e) => eprintln!("error: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(server) = obs_server {
        server.shutdown();
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

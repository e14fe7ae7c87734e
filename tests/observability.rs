//! Observability acceptance tests.
//!
//! Tracing must be a pure read on the system it observes:
//!
//! 1. **Zero interference**: running the full Figure-2 scenario with the
//!    observer enabled stores bit-identical bytes on disk and reports
//!    identical store-op accounting as an unobserved run — for every
//!    approach, at 1 and at 4 worker threads.
//! 2. **Exact phase tiling**: every `save`/`recover` op's named phases
//!    sum to the op's end-to-end simulated time with a zero `other`
//!    residual, and each breakdown total equals the TTS/TTR simulated
//!    time the bench reports for that cell.
//!    A `query` tiles the same way into `plan` / `catalog` / `join` /
//!    `eval`, whether it scans the catalogue or fetches a probe's
//!    candidates.
//! 3. **Deterministic traces**: two runs of the same seeded scenario
//!    produce the same ordered span sequence with the same simulated
//!    durations, even across parallel worker lanes (only wall-clock
//!    `real_ns` and lane assignment may differ).

use std::collections::BTreeMap;
use std::path::Path;

use mmm::bench::experiment::{run_scenario_in_env, ExperimentConfig, APPROACHES};
use mmm::core::env::ManagementEnv;
use mmm::dnn::Architectures;
use mmm::obs::Observer;
use mmm::store::LatencyProfile;
use mmm::util::TempDir;

fn cfg(threads: usize, profile: LatencyProfile, observer: Observer) -> ExperimentConfig {
    ExperimentConfig {
        arch: Architectures::ffnn(6),
        profile,
        ..ExperimentConfig::small(10, 2)
    }
    .with_threads(threads)
    .with_observer(observer)
}

/// Every file under `root`, as relative path → content.
fn dir_contents(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

#[test]
fn tracing_changes_no_stored_bytes_and_no_op_accounting() {
    for threads in [1, 4] {
        let mut runs = Vec::new();
        for observer in [Observer::disabled(), Observer::new()] {
            let dir = TempDir::new("it-obs").unwrap();
            let c = cfg(threads, LatencyProfile::zero(), observer.clone());
            let env = ManagementEnv::builder(dir.path(), c.profile)
                .threads(c.threads)
                .observer(observer)
                .open()
                .unwrap();
            let r = run_scenario_in_env(&c, &env).unwrap();
            runs.push((dir_contents(dir.path()), env.stats(), r));
        }
        let (files_off, stats_off, r_off) = &runs[0];
        let (files_on, stats_on, r_on) = &runs[1];

        assert_eq!(
            stats_off, stats_on,
            "global store-op sums must not depend on tracing ({threads} thread(s))"
        );
        for a in APPROACHES {
            let bytes = |r: &mmm::bench::ScenarioResult| {
                r.row(a).iter().map(|c| c.storage_bytes).collect::<Vec<_>>()
            };
            assert_eq!(bytes(r_off), bytes(r_on), "{a} storage at {threads} thread(s)");
        }
        assert_eq!(
            files_off.keys().collect::<Vec<_>>(),
            files_on.keys().collect::<Vec<_>>(),
            "observed run created/removed files ({threads} thread(s))"
        );
        for (path, bytes) in files_off {
            assert!(
                files_on[path] == *bytes,
                "{path} differs between observed and unobserved run ({threads} thread(s))"
            );
        }
    }
}

#[test]
fn phases_tile_every_op_and_match_reported_sim_times() {
    let observer = Observer::new();
    let dir = TempDir::new("it-obs").unwrap();
    let c = cfg(2, LatencyProfile::by_name("m1").unwrap(), observer.clone());
    let env = ManagementEnv::builder(dir.path(), c.profile)
        .threads(c.threads)
        .observer(observer.clone())
        .open()
        .unwrap();
    let r = run_scenario_in_env(&c, &env).unwrap();

    let rows = observer.breakdown();
    for a in APPROACHES {
        for (uc, label) in r.use_cases.iter().enumerate() {
            let cell = &r.row(a)[uc];
            for (op, expect) in [("save", cell.tts_sim), ("recover", cell.ttr_sim)] {
                let ctx = format!("{a}/{label}");
                let row = rows
                    .iter()
                    .find(|row| row.ctx == ctx && row.op == op)
                    .unwrap_or_else(|| panic!("no breakdown row for {ctx}/{op}"));
                assert!(expect.as_nanos() > 0, "{ctx}/{op} measured zero sim on m1");
                let phase_sum: u64 = row.phases.iter().map(|p| p.sim_ns).sum();
                assert_eq!(
                    phase_sum + row.other_sim_ns,
                    row.total_sim_ns,
                    "{ctx}/{op}: phases + other must equal the total by construction"
                );
                assert_eq!(row.other_sim_ns, 0, "{ctx}/{op} has unattributed sim time");
                assert_eq!(
                    row.total_sim_ns,
                    expect.as_nanos() as u64,
                    "{ctx}/{op}: breakdown total != measured sim time"
                );
            }
        }
    }
}

#[test]
fn query_phases_tile_scans_and_probes() {
    use mmm::core::approach::{ModelSetSaver, UpdateSaver};
    use mmm::core::model_set::{Derivation, ModelSet};
    use mmm::core::{branch, query, tags};
    use mmm::dnn::TrainConfig;

    let observer = Observer::new();
    let dir = TempDir::new("it-obs-query").unwrap();
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::by_name("m1").unwrap())
        .observer(observer.clone())
        .open()
        .unwrap();
    let arch = Architectures::ffnn(4);
    let models = (0..3).map(|i| arch.build(i).export_param_dict()).collect();
    let mut set = ModelSet::new(arch, models);
    let mut saver = UpdateSaver::new();
    let mut ids = vec![saver.save_initial(&env, &set).unwrap()];
    for _ in 0..3 {
        set.models[0].layers[0].data[0] += 1.0;
        let deriv = Derivation {
            base: ids.last().unwrap().clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        ids.push(saver.save_set(&env, &set, Some(&deriv)).unwrap());
    }
    tags::tag_set(&env, &ids[3], "prod").unwrap();
    branch::fork(&env, &ids[2], 0, "trial").unwrap();

    // A scan, a probe whose candidate needs a lineage walk, a probe
    // with nothing behind it, and one that reads hash tables in both
    // the join (the reference) and the evaluation (the candidates).
    let similar = format!("branch:trial and similar-to({}, 0.5)", ids[0]);
    for (ctx, expr) in [
        ("scan", "depth >= 1"),
        ("probe", "tag:prod"),
        ("empty", "tag:none"),
        ("similar", &similar),
    ] {
        observer.set_context(ctx);
        let (out, m) = env.measure(|| query::run(&env, expr).unwrap());
        assert_eq!(out.records.is_empty(), ctx == "empty", "{expr}");
        let rows = observer.breakdown();
        let row = rows
            .iter()
            .find(|row| row.ctx == ctx && row.op == "query")
            .unwrap_or_else(|| panic!("no query row for {expr}"));
        let names: Vec<&str> = row.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["plan", "catalog", "join", "eval"], "{expr}");
        assert!(m.sim.as_nanos() > 0, "{expr} measured zero sim on m1");
        assert_eq!(row.other_sim_ns, 0, "{expr} has unattributed sim time");
        assert_eq!(
            row.total_sim_ns,
            m.sim.as_nanos() as u64,
            "{expr}: total != measured sim"
        );
    }
}

#[test]
fn span_traces_are_deterministic_across_runs_and_lanes() {
    // (seq, depth, ctx, name, op index, sim_ns) — everything except
    // wall-clock time and physical lane assignment.
    type Shape = Vec<(usize, usize, String, String, Option<u64>, u64)>;
    let run = || -> Shape {
        let observer = Observer::new();
        let dir = TempDir::new("it-obs").unwrap();
        let c = cfg(4, LatencyProfile::by_name("m1").unwrap(), observer.clone());
        let env = ManagementEnv::builder(dir.path(), c.profile)
            .threads(c.threads)
            .observer(observer.clone())
            .open()
            .unwrap();
        run_scenario_in_env(&c, &env).unwrap();
        observer
            .trace_jsonl()
            .lines()
            .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
            .filter(|v| v.get("sim_ns").is_some()) // span records, not events
            .map(|v| {
                (
                    v["seq"].as_u64().unwrap() as usize,
                    v["depth"].as_u64().unwrap() as usize,
                    v["ctx"].as_str().unwrap().to_string(),
                    v["name"].as_str().unwrap().to_string(),
                    v["op"].as_u64(),
                    v["sim_ns"].as_u64().unwrap(),
                )
            })
            .collect()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len(), "span counts differ between identical runs");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "trace diverged between identical runs");
    }
}

/// Ordered (seq, depth, ctx, span name, op index, request-id tag,
/// sim_ns) tuples of a fixed single-client fleet workload: save and
/// recover for two tenants through the frontend. Request ids are
/// minted at admission, so a single-client sequence is deterministic.
/// One span as (seq, depth, ctx, name, op-index, tag, sim_ns) — the shape pinned bit-identical.
type SpanShape = (u64, u64, String, String, Option<u64>, String, u64);

fn fleet_trace_shape(threads: usize) -> Vec<SpanShape> {
    use mmm::core::approach::ApproachSpec;
    use mmm::core::fleet::FleetFrontend;

    let observer = Observer::new();
    let dir = TempDir::new("it-obs-fleet").unwrap();
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::by_name("m1").unwrap())
        .threads(threads)
        .observer(observer.clone())
        .open()
        .unwrap();
    let frontend = FleetFrontend::new(&env);
    let set = mmm::workload::Fleet::initial(mmm::workload::FleetConfig {
        n_models: 2,
        seed: 7,
        arch: Architectures::ffnn(4),
    })
    .to_model_set();
    let mut ids = Vec::new();
    for tenant in ["acme", "globex"] {
        let mut saver = ApproachSpec::parse("baseline").unwrap().build();
        ids.push(frontend.save_initial(tenant, saver.as_mut(), &set, None).unwrap());
    }
    for i in 0..4 {
        let tenant = ["acme", "globex"][i % 2];
        let saver = ApproachSpec::parse("baseline").unwrap().build();
        frontend.recover(tenant, saver.as_ref(), &ids[i % 2], None).unwrap();
    }
    drop(frontend);
    observer
        .trace_jsonl()
        .lines()
        .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .filter(|v| v.get("sim_ns").is_some())
        .map(|v| {
            (
                v["seq"].as_u64().unwrap(),
                v["depth"].as_u64().unwrap(),
                v["ctx"].as_str().unwrap().to_string(),
                v["name"].as_str().unwrap().to_string(),
                v.get("op").and_then(serde_json::Value::as_u64),
                v.get("tag").and_then(serde_json::Value::as_str).unwrap_or("").to_string(),
                v["sim_ns"].as_u64().unwrap(),
            )
        })
        .collect()
}

#[test]
fn fleet_request_traces_are_bit_identical_across_runs_and_thread_counts() {
    let t1 = fleet_trace_shape(1);
    let t1_again = fleet_trace_shape(1);
    let t4 = fleet_trace_shape(4);
    assert!(!t1.is_empty());
    assert_eq!(t1, t1_again, "fixed-seed fleet trace diverged between runs");
    assert_eq!(t1, t4, "fleet trace ordering depends on worker thread count");
    // The workload's request ids appear as root-span tags in admission
    // order: each tenant's sequence counts up independently.
    let tags: Vec<&str> =
        t1.iter().filter(|r| !r.5.is_empty() && r.5.starts_with("rq-")).map(|r| r.5.as_str()).collect();
    assert!(tags.contains(&"rq-acme-1"), "{tags:?}");
    assert!(tags.contains(&"rq-globex-1"), "{tags:?}");
    assert!(tags.contains(&"rq-acme-3"), "{tags:?}");
}

#[test]
fn chaos_observed_tiles_requests_and_attributes_commit_batches() {
    use mmm::workload::chaos::{run_chaos_observed, ChaosConfig};

    let observer = Observer::new();
    let dir = TempDir::new("it-obs-chaos").unwrap();
    let config = ChaosConfig {
        threads: 2,
        rounds: 3,
        commit_window: std::time::Duration::from_millis(2),
        ..ChaosConfig::default()
    };
    let report = run_chaos_observed(dir.path(), &config, &observer).unwrap();
    assert!(report.passed(), "chaos violations: {:?}", report.violations);

    // Per-request phase spans tile each request's end-to-end simulated
    // time with exactly-zero residual.
    let rows = observer.breakdown();
    let mut request_rows = 0;
    for row in &rows {
        if !row.ctx.starts_with("chaos/") || (row.op != "save" && row.op != "recover") {
            continue;
        }
        request_rows += 1;
        let phase_sum: u64 = row.phases.iter().map(|p| p.sim_ns).sum();
        assert_eq!(phase_sum, row.total_sim_ns, "{}/{} phases must tile", row.ctx, row.op);
        assert_eq!(row.other_sim_ns, 0, "{}/{} has unattributed sim time", row.ctx, row.op);
    }
    assert!(request_rows > 0, "chaos run produced no request breakdown rows");

    // Every group-commit batch span lists the coalesced request ids.
    let spans = mmm::obs::parse_trace_jsonl(&observer.trace_jsonl()).unwrap();
    let mut tagged_commits = 0;
    for s in spans.iter().filter(|s| s.name == "commit") {
        if let Some(tag) = &s.tag {
            tagged_commits += 1;
            for rid in tag.split(',') {
                assert!(rid.starts_with("rq-"), "commit span carries non-request tag {tag:?}");
            }
        }
    }
    assert!(tagged_commits > 0, "no commit spans carried request-id tags");

    // Per-tenant SLO accounting: every request classified exactly once,
    // with stale serves netted against their rescued failures.
    let slos = mmm::obs::tenant_slos(observer.metrics().unwrap(), 0.999);
    assert!(!slos.is_empty(), "chaos recorded no tenant SLO rows");
    let mut requests = 0;
    for s in &slos {
        assert!(s.requests > 0, "{} has zero requests", s.tenant);
        assert_eq!(
            s.ok + s.shed + s.deadline_exceeded + s.unavailable + s.failed,
            s.requests + s.stale_serves,
            "{}: outcomes must classify each request exactly once (stale adds ok on top)",
            s.tenant
        );
        requests += s.requests;
    }
    assert_eq!(requests, report.requests, "SLO rows must cover every frontend request");
}

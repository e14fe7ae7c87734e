//! On-disk and accounting golden: the "bit-identical across a refactor"
//! net. One fixed history (U1 + 3 derived levels of a small FFNN fleet)
//! is archived with every approach on the plain backend (default chunk
//! and a 256-byte stream chunk) and on the content-addressed backend,
//! and every observable a refactor must not move is pinned in
//! `tests/golden/on_disk_format.txt`:
//!
//! * the xxhash64 of every file under `blobs/` (on CAS that is every
//!   chunk and manifest, so the layer-edge chunk cuts are pinned too),
//! * the xxhash64 of every set, model and commit document,
//! * the `StatsSnapshot` and simulated time (`LatencyProfile::m1`) of
//!   each save, whole-set recover and selective recover.
//!
//! Every parameter, dataset value and perturbation is exact binary
//! arithmetic on small integers — no libm, no training result is hashed
//! — so the golden does not depend on the machine.
//!
//! Regenerate (only for an intended format or accounting change) with
//! `MMM_UPDATE_GOLDEN=1 cargo test --test on_disk_format`.

use std::fmt::Write as _;
use std::path::Path;

use mmm::core::approach::{ApproachSpec, SETS_COLLECTION};
use mmm::core::commit::COMMITS_COLLECTION;
use mmm::core::env::{ManagementEnv, Measurement};
use mmm::core::model_set::{Derivation, ModelSet, ModelSetId, ModelUpdate, UpdateKind};
use mmm::data::dataset::{Dataset, Targets};
use mmm::dnn::{Architectures, ParamDict, TrainConfig};
use mmm::store::{LatencyProfile, StorageBackend};
use mmm::tensor::Tensor;
use mmm::util::{xxhash64, TempDir};

const N_MODELS: usize = 4;
const LEVELS: usize = 4;
const SELECT: [usize; 2] = [1, 2];
const GOLDEN_PATH: &str = "tests/golden/on_disk_format.txt";

/// (label, backend, stream chunk override).
const CONFIGS: [(&str, StorageBackend, Option<usize>); 3] = [
    ("plain", StorageBackend::Plain, None),
    ("plain-chunk256", StorageBackend::Plain, Some(256)),
    ("cas", StorageBackend::Cas, None),
];

/// Approach specs per config: the paper's four everywhere, plus the
/// snapshotting Update variant once (it exercises the depth-tagged full
/// snapshot in the middle of a chain).
fn specs(config: &str) -> Vec<&'static str> {
    let mut specs = vec!["mmlib-base", "baseline", "update", "provenance"];
    if config == "plain" {
        specs.push("update:snapshot-every=2");
    }
    specs
}

/// Level `k` of the history: exact dyadic parameters; each derived level
/// fully rewrites model `k` and shifts layer 1 of model `k + 2`.
fn history() -> Vec<ModelSet> {
    let arch = Architectures::ffnn(6);
    let names = arch.parametric_layer_names();
    let sizes = arch.parametric_layer_sizes();
    let per_model: usize = sizes.iter().sum();
    let models: Vec<ParamDict> = (0..N_MODELS)
        .map(|i| {
            let flat: Vec<f32> = (0..per_model)
                .map(|j| ((i * 7919 + j * 104_729 + 12_345) % 4001) as f32 / 4096.0 - 0.5)
                .collect();
            ParamDict::from_flat(&flat, &names, &sizes)
        })
        .collect();
    let mut levels = vec![ModelSet::new(arch, models)];
    for k in 1..LEVELS {
        let mut set = levels[k - 1].clone();
        let (full, partial) = updated_models(k);
        for layer in &mut set.models[full].layers {
            layer.data.iter_mut().for_each(|v| *v += 0.25);
        }
        set.models[partial].layers[1]
            .data
            .iter_mut()
            .for_each(|v| *v -= 0.125);
        levels.push(set);
    }
    levels
}

fn updated_models(level: usize) -> (usize, usize) {
    (level % N_MODELS, (level + 2) % N_MODELS)
}

/// The derivation record of level `k`: one full and one partial update,
/// both trained on a hand-built exact dataset registered with the env.
fn derivation(env: &ManagementEnv, base: &ModelSetId, level: usize) -> Derivation {
    let samples = 8usize;
    let inputs: Vec<f32> = (0..samples * 4)
        .map(|j| ((j + level) % 17) as f32 / 16.0)
        .collect();
    let targets: Vec<f32> = (0..samples)
        .map(|j| ((j * 3 + level) % 11) as f32 / 8.0)
        .collect();
    let dataset = Dataset::new(
        Tensor::from_vec(vec![samples, 4], inputs),
        Targets::Regression(Tensor::from_vec(vec![samples, 1], targets)),
    );
    let dref = env.registry().put(&dataset).unwrap();
    let (full, partial) = updated_models(level);
    let update = |model_idx, kind| ModelUpdate {
        model_idx,
        kind,
        dataset: dref.clone(),
        seed: 1000 + level as u64,
    };
    Derivation {
        base: base.clone(),
        train: TrainConfig {
            epochs: 1,
            ..TrainConfig::regression_default(0)
        },
        updates: vec![
            update(full, UpdateKind::Full),
            update(partial, UpdateKind::Partial { layers: vec![1] }),
        ],
    }
}

fn op_line(out: &mut String, case: &str, op: &str, level: usize, m: &Measurement) {
    let s = &m.stats;
    writeln!(
        out,
        "{case} {op}[{level}] doc_inserts={} doc_queries={} doc_deletes={} blob_puts={} \
         blob_gets={} blob_deletes={} bytes_written={} bytes_read={} bytes_copied={} sim_ns={}",
        s.doc_inserts,
        s.doc_queries,
        s.doc_deletes,
        s.blob_puts,
        s.blob_gets,
        s.blob_deletes,
        s.bytes_written,
        s.bytes_read,
        s.bytes_copied,
        m.sim.as_nanos()
    )
    .unwrap();
}

/// Every regular file under `dir`, as sorted `(relative path, bytes)`.
fn files_under(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// Archive the history with one approach on one config and describe
/// everything it wrote and every op it charged.
fn run_case(
    out: &mut String,
    config: (&str, StorageBackend, Option<usize>),
    spec: &str,
    levels: &[ModelSet],
) {
    let (label, backend, chunk) = config;
    let case = format!("{label}/{spec}");
    let dir = TempDir::new("it-golden").unwrap();
    let mut builder = ManagementEnv::builder(dir.path(), LatencyProfile::m1()).backend(backend);
    if let Some(bytes) = chunk {
        builder = builder.stream_chunk_bytes(bytes);
    }
    let env = builder.open().unwrap();
    let mut saver = ApproachSpec::parse(spec).unwrap().build();

    let mut ids: Vec<ModelSetId> = Vec::new();
    for (k, set) in levels.iter().enumerate() {
        let deriv = ids.last().map(|base| derivation(&env, base, k));
        let (id, m) = env.measure(|| saver.save_set(&env, set, deriv.as_ref()).unwrap());
        op_line(out, &case, "save", k, &m);
        ids.push(id);
    }
    for (k, id) in ids.iter().enumerate() {
        let (set, m) = env.measure(|| saver.recover_set(&env, id).unwrap());
        op_line(out, &case, "recover", k, &m);
        let (picked, m) = env.measure(|| saver.recover_models(&env, id, &SELECT).unwrap());
        op_line(out, &case, "select", k, &m);
        // Provenance replays training on synthetic data, so only the
        // storing approaches are compared against the history itself.
        if !spec.starts_with("provenance") {
            assert_eq!(&set, &levels[k], "{case} level {k}");
        }
        for (p, &i) in SELECT.iter().enumerate() {
            assert_eq!(picked[p], set.models()[i], "{case} level {k} model {i}");
        }
    }

    for (rel, bytes) in files_under(&dir.path().join("blobs")) {
        writeln!(
            out,
            "{case} blob {rel} {:016x} {}",
            xxhash64(&bytes, 0),
            bytes.len()
        )
        .unwrap();
    }
    for collection in [SETS_COLLECTION, "models", COMMITS_COLLECTION] {
        for (doc_id, doc) in env.docs().all(collection).unwrap() {
            let text = doc.to_string();
            writeln!(
                out,
                "{case} doc {collection}/{doc_id} {:016x} {}",
                xxhash64(text.as_bytes(), 0),
                text.len()
            )
            .unwrap();
        }
    }
}

#[test]
fn stored_bytes_store_ops_and_simulated_times_match_the_golden() {
    let levels = history();
    let mut actual = String::new();
    for config in CONFIGS {
        for spec in specs(config.0) {
            run_case(&mut actual, config, spec, &levels);
        }
    }

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("MMM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    let mismatches: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("golden: {g}\nactual: {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && golden.lines().count() == actual.lines().count(),
        "{} of {} golden lines differ ({} actual lines); first differences:\n{}",
        mismatches.len(),
        golden.lines().count(),
        actual.lines().count(),
        mismatches
            .iter()
            .take(12)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}

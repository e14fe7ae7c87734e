//! The seed is the only input: a scaled-down copy of every workload, run
//! twice with one seed, must repeat every exact metric to the last
//! digit, and must pass its oracle with another seed.

use std::path::PathBuf;

use mmm_perf::{Budget, Opts, Outcome, Scale, Workload};

/// Counts and byte ratios that depend on the inputs alone.
const EXACT: [&str; 12] = [
    "approach.save.store_ops",
    "approach.save.bytes_written_per_user_byte",
    "approach.recover.store_ops",
    "approach.recover.bytes_read_per_byte_returned",
    "approach.recover.bytes_copied_per_byte_read",
    "approach.select.bytes_read_per_byte_returned",
    "dnn.models_retrained_per_recover",
    "query.scanned_per_result.probe",
    "query.scanned_per_result.pred",
    "query.store_ops.scan",
    "cas.chunk_puts_per_save",
    "cas.dedup_ratio",
];

fn run(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let data_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out/test-data")
        .join(format!("{}-{seed}-{trace}-{tag}", workload.name()));
    let opts = Opts {
        workload,
        seed,
        budget: Budget::Rounds(2),
        trace,
        scale: Scale::Tiny,
        data_dir,
    };
    let outcome = mmm_perf::run(&opts).expect("the workload runs");
    assert!(
        outcome.correct(),
        "{}: {} of {} operations failed",
        workload.name(),
        outcome.failed,
        outcome.attempted
    );
    outcome
}

fn exact_metrics_repeat(workload: Workload) {
    let (a, b) = (run(workload, 7, true, "a"), run(workload, 7, true, "b"));
    assert_eq!(
        a.attempted, b.attempted,
        "fixed work: the same number of operations"
    );
    for name in EXACT {
        assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        assert!(a.metric(name).is_some(), "{name} is reported");
    }
    assert!(
        a.spans.is_some_and(|rec| !rec.spans.is_empty()),
        "a traced run records spans"
    );
    if workload != Workload::LakeService {
        // One client: the bytes on disk repeat too. (Two tenants batch
        // their commit records differently from run to run.)
        let stored = |tag| run(workload, 7, false, tag).metric("stored_bytes_per_user_byte");
        assert_eq!(stored("c"), stored("d"));
    }
    run(workload, 8, false, "other-seed");
}

#[test]
fn concat_archive_repeats() {
    exact_metrics_repeat(Workload::ConcatArchive);
}

#[test]
fn delta_chain_repeats() {
    exact_metrics_repeat(Workload::DeltaChain);
}

#[test]
fn provenance_replay_repeats() {
    exact_metrics_repeat(Workload::ProvenanceReplay);
}

#[test]
fn lake_service_repeats() {
    exact_metrics_repeat(Workload::LakeService);
}

#[test]
fn layers_a_workload_never_enters_report_zero() {
    let out = run(Workload::ConcatArchive, 7, true, "zero");
    for name in [
        "cas.put_mb_per_s",
        "hash.f32_mb_per_s",
        "dnn.train_ms_per_model",
        "fleet.shed",
    ] {
        assert_eq!(out.metric(name), Some(0.0), "{name}");
    }
    assert_eq!(
        out.metric("approach.recover.bytes_copied_per_byte_read"),
        Some(0.0),
        "mapped reads copy nothing"
    );
    assert!(out.metric("param_codec.decode_concat_mb_per_s").unwrap() > 0.0);
}

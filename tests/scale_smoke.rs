//! Scale smoke: the million-model machinery (streaming encode, mmap
//! recovery) exercised end-to-end at n = 50k — big enough that an
//! O(set) staging buffer would be caught, small enough for CI.
//!
//! The full sweep lives in `repro scale` (BENCH_scale.json); this test
//! pins the two properties the sweep relies on:
//!
//! 1. a streamed save's peak staging memory is O(chunk), not O(set);
//! 2. every recovery path — copying read, zero-copy mapping, streaming
//!    visit decode, whole-set recovery at 1 and 4 workers — is
//!    bit-identical to the byte stream the generator produced.

use mmm::core::approach::{BaselineSaver, ModelSetSaver};
use mmm::core::env::ManagementEnv;
use mmm::core::param_codec;
use mmm::dnn::Architectures;
use mmm::store::LatencyProfile;
use mmm::util::{mem, xxhash64, Hasher64, TempDir};

const N: usize = 50_000;
const CHUNK: usize = 256 * 1024;

#[test]
fn streamed_save_is_o_chunk_and_every_recovery_path_is_bit_identical() {
    let dir = TempDir::new("mmm-scale-smoke").unwrap();
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
        .stream_chunk_bytes(CHUNK)
        .open()
        .unwrap();
    let arch = Architectures::ffnn(2);
    let layer_sizes = arch.parametric_layer_sizes();
    let model_bytes = 4 * param_codec::per_model_params(&layer_sizes).unwrap();
    let blob_bytes = (model_bytes * N) as u64;
    assert!(
        blob_bytes >= 10 * CHUNK as u64,
        "the set must dwarf the chunk for the staging bound to mean anything"
    );

    // Save from a generator, hashing the byte stream as it is produced.
    // The concat blob is exactly this stream, so one hash verifies every
    // recovery path below.
    let mut saver = BaselineSaver::new();
    let mut save_hasher = Hasher64::new(0);
    mem::reset_peak();
    let id = saver
        .save_streamed(&env, &arch, N, |i, buf| {
            let before = buf.len();
            let dict = arch.build(7_000 + i as u64).export_param_dict();
            param_codec::append_model_record(&dict, buf);
            save_hasher.update(&buf[before..]);
            Ok(())
        })
        .unwrap();
    let staging_peak = mem::peak_bytes();
    let save_hash = save_hasher.finish();
    assert!(
        staging_peak <= 4 * CHUNK as u64,
        "staging peak {staging_peak} must stay O(chunk = {CHUNK}), not O(set = {blob_bytes})"
    );

    let key = format!("baseline/{}/params.bin", id.key);

    // Copying read path: full blob, every byte copied.
    let s0 = env.stats();
    let copied = env.blobs().get(&key).unwrap();
    let copy_delta = env.stats() - s0;
    assert_eq!(copied.len() as u64, blob_bytes);
    assert_eq!(xxhash64(&copied, 0), save_hash);
    assert_eq!(copy_delta.bytes_copied, blob_bytes, "a plain get copies the whole blob");

    // Zero-copy mapping: same bytes, nothing copied.
    let s1 = env.stats();
    let mapped = env.blobs().get_mapped(&key).unwrap();
    let map_delta = env.stats() - s1;
    assert_eq!(xxhash64(&mapped, 0), save_hash);
    if cfg!(unix) {
        assert!(mapped.is_mapped(), "a plain-backend blob of this size must map");
        assert_eq!(map_delta.bytes_copied, 0, "a mapped get copies nothing");
    }
    assert_eq!(map_delta.bytes_read, copy_delta.bytes_read, "charging parity with get");

    // Streaming visit decode: one model in memory at a time, each
    // re-encoded record hashed back into the stream.
    let mut visit_hasher = Hasher64::new(0);
    let mut record = Vec::with_capacity(model_bytes);
    let mut visited = 0usize;
    saver
        .recover_visit(&env, &id, |i, dict| {
            assert_eq!(i, visited);
            visited += 1;
            record.clear();
            param_codec::append_model_record(&dict, &mut record);
            visit_hasher.update(&record);
            Ok(())
        })
        .unwrap();
    assert_eq!(visited, N);
    assert_eq!(visit_hasher.finish(), save_hash, "visit decode must be bit-identical");

    // Whole-set recovery (record-parallel decode of the same mapping)
    // at 1 and 4 workers, re-encoded and compared.
    drop(mapped);
    for threads in [1usize, 4] {
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .threads(threads)
            .open()
            .unwrap();
        let set = saver.recover_set(&env, &id).unwrap();
        assert_eq!(set.len(), N);
        let bytes = param_codec::encode_concat(set.models()).unwrap();
        assert_eq!(
            xxhash64(&bytes, 0),
            save_hash,
            "block decode at {threads} threads must be bit-identical"
        );
    }
}

/// A blob whose length no longer matches its set document (torn write,
/// truncated copy) must surface as `Corrupt` through the mapped decode
/// path — not as a short read or a panic.
#[test]
fn truncated_params_blob_recovers_as_corrupt() {
    let dir = TempDir::new("mmm-scale-smoke-corrupt").unwrap();
    let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
        .stream_chunk_bytes(1024)
        .open()
        .unwrap();
    let arch = Architectures::ffnn(2);
    let mut saver = BaselineSaver::new();
    let id = saver
        .save_streamed(&env, &arch, 200, |i, buf| {
            param_codec::append_model_record(&arch.build(i as u64).export_param_dict(), buf);
            Ok(())
        })
        .unwrap();

    // Truncate the blob behind the store's back.
    let key = format!("baseline/{}/params.bin", id.key);
    let full = env.blobs().get(&key).unwrap();
    env.blobs().put(&key, &full[..full.len() / 2]).unwrap();

    let err = saver.recover_visit(&env, &id, |_, _| Ok(())).unwrap_err();
    assert!(
        matches!(err, mmm::util::Error::Corrupt(_)),
        "truncated blob must decode as Corrupt, got {err:?}"
    );
    let err = saver.recover_set(&env, &id).unwrap_err();
    assert!(matches!(err, mmm::util::Error::Corrupt(_)));
}

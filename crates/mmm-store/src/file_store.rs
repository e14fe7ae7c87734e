//! Key→blob file store with atomic writes, latency charging, and
//! byte accounting.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mmm_obs::{EventLevel, Observer};
use mmm_util::{Error, Result, VirtualClock};

use crate::fault::{flip_bits, FaultEffect, FaultInjector, OpClass};
use crate::mmap::BlobBytes;
use crate::profile::LatencyProfile;
use crate::stats::StoreStats;

/// Prefix of in-flight temp files. Each write gets a process-unique
/// name so concurrent puts never collide, and a crash can only leak a
/// file with this prefix — swept away on the next [`FileStore::open`].
const TMP_PREFIX: &str = ".mmm-tmp.";

/// Process-wide sequence for temp-file uniqueness.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A blob store backed by a directory tree. Keys may contain `/` to form
/// sub-namespaces (e.g. `"set-3/params.bin"`).
#[derive(Debug, Clone)]
pub struct FileStore {
    root: PathBuf,
    clock: VirtualClock,
    profile: LatencyProfile,
    stats: StoreStats,
    faults: FaultInjector,
    /// Observability sink; disabled (a no-op) unless installed via
    /// [`FileStore::set_observer`]. Never affects stored bytes, stats,
    /// or clock charges — it only mirrors them into metrics.
    obs: Observer,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(
        dir: impl AsRef<Path>,
        profile: LatencyProfile,
        clock: VirtualClock,
        stats: StoreStats,
    ) -> Result<Self> {
        Self::open_with_faults(dir, profile, clock, stats, FaultInjector::new())
    }

    /// Open a store with a fault-injection handle (tests of the
    /// crash-recovery protocol; a disarmed injector is free).
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        profile: LatencyProfile,
        clock: VirtualClock,
        stats: StoreStats,
        faults: FaultInjector,
    ) -> Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        sweep_stale_temps(&root)?;
        Ok(FileStore { root, clock, profile, stats, faults, obs: Observer::disabled() })
    }

    /// Install an observer that mirrors op latencies, payload sizes, and
    /// fault activations into metrics. Purely additive: the store's
    /// behaviour, accounting, and stored bytes are unchanged.
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Run the fault gate for one operation, counting any activation
    /// (damage effect or injected error) in the observer's metrics.
    fn fault_gate(&self, class: OpClass, op: &'static str, bytes: usize) -> Result<FaultEffect> {
        match self.faults.on_op(class, bytes) {
            Ok(FaultEffect::Clean) => Ok(FaultEffect::Clean),
            Ok(effect) => {
                self.obs.inc(&format!("mmm_fault_activations_total{{op=\"{op}\"}}"), 1);
                self.obs
                    .event(EventLevel::Warn, || format!("fault injected during {op}: {effect:?}"));
                Ok(effect)
            }
            Err(e) => {
                self.obs.inc(&format!("mmm_fault_activations_total{{op=\"{op}\"}}"), 1);
                self.obs.event(EventLevel::Warn, || format!("fault injected during {op}: {e}"));
                Err(e)
            }
        }
    }

    fn path_for(&self, key: &str) -> Result<PathBuf> {
        if key.is_empty() || key.contains("..") || key.starts_with('/') {
            return Err(Error::invalid(format!("illegal blob key {key:?}")));
        }
        Ok(self.root.join(key))
    }

    /// Write a blob. Overwrites an existing blob under the same key.
    /// Charged as one `blob_put` round-trip plus transfer cost. This is
    /// [`FileStore::put_writer`] fed one chunk: the same write-then-rename
    /// protocol, fault semantics, and accounting.
    pub fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let mut writer = self.put_writer(key)?;
        writer.write(bytes)?;
        writer.finish()
    }

    /// Open the file behind `key` for reading; a missing file is
    /// `NotFound`.
    fn open_blob(&self, key: &str) -> Result<fs::File> {
        fs::File::open(self.path_for(key)?).map_err(|e| not_found_or_io(key, e))
    }

    /// Charge one `blob_get` round-trip plus transfer of `len` bytes.
    fn charge_get(&self, op: &'static str, len: u64) {
        let cost = self.profile.blob_get.cost(len);
        self.stats.record_blob_get(len);
        self.clock.charge(cost);
        self.obs.store_op(op, len, cost);
    }

    /// Finish an owned read: apply read-side damage (short read /
    /// flipped bits in transit) and count the bytes as copied.
    fn owned_read(&self, effect: FaultEffect, mut bytes: Vec<u8>) -> Vec<u8> {
        match effect {
            FaultEffect::Clean => {}
            FaultEffect::Torn { keep } => bytes.truncate(keep),
            FaultEffect::Flip { seed, flips } => flip_bits(&mut bytes, seed, flips),
        }
        self.stats.record_bytes_copied(bytes.len() as u64);
        bytes
    }

    /// The one whole-blob read behind [`FileStore::get`] and
    /// [`FileStore::get_mapped`]: a zero-copy mapping when `map` is set
    /// and possible, an owned copy otherwise — when mapping is
    /// impossible (non-unix, empty blob, kernel refusal) or when the
    /// fault gate demands read-side damage, which must materialize the
    /// bytes to apply a truncation or bit flip. Either way one charge.
    fn read_whole(&self, key: &str, map: bool) -> Result<BlobBytes> {
        use std::io::Read;
        let effect = self.fault_gate(OpClass::BlobGet, "blob_get", 0)?;
        let mut file = self.open_blob(key)?;
        let mapped = if map && effect == FaultEffect::Clean {
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| Error::invalid(format!("blob {key:?} exceeds address space")))?;
            BlobBytes::map_file(&file, len)
        } else {
            None
        };
        let view = match mapped {
            Some(view) => view,
            None => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                BlobBytes::from_vec(self.owned_read(effect, bytes))
            }
        };
        self.charge_get("blob_get", view.len() as u64);
        Ok(view)
    }

    /// Read a blob. Charged as one `blob_get` round-trip plus transfer.
    pub fn get(&self, key: &str) -> Result<Vec<u8>> {
        Ok(self.read_whole(key, false)?.into_vec())
    }

    /// Read a blob as a zero-copy view: the returned [`BlobBytes`] is a
    /// read-only memory mapping of the stored file where the platform
    /// allows it, so decoders consume parameter bytes straight from the
    /// page cache with no intermediate heap copy.
    ///
    /// Charging is identical to [`FileStore::get`] — one `blob_get`
    /// round-trip plus per-byte transfer cost for the full blob — so the
    /// mapped and copying recovery paths report the same simulated
    /// timings and op counts. Only `bytes_copied` differs: a mapped read
    /// adds nothing, an owned fallback adds the blob's length.
    pub fn get_mapped(&self, key: &str) -> Result<BlobBytes> {
        self.read_whole(key, true)
    }

    /// Open a streaming writer for a blob: chunks are appended with
    /// [`BlobWriter::write`] and the blob becomes visible atomically at
    /// [`BlobWriter::finish`], charged as one `blob_put` of the total
    /// bytes. Write-then-rename with a per-write unique temp name: a
    /// crash never leaves a torn blob, concurrent puts to keys sharing a
    /// stem (`a.bin` vs `a.txt`) never collide, and a leaked temp is
    /// recognizable by prefix and swept on the next open. Dropping the
    /// writer without finishing aborts the write and removes the temp
    /// file.
    pub fn put_writer(&self, key: &str) -> Result<BlobWriter<'_>> {
        let path = self.path_for(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // The fault verdict is drawn up front, before any byte is
        // written (deterministic fault plans count ops, not bytes);
        // damage effects buffer the payload because torn/flip rewrites
        // depend on the total length.
        let effect = self.fault_gate(OpClass::BlobPut, "blob_put", 0)?;
        let tmp = tmp_path(&path)?;
        let sink = if effect == FaultEffect::Clean {
            WriterSink::File(fs::File::create(&tmp)?)
        } else {
            WriterSink::Buffer(Vec::new())
        };
        Ok(BlobWriter {
            store: self,
            key: key.to_string(),
            path,
            tmp,
            sink: Some(sink),
            effect,
            written: 0,
        })
    }

    /// Read `len` bytes of a blob starting at `offset` (a ranged read —
    /// one `blob_get` round-trip charged with only the transferred
    /// bytes). Errors if the range exceeds the blob.
    pub fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let effect = self.fault_gate(OpClass::BlobGet, "blob_get_range", len)?;
        let mut file = self.open_blob(key)?;
        let size = file.metadata()?.len();
        let end = offset.checked_add(len as u64).ok_or_else(|| {
            Error::invalid(format!("range {offset}+{len} overflows for blob {key:?}"))
        })?;
        if end > size {
            return Err(Error::invalid(format!(
                "range {offset}+{len} exceeds blob {key:?} of {size} bytes"
            )));
        }
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        let buf = self.owned_read(effect, buf);
        self.charge_get("blob_get_range", buf.len() as u64);
        Ok(buf)
    }

    /// Read a blob without charging latency, recording stats, or running
    /// the fault gate. Maintenance-path primitive used by the
    /// content-addressed layer for index rebuilds and audits, where the
    /// bytes read model local bookkeeping rather than simulated store
    /// round-trips.
    pub(crate) fn read_local(&self, key: &str) -> Result<Vec<u8>> {
        use std::io::Read;
        let mut bytes = Vec::new();
        self.open_blob(key)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    /// Write a blob without charging latency, recording stats, or
    /// running the fault gate — the landing half of a tier migration,
    /// whose round-trip cost is charged once on the paying side. Still
    /// atomic (write-then-rename).
    pub(crate) fn put_local(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let path = self.path_for(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = tmp_path(&path)?;
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Remove a blob without charging latency, recording stats, or
    /// running the fault gate — the cleanup half of a tier migration.
    pub(crate) fn remove_local(&self, key: &str) -> Result<()> {
        fs::remove_file(self.path_for(key)?).map_err(|e| not_found_or_io(key, e))
    }

    /// Whether a blob exists (not charged — local metadata check).
    pub fn exists(&self, key: &str) -> bool {
        self.path_for(key).map(|p| p.exists()).unwrap_or(false)
    }

    /// Size of a stored blob in bytes.
    pub fn size(&self, key: &str) -> Result<u64> {
        let path = self.path_for(key)?;
        Ok(fs::metadata(&path)
            .map_err(|_| Error::not_found(format!("blob {key:?}")))?
            .len())
    }

    /// Delete a blob. Charged as one delete round-trip.
    pub fn delete(&self, key: &str) -> Result<()> {
        if self.fault_gate(OpClass::BlobDelete, "blob_delete", 0)? != FaultEffect::Clean {
            // Deletes have no payload to tear or flip; any non-clean
            // verdict means the operation did not happen.
            return Err(Error::Io(std::io::Error::other(format!(
                "injected fault during delete of blob {key:?}"
            ))));
        }
        self.remove_local(key)?;
        let cost = self.profile.blob_put.cost(0);
        self.stats.record_blob_delete();
        self.clock.charge(cost);
        self.obs.store_op("blob_delete", 0, cost);
        Ok(())
    }

    /// All keys under a prefix (sorted; not charged — local listing used
    /// by maintenance tools, not by the savers).
    pub fn list_keys(&self, prefix: &str) -> Result<Vec<String>> {
        let start = self.path_for(prefix).unwrap_or_else(|_| self.root.clone());
        let mut out = Vec::new();
        if start.is_dir() {
            walk_files(&start, &mut |p, _| {
                // An in-flight or crash-leaked temp is not a blob.
                if let (false, Ok(rel)) = (is_temp(p), p.strip_prefix(&self.root)) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
                Ok(())
            })?;
        } else if start.is_file() {
            out.push(prefix.to_string());
        }
        out.sort();
        Ok(out)
    }

    /// Total bytes of all blobs under the root (ground-truth disk usage).
    pub fn disk_bytes(&self) -> u64 {
        let mut total = 0;
        // Best-effort: a blob deleted mid-walk counts as nothing.
        let _ = walk_files(&self.root, &mut |p, e| {
            // Temps are transient, never part of blob usage.
            if !is_temp(p) {
                total += e.metadata().map_or(0, |m| m.len());
            }
            Ok(())
        });
        total
    }

    /// The store's fault-injection handle.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }
}

/// Where a [`BlobWriter`]'s chunks go before the finishing rename.
#[derive(Debug)]
enum WriterSink {
    /// Clean write: chunks stream straight to the temp file, so peak
    /// memory is one chunk regardless of blob size.
    File(fs::File),
    /// A fault effect is armed: the payload is buffered because torn
    /// truncation and bit-flip positions are functions of the *total*
    /// length. Fault runs are test scenarios; the buffering is confined
    /// to them.
    Buffer(Vec<u8>),
}

/// Streaming handle from [`FileStore::put_writer`]. Write chunks, then
/// [`BlobWriter::finish`]; the blob appears atomically with the same
/// durability, fault, and accounting semantics as a buffered
/// [`FileStore::put`] of the concatenated payload.
#[derive(Debug)]
pub struct BlobWriter<'a> {
    store: &'a FileStore,
    key: String,
    path: PathBuf,
    tmp: PathBuf,
    /// `None` only after finish (disarms the Drop cleanup).
    sink: Option<WriterSink>,
    effect: FaultEffect,
    written: u64,
}

impl BlobWriter<'_> {
    /// Append one chunk of the payload.
    pub fn write(&mut self, chunk: &[u8]) -> Result<()> {
        use std::io::Write;
        match self.sink.as_mut().expect("write after finish") {
            WriterSink::File(f) => f.write_all(chunk)?,
            WriterSink::Buffer(buf) => buf.extend_from_slice(chunk),
        }
        self.written += chunk.len() as u64;
        Ok(())
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Complete the write: flush, rename into place, and charge one
    /// `blob_put` for the total payload. On a torn-write fault the temp
    /// keeps only the torn prefix and the rename never happens (the
    /// caller "dies"; the next open sweeps the temp).
    pub fn finish(mut self) -> Result<()> {
        let sink = self.sink.take().expect("finish called once");
        match (self.effect, sink) {
            (FaultEffect::Clean, WriterSink::File(f)) => {
                drop(f); // flush + close before the rename
                fs::rename(&self.tmp, &self.path)?;
            }
            (FaultEffect::Torn { keep }, WriterSink::Buffer(bytes)) => {
                fs::write(&self.tmp, &bytes[..keep.min(bytes.len())])?;
                return Err(Error::Io(std::io::Error::other(format!(
                    "injected torn write to blob {:?}",
                    self.key
                ))));
            }
            (FaultEffect::Flip { seed, flips }, WriterSink::Buffer(mut bytes)) => {
                flip_bits(&mut bytes, seed, flips);
                fs::write(&self.tmp, &bytes)?;
                fs::rename(&self.tmp, &self.path)?;
            }
            // put_writer pairs Clean with File and damage with Buffer.
            (effect, _) => {
                return Err(Error::invalid(format!(
                    "blob writer in impossible state for effect {effect:?}"
                )))
            }
        }
        let cost = self.store.profile.blob_put.cost(self.written);
        self.store.stats.record_blob_put(self.written);
        self.store.clock.charge(cost);
        self.store.obs.store_op("blob_put", self.written, cost);
        Ok(())
    }
}

impl Drop for BlobWriter<'_> {
    fn drop(&mut self) {
        if self.sink.take().is_some() {
            // Aborted mid-stream: the unacknowledged temp is garbage.
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// A missing blob file is `NotFound`; any other I/O failure passes
/// through.
fn not_found_or_io(key: &str, e: std::io::Error) -> Error {
    if e.kind() == std::io::ErrorKind::NotFound {
        Error::not_found(format!("blob {key:?}"))
    } else {
        Error::Io(e)
    }
}

/// Whether `path` names an in-flight write's temp file.
fn is_temp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with(TMP_PREFIX))
}

/// Unique temp path next to the final blob path (same filesystem, so
/// the rename is atomic).
fn tmp_path(path: &Path) -> Result<PathBuf> {
    let parent = path
        .parent()
        .ok_or_else(|| Error::invalid(format!("blob path {path:?} has no parent")))?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| Error::invalid(format!("blob path {path:?} has no file name")))?;
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    Ok(parent.join(format!("{TMP_PREFIX}{}.{seq}.{name}", std::process::id())))
}

/// Remove temp files leaked by writes that crashed before their rename.
/// Their payloads were never acknowledged, so deleting is always safe.
fn sweep_stale_temps(root: &Path) -> Result<()> {
    walk_files(root, &mut |p, _| {
        if is_temp(p) {
            fs::remove_file(p)?;
        }
        Ok(())
    })
}

/// The store's one directory walk: `visit` every file under `dir`,
/// recursing into subdirectories. An entry's type comes from the
/// directory read itself (`DirEntry::file_type`), so the walk costs no
/// `stat` per entry; that type does not follow symlinks, and the store
/// creates none. A directory that vanishes mid-walk (a concurrent
/// delete) holds nothing; any other I/O error ends the walk.
fn walk_files(
    dir: &Path,
    visit: &mut dyn FnMut(&Path, &fs::DirEntry) -> std::io::Result<()>,
) -> Result<()> {
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        entries => entries?,
    };
    for e in entries {
        let e = e?;
        let p = e.path();
        if e.file_type()?.is_dir() {
            walk_files(&p, visit)?;
        } else {
            visit(&p, &e)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::TempDir;

    fn store(profile: LatencyProfile) -> (TempDir, FileStore) {
        let dir = TempDir::new("mmm-fs").unwrap();
        let fs = FileStore::open(dir.path(), profile, VirtualClock::new(), StoreStats::new()).unwrap();
        (dir, fs)
    }

    #[test]
    fn put_get_roundtrip() {
        let (_d, fs) = store(LatencyProfile::zero());
        fs.put("a/b/c.bin", b"hello").unwrap();
        assert_eq!(fs.get("a/b/c.bin").unwrap(), b"hello");
        assert!(fs.exists("a/b/c.bin"));
        assert!(!fs.exists("a/b/d.bin"));
        assert_eq!(fs.size("a/b/c.bin").unwrap(), 5);
    }

    #[test]
    fn missing_blob_is_not_found() {
        let (_d, fs) = store(LatencyProfile::zero());
        assert!(matches!(fs.get("nope"), Err(Error::NotFound(_))));
        assert!(matches!(fs.size("nope"), Err(Error::NotFound(_))));
    }

    #[test]
    fn illegal_keys_are_rejected() {
        let (_d, fs) = store(LatencyProfile::zero());
        assert!(fs.put("", b"x").is_err());
        assert!(fs.put("../escape", b"x").is_err());
        assert!(fs.put("/abs", b"x").is_err());
    }

    #[test]
    fn overwrite_replaces_content() {
        let (_d, fs) = store(LatencyProfile::zero());
        fs.put("k", b"one").unwrap();
        fs.put("k", b"two").unwrap();
        assert_eq!(fs.get("k").unwrap(), b"two");
    }

    #[test]
    fn stats_and_latency_are_charged() {
        let dir = TempDir::new("mmm-fs").unwrap();
        let clock = VirtualClock::new();
        let stats = StoreStats::new();
        let fs = FileStore::open(dir.path(), LatencyProfile::m1(), clock.clone(), stats.clone()).unwrap();
        fs.put("k", &[0u8; 1000]).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.blob_puts, 1);
        assert_eq!(s.bytes_written, 1000);
        assert!(clock.simulated() >= LatencyProfile::m1().blob_put.cost(1000));
        let before_get = clock.simulated();
        let _ = fs.get("k").unwrap();
        assert!(clock.simulated() > before_get);
        assert_eq!(stats.snapshot().bytes_read, 1000);
    }

    #[test]
    fn ranged_reads_return_exact_slices() {
        let (_d, fs) = store(LatencyProfile::zero());
        let data: Vec<u8> = (0..=255).collect();
        fs.put("blob", &data).unwrap();
        assert_eq!(fs.get_range("blob", 0, 4).unwrap(), &data[..4]);
        assert_eq!(fs.get_range("blob", 100, 50).unwrap(), &data[100..150]);
        assert_eq!(fs.get_range("blob", 252, 4).unwrap(), &data[252..]);
        assert_eq!(fs.get_range("blob", 10, 0).unwrap(), Vec::<u8>::new());
        // Out-of-bounds range is rejected.
        assert!(matches!(fs.get_range("blob", 250, 10), Err(Error::Invalid(_))));
        assert!(matches!(fs.get_range("missing", 0, 1), Err(Error::NotFound(_))));
    }

    #[test]
    fn ranged_reads_charge_only_transferred_bytes() {
        let dir = TempDir::new("mmm-fs").unwrap();
        let stats = StoreStats::new();
        let fs = FileStore::open(dir.path(), LatencyProfile::zero(), VirtualClock::new(), stats.clone()).unwrap();
        fs.put("blob", &[0u8; 100_000]).unwrap();
        let before = stats.snapshot();
        let _ = fs.get_range("blob", 5_000, 200).unwrap();
        let delta = stats.snapshot() - before;
        assert_eq!(delta.blob_gets, 1);
        assert_eq!(delta.bytes_read, 200);
    }

    #[test]
    fn delete_removes_blob() {
        let (_d, fs) = store(LatencyProfile::zero());
        fs.put("a/b", b"x").unwrap();
        fs.delete("a/b").unwrap();
        assert!(!fs.exists("a/b"));
        assert!(matches!(fs.delete("a/b"), Err(Error::NotFound(_))));
    }

    #[test]
    fn list_keys_by_prefix() {
        let (_d, fs) = store(LatencyProfile::zero());
        fs.put("set1/params.bin", b"1").unwrap();
        fs.put("set1/hashes.bin", b"2").unwrap();
        fs.put("set2/params.bin", b"3").unwrap();
        assert_eq!(
            fs.list_keys("set1").unwrap(),
            vec!["set1/hashes.bin".to_string(), "set1/params.bin".to_string()]
        );
        assert_eq!(fs.list_keys("").unwrap().len(), 3);
        assert_eq!(
            fs.list_keys("set1/params.bin").unwrap(),
            vec!["set1/params.bin".to_string()]
        );
        assert!(fs.list_keys("nope").unwrap().is_empty());
    }

    #[test]
    fn disk_bytes_sums_all_blobs() {
        let (_d, fs) = store(LatencyProfile::zero());
        fs.put("x", &[1u8; 10]).unwrap();
        fs.put("sub/y", &[2u8; 20]).unwrap();
        assert_eq!(fs.disk_bytes(), 30);
    }

    #[test]
    fn keys_differing_only_in_extension_coexist() {
        // The old temp scheme mapped `a.bin` and `a.txt` to the same
        // `a.tmp-write`; racing writers could rename each other's data.
        let (_d, fs) = store(LatencyProfile::zero());
        std::thread::scope(|s| {
            for ext in ["bin", "txt"] {
                let fs = &fs;
                s.spawn(move || {
                    for i in 0..100u32 {
                        fs.put(&format!("a.{ext}"), &i.to_le_bytes()).unwrap();
                    }
                });
            }
        });
        assert_eq!(fs.get("a.bin").unwrap(), 99u32.to_le_bytes());
        assert_eq!(fs.get("a.txt").unwrap(), 99u32.to_le_bytes());
        assert_eq!(fs.list_keys("").unwrap().len(), 2, "no stray temp files");
    }

    #[test]
    fn stale_temps_are_swept_on_open() {
        let dir = TempDir::new("mmm-fs").unwrap();
        {
            let fs = FileStore::open(dir.path(), LatencyProfile::zero(), VirtualClock::new(), StoreStats::new()).unwrap();
            fs.put("sub/real.bin", b"keep me").unwrap();
        }
        // Simulate a crash that leaked temps at two levels.
        std::fs::write(dir.path().join(".mmm-tmp.1.2.x.bin"), b"torn").unwrap();
        std::fs::write(dir.path().join("sub").join(".mmm-tmp.3.4.y.bin"), b"torn").unwrap();
        let fs = FileStore::open(dir.path(), LatencyProfile::zero(), VirtualClock::new(), StoreStats::new()).unwrap();
        assert_eq!(fs.list_keys("").unwrap(), vec!["sub/real.bin".to_string()]);
        assert_eq!(fs.get("sub/real.bin").unwrap(), b"keep me");
        assert!(!dir.path().join(".mmm-tmp.1.2.x.bin").exists());
        assert!(!dir.path().join("sub").join(".mmm-tmp.3.4.y.bin").exists());
    }

    #[test]
    fn get_range_overflow_is_invalid_not_a_panic() {
        let (_d, fs) = store(LatencyProfile::zero());
        fs.put("blob", &[0u8; 16]).unwrap();
        assert!(matches!(
            fs.get_range("blob", u64::MAX, 2),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            fs.get_range("blob", u64::MAX - 1, usize::MAX),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn injected_crash_fails_put_and_leaves_no_blob() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-fs").unwrap();
        let faults = FaultInjector::new();
        let fs = FileStore::open_with_faults(
            dir.path(),
            LatencyProfile::zero(),
            VirtualClock::new(),
            StoreStats::new(),
            faults.clone(),
        )
        .unwrap();
        faults.arm(FaultPlan::crash_at(FaultTarget::Class(OpClass::BlobPut), 1));
        fs.put("ok.bin", b"first").unwrap();
        assert!(fs.put("dead.bin", b"second").is_err());
        assert!(fs.exists("ok.bin"));
        assert!(!fs.exists("dead.bin"));
        assert_eq!(fs.stats.snapshot().blob_puts, 1, "failed op is not accounted");
    }

    #[test]
    fn injected_torn_write_leaks_a_temp_that_the_next_open_sweeps() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-fs").unwrap();
        let faults = FaultInjector::new();
        {
            let fs = FileStore::open_with_faults(
                dir.path(),
                LatencyProfile::zero(),
                VirtualClock::new(),
                StoreStats::new(),
                faults.clone(),
            )
            .unwrap();
            faults.arm(FaultPlan::torn_write_at(FaultTarget::Class(OpClass::BlobPut), 0, 3));
            assert!(fs.put("torn.bin", b"full payload").is_err());
            assert!(!fs.exists("torn.bin"), "the rename never happened");
            // The torn temp is on disk with exactly the kept bytes.
            let leaked: Vec<_> = std::fs::read_dir(dir.path())
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(TMP_PREFIX))
                .collect();
            assert_eq!(leaked.len(), 1);
            assert_eq!(std::fs::read(leaked[0].path()).unwrap(), b"ful");
        }
        let fs = FileStore::open(dir.path(), LatencyProfile::zero(), VirtualClock::new(), StoreStats::new()).unwrap();
        assert!(fs.list_keys("").unwrap().is_empty());
        assert_eq!(fs.disk_bytes(), 0);
    }

    #[test]
    fn injected_bit_flip_corrupts_the_stored_blob_silently() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-fs").unwrap();
        let faults = FaultInjector::new();
        let fs = FileStore::open_with_faults(
            dir.path(),
            LatencyProfile::zero(),
            VirtualClock::new(),
            StoreStats::new(),
            faults.clone(),
        )
        .unwrap();
        faults.arm(FaultPlan::bit_flip_at(FaultTarget::Class(OpClass::BlobPut), 0, 1, 99));
        fs.put("rot.bin", &[0u8; 128]).unwrap();
        let stored = fs.get("rot.bin").unwrap();
        assert_ne!(stored, vec![0u8; 128], "exactly one bit differs");
        assert_eq!(stored.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn injected_transient_clears_after_n_failures() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-fs").unwrap();
        let faults = FaultInjector::new();
        let fs = FileStore::open_with_faults(
            dir.path(),
            LatencyProfile::zero(),
            VirtualClock::new(),
            StoreStats::new(),
            faults.clone(),
        )
        .unwrap();
        faults.arm(FaultPlan::transient_at(FaultTarget::Class(OpClass::BlobPut), 0, 2));
        assert!(matches!(fs.put("k", b"x"), Err(Error::Transient(_))));
        assert!(matches!(fs.put("k", b"x"), Err(Error::Transient(_))));
        fs.put("k", b"x").unwrap();
        assert_eq!(fs.get("k").unwrap(), b"x");
    }
}

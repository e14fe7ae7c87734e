//! Storage-backend selection: plain, content-addressed, or tiered.
//!
//! The management env owns a [`BlobStore`], which dispatches every blob
//! operation to a [`FileStore`] (the paper's layout: one file per blob),
//! a [`CasStore`] (chunk-deduplicated, cached), or a [`TieredStore`]
//! (hot/cold split for million-model chains). All backends are
//! bit-identical at the logical key→blob level, so savers and recovery
//! code are backend-agnostic; only accounting (bytes billed, simulated
//! latency) differs.

use std::path::Path;

use mmm_obs::Observer;
use mmm_util::{Result, VirtualClock};

use crate::cas::{CasConfig, CasStore};
use crate::fault::FaultInjector;
use crate::file_store::{BlobWriter, FileStore};
use crate::mmap::BlobBytes;
use crate::profile::LatencyProfile;
use crate::stats::StoreStats;
use crate::tier::TieredStore;

/// Which blob-store implementation an environment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// One file per blob, exactly the bytes the saver produced (the
    /// paper's storage layout).
    #[default]
    Plain,
    /// Content-addressed: blobs become chunk manifests, identical chunks
    /// are stored once, repeat reads hit an in-memory recovery cache.
    Cas,
    /// Hot/cold tiering: writes land on a fast hot tier, demoted chain
    /// links live on a slow "object store" tier, reads route by key.
    Tiered,
}

impl StorageBackend {
    /// Canonical lowercase name (CLI flag value, on-disk marker).
    pub fn name(&self) -> &'static str {
        match self {
            StorageBackend::Plain => "plain",
            StorageBackend::Cas => "cas",
            StorageBackend::Tiered => "tiered",
        }
    }

    /// Inverse of [`StorageBackend::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "plain" => Some(StorageBackend::Plain),
            "cas" => Some(StorageBackend::Cas),
            "tiered" => Some(StorageBackend::Tiered),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A blob store that is either plain or content-addressed. Mirrors the
/// [`FileStore`] API; see [`StorageBackend`] for the semantics of each
/// variant.
// One store per environment: the size gap between the variants is
// irrelevant, and boxing would cost a pointer hop on every blob op.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum BlobStore {
    /// Plain one-file-per-blob backend.
    Plain(FileStore),
    /// Content-addressed deduplicating backend.
    Cas(CasStore),
    /// Hot/cold tiered backend.
    Tiered(TieredStore),
}

impl BlobStore {
    /// Open a blob store of the chosen backend rooted at `dir`.
    ///
    /// `profile` prices the store (the *hot* tier for the tiered
    /// backend, whose cold tier is priced as
    /// [`LatencyProfile::object_store`]).
    pub fn open(
        backend: StorageBackend,
        dir: impl AsRef<Path>,
        profile: LatencyProfile,
        clock: VirtualClock,
        stats: StoreStats,
        faults: FaultInjector,
        cas_config: CasConfig,
    ) -> Result<Self> {
        Ok(match backend {
            StorageBackend::Plain => BlobStore::Plain(FileStore::open_with_faults(
                dir, profile, clock, stats, faults,
            )?),
            StorageBackend::Cas => BlobStore::Cas(CasStore::open(
                dir, profile, clock, stats, faults, cas_config,
            )?),
            StorageBackend::Tiered => BlobStore::Tiered(TieredStore::open(
                dir,
                profile,
                LatencyProfile::object_store(),
                clock,
                stats,
                faults,
            )?),
        })
    }

    /// Which backend this store uses.
    pub fn backend(&self) -> StorageBackend {
        match self {
            BlobStore::Plain(_) => StorageBackend::Plain,
            BlobStore::Cas(_) => StorageBackend::Cas,
            BlobStore::Tiered(_) => StorageBackend::Tiered,
        }
    }

    /// The content-addressed layer, when active (dedup/cache counters,
    /// audits, orphan reclamation).
    pub fn cas(&self) -> Option<&CasStore> {
        match self {
            BlobStore::Cas(c) => Some(c),
            _ => None,
        }
    }

    /// The tiered layer, when active (demotion/promotion, per-tier
    /// stats).
    pub fn tiered(&self) -> Option<&TieredStore> {
        match self {
            BlobStore::Tiered(t) => Some(t),
            _ => None,
        }
    }

    /// Install an observer on the underlying store.
    pub fn set_observer(&mut self, obs: Observer) {
        match self {
            BlobStore::Plain(s) => s.set_observer(obs),
            BlobStore::Cas(s) => s.set_observer(obs),
            BlobStore::Tiered(s) => s.set_observer(obs),
        }
    }

    /// Write a blob (see [`FileStore::put`]).
    pub fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        match self {
            BlobStore::Plain(s) => s.put(key, bytes),
            BlobStore::Cas(s) => s.put(key, bytes),
            BlobStore::Tiered(s) => s.put(key, bytes),
        }
    }

    /// Write a blob, hinting semantic chunk boundaries (layer spans). The
    /// plain and tiered backends store the bytes as-is; the
    /// content-addressed backend cuts chunks at the boundaries so
    /// identical layers dedup.
    pub fn put_with_boundaries(&self, key: &str, bytes: &[u8], boundaries: &[usize]) -> Result<()> {
        match self {
            BlobStore::Plain(s) => s.put(key, bytes),
            BlobStore::Cas(s) => s.put_with_boundaries(key, bytes, boundaries),
            BlobStore::Tiered(s) => s.put(key, bytes),
        }
    }

    /// Open a streaming writer for a blob. The plain and tiered backends
    /// stream chunks straight to a temp file (peak memory stays at one
    /// chunk); the content-addressed backend needs the whole payload to
    /// cut and dedup chunks, so its sink buffers and lands the blob at
    /// [`BlobSink::finish`], cut at any [`BlobSink::hint_boundaries`].
    /// Either way the accounting equals one `put` (or
    /// `put_with_boundaries`) of the total bytes, charged at finish.
    pub fn put_writer(&self, key: &str) -> Result<BlobSink<'_>> {
        Ok(match self {
            BlobStore::Plain(s) => BlobSink::File(s.put_writer(key)?),
            BlobStore::Cas(s) => BlobSink::Buffered {
                store: s,
                key: key.to_string(),
                buf: Vec::new(),
                boundaries: Vec::new(),
            },
            BlobStore::Tiered(s) => BlobSink::Tiered { writer: s.put_writer(key)?, store: s },
        })
    }

    /// Read a whole blob (see [`FileStore::get`]).
    pub fn get(&self, key: &str) -> Result<Vec<u8>> {
        match self {
            BlobStore::Plain(s) => s.get(key),
            BlobStore::Cas(s) => s.get(key),
            BlobStore::Tiered(s) => s.get(key),
        }
    }

    /// Read a whole blob as a zero-copy view where the backend supports
    /// it. Plain and tiered blobs come back memory-mapped (decode reads
    /// straight from the page cache); a content-addressed blob must be
    /// assembled from chunks, so it comes back as an owned buffer with
    /// the copies it took recorded by the underlying chunk reads.
    /// Accounting (latency, op counts, bytes read) is identical to
    /// [`BlobStore::get`] — only `bytes_copied` differs.
    pub fn get_mapped(&self, key: &str) -> Result<BlobBytes> {
        match self {
            BlobStore::Plain(s) => s.get_mapped(key),
            BlobStore::Cas(s) => Ok(BlobBytes::from_vec(s.get(key)?)),
            BlobStore::Tiered(s) => s.get_mapped(key),
        }
    }

    /// Ranged read (see [`FileStore::get_range`]).
    pub fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        match self {
            BlobStore::Plain(s) => s.get_range(key, offset, len),
            BlobStore::Cas(s) => s.get_range(key, offset, len),
            BlobStore::Tiered(s) => s.get_range(key, offset, len),
        }
    }

    /// Whether a blob exists (not charged).
    pub fn exists(&self, key: &str) -> bool {
        match self {
            BlobStore::Plain(s) => s.exists(key),
            BlobStore::Cas(s) => s.exists(key),
            BlobStore::Tiered(s) => s.exists(key),
        }
    }

    /// Logical size of a stored blob in bytes (not charged).
    pub fn size(&self, key: &str) -> Result<u64> {
        match self {
            BlobStore::Plain(s) => s.size(key),
            BlobStore::Cas(s) => s.size(key),
            BlobStore::Tiered(s) => s.size(key),
        }
    }

    /// Delete a blob; the content-addressed backend also releases and
    /// reclaims its chunks.
    pub fn delete(&self, key: &str) -> Result<()> {
        match self {
            BlobStore::Plain(s) => s.delete(key),
            BlobStore::Cas(s) => s.delete(key),
            BlobStore::Tiered(s) => s.delete(key),
        }
    }

    /// All logical keys under a prefix (sorted, not charged). The
    /// content-addressed backend hides its chunk namespace; the tiered
    /// backend merges both tiers.
    pub fn list_keys(&self, prefix: &str) -> Result<Vec<String>> {
        match self {
            BlobStore::Plain(s) => s.list_keys(prefix),
            BlobStore::Cas(s) => s.list_keys(prefix),
            BlobStore::Tiered(s) => s.list_keys(prefix),
        }
    }

    /// Ground-truth disk usage of the store.
    pub fn disk_bytes(&self) -> u64 {
        match self {
            BlobStore::Plain(s) => s.disk_bytes(),
            BlobStore::Cas(s) => s.disk_bytes(),
            BlobStore::Tiered(s) => s.disk_bytes(),
        }
    }

    /// Check that a blob is structurally recoverable without reading it
    /// through the charged path: plain and tiered blobs only need to
    /// exist; a content-addressed blob additionally needs every chunk its
    /// manifest references to be present with the advertised length.
    pub fn verify_blob(&self, key: &str) -> Result<()> {
        match self {
            BlobStore::Plain(s) => s.size(key).map(|_| ()),
            BlobStore::Cas(s) => s.verify(key),
            BlobStore::Tiered(s) => s.size(key).map(|_| ()),
        }
    }

    /// The store's fault-injection handle.
    pub fn faults(&self) -> &FaultInjector {
        match self {
            BlobStore::Plain(s) => s.faults(),
            BlobStore::Cas(s) => s.faults(),
            BlobStore::Tiered(s) => s.faults(),
        }
    }
}

/// A backend-agnostic streaming blob sink from [`BlobStore::put_writer`].
///
/// Write chunks with [`BlobSink::write`], then land the blob with
/// [`BlobSink::finish`]; dropping without finishing aborts (no blob, no
/// charge). Only the content-addressed variant holds the payload in
/// memory — the others keep peak memory at one chunk.
#[derive(Debug)]
pub enum BlobSink<'a> {
    /// Streams to a plain file store.
    File(BlobWriter<'a>),
    /// Streams to a tiered store's hot tier; finish mirrors the put into
    /// the per-tier stats.
    Tiered {
        /// Writer into the hot tier.
        writer: BlobWriter<'a>,
        /// Owning tiered store, for per-tier accounting at finish.
        store: &'a TieredStore,
    },
    /// Buffers for the content-addressed backend (chunking needs the
    /// whole payload).
    Buffered {
        /// Destination store.
        store: &'a CasStore,
        /// Destination key.
        key: String,
        /// Accumulated payload.
        buf: Vec<u8>,
        /// Chunk-cut hints from [`BlobSink::hint_boundaries`].
        boundaries: Vec<usize>,
    },
}

impl BlobSink<'_> {
    /// Append a chunk.
    pub fn write(&mut self, chunk: &[u8]) -> Result<()> {
        match self {
            BlobSink::File(w) => w.write(chunk),
            BlobSink::Tiered { writer, .. } => writer.write(chunk),
            BlobSink::Buffered { buf, .. } => {
                buf.extend_from_slice(chunk);
                Ok(())
            }
        }
    }

    /// Hint semantic chunk boundaries of the finished payload (absolute
    /// byte offsets — layer edges), exactly what
    /// [`BlobStore::put_with_boundaries`] takes. Only the
    /// content-addressed sink consumes the iterator; the streaming sinks
    /// store bytes as-is and never advance it, so a lazily computed hint
    /// costs them nothing.
    pub fn hint_boundaries(&mut self, offsets: impl IntoIterator<Item = usize>) {
        if let BlobSink::Buffered { boundaries, .. } = self {
            boundaries.extend(offsets);
        }
    }

    /// Bytes accepted so far.
    pub fn bytes_written(&self) -> u64 {
        match self {
            BlobSink::File(w) => w.bytes_written(),
            BlobSink::Tiered { writer, .. } => writer.bytes_written(),
            BlobSink::Buffered { buf, .. } => buf.len() as u64,
        }
    }

    /// Land the blob: rename into place (streaming variants) or put the
    /// buffered payload (content-addressed). Charges one blob put of the
    /// total byte count.
    pub fn finish(self) -> Result<()> {
        match self {
            BlobSink::File(w) => w.finish(),
            BlobSink::Tiered { writer, store } => {
                let total = writer.bytes_written();
                writer.finish()?;
                store.note_streamed_put(total);
                Ok(())
            }
            BlobSink::Buffered {
                store,
                key,
                buf,
                boundaries,
            } => store.put_with_boundaries(&key, &buf, &boundaries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::{Error, TempDir};

    const ALL: [StorageBackend; 3] =
        [StorageBackend::Plain, StorageBackend::Cas, StorageBackend::Tiered];

    fn open_backend(backend: StorageBackend, dir: &std::path::Path) -> BlobStore {
        BlobStore::open(
            backend,
            dir,
            LatencyProfile::zero(),
            VirtualClock::new(),
            StoreStats::new(),
            FaultInjector::new(),
            CasConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn backend_names_round_trip() {
        for b in ALL {
            assert_eq!(StorageBackend::by_name(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(StorageBackend::by_name("mongo"), None);
        assert_eq!(StorageBackend::default(), StorageBackend::Plain);
    }

    #[test]
    fn all_backends_agree_on_logical_contents() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 13) as u8).collect();
        let mut logical = Vec::new();
        for backend in ALL {
            let dir = TempDir::new("mmm-backend").unwrap();
            let store = open_backend(backend, dir.path());
            store.put_with_boundaries("m/params.bin", &data, &[10_000, 20_000]).unwrap();
            store.put("m/meta.bin", b"meta").unwrap();
            assert_eq!(store.backend(), backend);
            assert_eq!(store.get("m/params.bin").unwrap(), data);
            assert_eq!(store.get_range("m/params.bin", 9_990, 20).unwrap(), &data[9_990..10_010]);
            assert_eq!(store.size("m/params.bin").unwrap(), data.len() as u64);
            store.verify_blob("m/params.bin").unwrap();
            assert!(matches!(store.verify_blob("nope"), Err(Error::NotFound(_))));
            logical.push(store.list_keys("").unwrap());
            store.delete("m/meta.bin").unwrap();
            assert!(!store.exists("m/meta.bin"));
        }
        assert_eq!(logical[0], logical[1], "backends expose identical key spaces");
        assert_eq!(logical[1], logical[2], "backends expose identical key spaces");
    }

    #[test]
    fn mapped_reads_match_copying_reads_on_every_backend() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        for backend in ALL {
            let dir = TempDir::new("mmm-backend").unwrap();
            let store = open_backend(backend, dir.path());
            store.put("m/params.bin", &data).unwrap();
            let view = store.get_mapped("m/params.bin").unwrap();
            assert_eq!(&*view, &data[..], "{backend}: mapped view must be bit-identical");
            // CAS must assemble; the others map on unix.
            if backend == StorageBackend::Cas {
                assert!(!view.is_mapped());
            } else if cfg!(unix) {
                assert!(view.is_mapped(), "{backend}: expected a zero-copy mapping");
            }
            assert!(matches!(store.get_mapped("absent"), Err(Error::NotFound(_))));
        }
    }

    #[test]
    fn hinted_sink_cuts_the_same_chunks_as_put_with_boundaries() {
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        let bounds = [4_000usize, 9_000, 21_000];
        for backend in ALL {
            let (dir_a, dir_b) = (
                TempDir::new("mmm-backend").unwrap(),
                TempDir::new("mmm-backend").unwrap(),
            );
            let (block, streamed) = (
                open_backend(backend, dir_a.path()),
                open_backend(backend, dir_b.path()),
            );
            block
                .put_with_boundaries("s/blob.bin", &data, &bounds)
                .unwrap();
            let mut sink = streamed.put_writer("s/blob.bin").unwrap();
            sink.hint_boundaries(bounds);
            for chunk in data.chunks(7_001) {
                sink.write(chunk).unwrap();
            }
            sink.finish().unwrap();
            assert_eq!(streamed.disk_bytes(), block.disk_bytes(), "{backend}");
            if let (Some(a), Some(b)) = (block.cas(), streamed.cas()) {
                assert_eq!(a.counters().chunk_puts, 4, "cut on the three hinted edges");
                assert_eq!(a.counters(), b.counters());
            }
            assert_eq!(streamed.get("s/blob.bin").unwrap(), data, "{backend}");
        }
    }

    #[test]
    fn streaming_sink_lands_identical_blobs_on_every_backend() {
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        for backend in ALL {
            let dir = TempDir::new("mmm-backend").unwrap();
            let stats = StoreStats::new();
            let store = BlobStore::open(
                backend,
                dir.path(),
                LatencyProfile::zero(),
                VirtualClock::new(),
                stats.clone(),
                FaultInjector::new(),
                CasConfig::default(),
            )
            .unwrap();
            let mut sink = store.put_writer("s/blob.bin").unwrap();
            for chunk in data.chunks(7_001) {
                sink.write(chunk).unwrap();
            }
            assert_eq!(sink.bytes_written(), data.len() as u64);
            sink.finish().unwrap();
            assert_eq!(store.get("s/blob.bin").unwrap(), data, "{backend}");
            let snap = stats.snapshot();
            if backend == StorageBackend::Cas {
                // CAS charges per chunk (plus the manifest write).
                assert!(snap.blob_puts >= 1, "{backend}");
            } else {
                assert_eq!(snap.blob_puts, 1, "{backend}: one charged put at finish");
            }
            if backend == StorageBackend::Tiered {
                let t = store.tiered().unwrap();
                assert_eq!(t.tier_stats(crate::tier::StorageTier::Hot).blob_puts, 1);
            }
            // An abandoned sink leaves nothing behind.
            let mut orphan = store.put_writer("s/orphan.bin").unwrap();
            orphan.write(b"partial").unwrap();
            drop(orphan);
            assert!(!store.exists("s/orphan.bin"), "{backend}");
        }
    }
}

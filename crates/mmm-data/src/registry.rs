//! Directory-backed, content-addressed dataset registry.
//!
//! This models the paper's assumption that training data "are saved
//! regardless of the model management (either by the manufacturer for
//! analytical or by the user for backup purposes)". Provenance records
//! point into the registry via [`DatasetRef`]s; the registry's disk usage
//! is deliberately *outside* the management layer's storage accounting,
//! matching the paper's storage-consumption definition (§4.1).

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, Targets};
use mmm_tensor::Tensor;
use mmm_util::codec::{put_str, put_u32, put_u64, put_f32_slice, Reader};
use mmm_util::{Error, Result};

const MAGIC: &[u8; 4] = b"MMDS";
const VERSION: u32 = 1;

/// A persistent reference to a registered dataset — the only thing the
/// Provenance approach stores per model (optimization O2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DatasetRef {
    /// Content-hash identity, hex encoded.
    pub id: String,
    /// Number of samples (informational; validated on load).
    pub n_samples: usize,
}

/// A directory of datasets keyed by content hash.
#[derive(Debug, Clone)]
pub struct DatasetRegistry {
    root: PathBuf,
}

impl DatasetRegistry {
    /// Open (creating if necessary) a registry rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        // Sweep temp files a crashed writer left behind; registered
        // datasets are only ever visible under their final `.mmds` name.
        for entry in fs::read_dir(&root)? {
            let path = entry?.path();
            let stale = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with('.') && n.ends_with(".tmp"));
            if stale {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(DatasetRegistry { root })
    }

    fn path_for(&self, id: &str) -> PathBuf {
        self.root.join(format!("{id}.mmds"))
    }

    /// Register a dataset, returning its reference. Idempotent: an
    /// already-registered dataset is not rewritten.
    pub fn put(&self, ds: &Dataset) -> Result<DatasetRef> {
        let id = format!("{:016x}", ds.content_hash());
        let r = DatasetRef { id: id.clone(), n_samples: ds.len() };
        let path = self.path_for(&id);
        if path.exists() {
            return Ok(r);
        }
        let bytes = encode(ds);
        // Write-then-rename so a crash never leaves a torn dataset file.
        // The temp name is unique per process *and* per call: two threads
        // registering the same dataset concurrently must not write the
        // same temp file (one would rename the other's half-written copy).
        static PUT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = PUT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .root
            .join(format!(".{id}.{}.{seq}.tmp", std::process::id()));
        fs::write(&tmp, &bytes)?;
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(r)
    }

    /// Load a dataset by reference. The id is the content hash: a file
    /// that no longer hashes to it, or whose sample count disagrees with
    /// the reference, is `Corrupt` — a Provenance recovery must never
    /// retrain on silently changed data.
    pub fn get(&self, r: &DatasetRef) -> Result<Dataset> {
        let path = self.path_for(&r.id);
        let bytes = fs::read(&path)
            .map_err(|_| Error::not_found(format!("dataset {} in registry {:?}", r.id, self.root)))?;
        let ds = decode(&bytes)?;
        if ds.len() != r.n_samples {
            return Err(Error::corrupt(format!(
                "dataset {} has {} samples, reference says {}",
                r.id,
                ds.len(),
                r.n_samples
            )));
        }
        let hash = format!("{:016x}", ds.content_hash());
        if hash != r.id {
            return Err(Error::corrupt(format!(
                "dataset {} now hashes to {hash}: its file is damaged",
                r.id
            )));
        }
        Ok(ds)
    }

    /// Whether the registry holds a dataset with this reference.
    pub fn contains(&self, r: &DatasetRef) -> bool {
        self.path_for(&r.id).exists()
    }

    /// Number of datasets stored.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|d| {
                d.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "mmds"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when no datasets are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keep only the datasets whose id satisfies `keep`; delete the rest.
    /// Returns how many datasets were deleted.
    pub fn retain(&self, keep: impl Fn(&str) -> bool) -> Result<usize> {
        let mut deleted = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|x| x == "mmds") {
                let id = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default()
                    .to_string();
                if !keep(&id) {
                    fs::remove_file(&path)?;
                    deleted += 1;
                }
            }
        }
        Ok(deleted)
    }

    /// Total bytes on disk (for experiments that report how much data
    /// storage the provenance assumption externalizes).
    pub fn disk_bytes(&self) -> u64 {
        fs::read_dir(&self.root)
            .map(|d| {
                d.filter_map(|e| e.ok())
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

fn encode(ds: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    // Input tensor.
    put_u32(&mut buf, ds.inputs.ndim() as u32);
    for &d in ds.inputs.shape() {
        put_u64(&mut buf, d as u64);
    }
    put_f32_slice(&mut buf, ds.inputs.data());
    // Targets.
    match &ds.targets {
        Targets::Regression(t) => {
            put_str(&mut buf, "reg");
            put_u32(&mut buf, t.ndim() as u32);
            for &d in t.shape() {
                put_u64(&mut buf, d as u64);
            }
            put_f32_slice(&mut buf, t.data());
        }
        Targets::Labels(l) => {
            put_str(&mut buf, "cls");
            put_u64(&mut buf, l.len() as u64);
            for &v in l {
                put_u64(&mut buf, v as u64);
            }
        }
    }
    buf
}

fn decode(bytes: &[u8]) -> Result<Dataset> {
    let mut r = Reader::new(bytes);
    if r.bytes(4)? != MAGIC {
        return Err(Error::corrupt("bad dataset magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(Error::corrupt(format!("unsupported dataset version {version}")));
    }
    let ndim = r.u32()? as usize;
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(r.u64()? as usize);
    }
    let n: usize = shape.iter().product();
    let inputs = Tensor::from_vec(shape, r.f32_slice(n)?);
    let kind = r.str()?;
    let targets = match kind.as_str() {
        "reg" => {
            let ndim = r.u32()? as usize;
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(r.u64()? as usize);
            }
            let n: usize = shape.iter().product();
            Targets::Regression(Tensor::from_vec(shape, r.f32_slice(n)?))
        }
        "cls" => {
            let n = r.u64()? as usize;
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(r.u64()? as usize);
            }
            Targets::Labels(labels)
        }
        other => return Err(Error::corrupt(format!("unknown target kind {other:?}"))),
    };
    Ok(Dataset::new(inputs, targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::TempDir;

    fn reg_ds() -> Dataset {
        Dataset::new(
            Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]),
            Targets::Regression(Tensor::from_vec([3, 1], vec![0.1, 0.2, 0.3])),
        )
    }

    fn cls_ds() -> Dataset {
        Dataset::new(Tensor::from_vec([2, 4], vec![0.5; 8]), Targets::Labels(vec![3, 9]))
    }

    #[test]
    fn put_get_roundtrip_regression() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        let ds = reg_ds();
        let r = reg.put(&ds).unwrap();
        let back = reg.get(&r).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn put_get_roundtrip_labels() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        let ds = cls_ds();
        let r = reg.put(&ds).unwrap();
        assert_eq!(reg.get(&r).unwrap(), ds);
    }

    #[test]
    fn put_is_idempotent_and_content_addressed() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        let r1 = reg.put(&reg_ds()).unwrap();
        let r2 = reg.put(&reg_ds()).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(reg.len(), 1, "same content stored once");
        let r3 = reg.put(&cls_ds()).unwrap();
        assert_ne!(r1.id, r3.id);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn missing_dataset_is_not_found() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        let r = DatasetRef { id: "deadbeefdeadbeef".into(), n_samples: 1 };
        assert!(!reg.contains(&r));
        assert!(matches!(reg.get(&r), Err(Error::NotFound(_))));
    }

    #[test]
    fn sample_count_mismatch_is_corrupt() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        let mut r = reg.put(&reg_ds()).unwrap();
        r.n_samples = 99;
        assert!(matches!(reg.get(&r), Err(Error::Corrupt(_))));
    }

    #[test]
    fn a_flipped_payload_byte_is_corrupt() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        let r = reg.put(&reg_ds()).unwrap();
        // Flip the last byte: a target value, so the length, the shape
        // and the sample count all still check out.
        let path = reg.path_for(&r.id);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = reg.get(&r).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains(&r.id), "{err}");
    }

    #[test]
    fn disk_usage_is_reported() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        assert!(reg.is_empty());
        reg.put(&reg_ds()).unwrap();
        assert!(reg.disk_bytes() > 0);
    }

    #[test]
    fn retain_deletes_only_unkept_datasets() {
        let dir = TempDir::new("mmm-reg").unwrap();
        let reg = DatasetRegistry::open(dir.path()).unwrap();
        let keep = reg.put(&reg_ds()).unwrap();
        let drop_ref = reg.put(&cls_ds()).unwrap();
        let deleted = reg.retain(|id| id == keep.id).unwrap();
        assert_eq!(deleted, 1);
        assert!(reg.contains(&keep));
        assert!(!reg.contains(&drop_ref));
        // Retaining everything is a no-op.
        assert_eq!(reg.retain(|_| true).unwrap(), 0);
    }

    #[test]
    fn serde_roundtrip_of_ref() {
        let r = DatasetRef { id: "abc".into(), n_samples: 7 };
        let s = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<DatasetRef>(&s).unwrap(), r);
    }
}

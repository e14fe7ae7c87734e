//! What the benchmark needs from the operating system: memory readings,
//! dirty-page draining, on-disk sizes and the machine fingerprint.

use std::path::Path;

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size since the last [`reset_peak_rss`], in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:").unwrap_or(0) * 1024
}

/// Restart the kernel's high-water mark at the current RSS, so set-up
/// (which runs several times) cannot own the peak of the timed region.
/// Best effort: where the write is refused the peak stays cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    fn sync();
}

/// Write out dirty pages. Called between rounds, outside every timed
/// span: the writeback of one round's saves otherwise bills the next.
pub fn drain_dirty_pages() {
    // SAFETY: `sync(2)` takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Worker threads the load generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn first_line_after(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// One line describing the machine and the flush policy, printed beside
/// the numbers so two result sets can be told apart.
pub fn fingerprint(data_dir: &Path) -> String {
    let unknown = || "unknown".to_string();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string());
    format!(
        "nproc={} cpu={:?} kernel={:?} rustc={:?} data_fs={} flush=none(page-cache; no fsync in mmm-store)",
        nproc(),
        first_line_after("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown()),
        rustc.unwrap_or_else(unknown),
        filesystem_of(data_dir).unwrap_or_else(unknown),
    )
}

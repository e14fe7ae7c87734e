//! The repository benchmark: four closed-loop workloads over archive /
//! recover / serve / query, with per-layer probes and a traced run.
//!
//! See `README.md` in this directory for what each workload stresses,
//! which layer metric should move which end-to-end metric, and how to
//! read a trace file.

pub mod archive;
pub mod compare;
pub mod gen;
pub mod lake;
pub mod probe;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use mmm_core::env::ManagementEnv;
use mmm_store::{LatencyProfile, StatsSnapshot, StorageBackend};
use stats::Metric;
use trace::Recorder;

/// Open an environment the way every workload does: zero store latency,
/// so wall time measures the program and not the VirtualClock model;
/// every other knob (threads, chunk and cache sizes, commit window) at
/// its library default, so a changed default shows.
pub(crate) fn open_env(dir: &Path, backend: StorageBackend) -> mmm_util::Result<ManagementEnv> {
    ManagementEnv::builder(dir, LatencyProfile::zero())
        .backend(backend)
        .open()
}

/// Time one operation and take the store-counter delta around it.
pub(crate) fn timed<T>(
    env: &ManagementEnv,
    f: impl FnOnce() -> T,
) -> (T, Instant, Instant, StatsSnapshot) {
    let before = env.stats();
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    (out, t0, t1, env.stats() - before)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ConcatArchive,
    DeltaChain,
    ProvenanceReplay,
    LakeService,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ConcatArchive,
        Workload::DeltaChain,
        Workload::ProvenanceReplay,
        Workload::LakeService,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ConcatArchive => "concat-archive",
            Workload::DeltaChain => "delta-chain",
            Workload::ProvenanceReplay => "provenance-replay",
            Workload::LakeService => "lake-service",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Legs of one time-budgeted untraced run. Each leg is a process of
    /// its own that sets up afresh and measures its share of the time.
    ///
    /// Separate processes, because part of the run-to-run difference is
    /// drawn once per process: with address-space randomisation on, a
    /// 40 MB recover takes 14.0 ms in one process and 16.8 ms in the
    /// next, every time, for the life of the process (`delta-chain`'s
    /// selective recover: 11.2 or 14.2 ms). Legs inside one process
    /// would share a draw.
    ///
    /// `lake-service` has three longer legs: its tenants need about 2.6 s
    /// of serving before their earlier chains outgrow the CAS read cache,
    /// and its set-up takes 2 s.
    pub fn legs(self) -> usize {
        match self {
            Workload::LakeService => 3,
            _ => 6,
        }
    }
}

/// How much work one run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole rounds until this many seconds have passed (the driver's
    /// contract). Counts then differ between runs, so counters are
    /// reported per operation.
    Seconds(f64),
    /// A fixed number of rounds: fixed work, so every count repeats
    /// exactly (what the determinism test uses).
    Rounds(usize),
}

/// Input sizes. `Full` is what `BENCHMARK.json` measures; `Tiny` runs
/// the same code on a fleet small enough for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for this run's environments; created by the
    /// run and removed when it ends.
    pub data_dir: PathBuf,
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that returned an error, were refused, or whose output
    /// failed the oracle.
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Vec<Metric>,
    pub spans: Option<Recorder>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run one leg of one workload in this process. The data directory is
/// removed on every path out.
pub fn run(opts: &Opts) -> mmm_util::Result<Outcome> {
    let _ = std::fs::remove_dir_all(&opts.data_dir);
    std::fs::create_dir_all(&opts.data_dir)?;
    let out = match opts.workload {
        Workload::LakeService => lake::run(opts),
        _ => archive::run(opts),
    };
    let _ = std::fs::remove_dir_all(&opts.data_dir);
    sys::drain_dirty_pages();
    out
}

/// Fold the legs of one run into its result (see [`Workload::legs`]):
/// `setup_s` is the median of the set-ups, every other metric the mean
/// of its best two thirds of the legs.
///
/// The host slows this machine by 1.2–1.6 × for 10–40 s at a time, about
/// a quarter of the time, so one or two legs of a run usually sit in such
/// a phase. Over 60 legs of `delta-chain`, taken six at a time, the mean
/// of all six spread 0.05–0.12 from run to run and the mean of the best
/// four 0.02–0.09.
pub fn combine(mut legs: Vec<Outcome>) -> Outcome {
    let mut combined = legs.pop().expect("at least one leg");
    for m in &mut combined.metrics {
        let mut values = vec![m.value];
        for other in &legs {
            let same = other
                .metrics
                .iter()
                .find(|o| o.name == m.name)
                .expect("every leg reports every metric");
            values.push(same.value);
            m.samples += same.samples;
        }
        m.value = if m.name == "setup_s" {
            stats::Samples(values).median()
        } else {
            let higher_is_better = report::END_TO_END
                .iter()
                .any(|&(name, _, better)| name == m.name && better == "higher");
            values.sort_by(f64::total_cmp);
            if higher_is_better {
                values.reverse();
            }
            let best = &values[..(values.len() * 2 / 3).max(1)];
            best.iter().sum::<f64>() / best.len() as f64
        };
    }
    combined.attempted += legs.iter().map(|o| o.attempted).sum::<u64>();
    combined.failed += legs.iter().map(|o| o.failed).sum::<u64>();
    combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legs_fold_into_the_mean_of_the_best_and_a_median_set_up() {
        let leg = |setup: f64, tts: f64, ops: f64, failed: u64| Outcome {
            attempted: 10,
            failed,
            metrics: vec![
                Metric::new("setup_s", "s", setup, 1),
                Metric::new("tts_ms_p50", "ms", tts, 5),
                Metric::new("ops_per_s", "1/s", ops, 5),
            ],
            spans: None,
        };
        let out = combine(vec![
            leg(1.0, 10.0, 100.0, 0),
            leg(9.0, 20.0, 50.0, 1),
            leg(2.0, 60.0, 17.0, 0),
            leg(3.0, 30.0, 33.0, 0),
            leg(4.0, 90.0, 11.0, 0),
            leg(5.0, 40.0, 25.0, 0),
        ]);
        assert_eq!(out.metric("setup_s"), Some(3.0));
        assert_eq!(out.metric("tts_ms_p50"), Some(25.0), "the four lowest");
        assert_eq!(out.metric("ops_per_s"), Some(52.0), "the four highest");
        assert_eq!(
            (out.attempted, out.failed, out.metrics[1].samples),
            (60, 1, 30)
        );
        assert!(!out.correct());
    }
}

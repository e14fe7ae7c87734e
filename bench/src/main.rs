//! Command line of the repository benchmark.
//!
//! ```text
//! mmm-perf --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--out <file.jsonl>]
//! mmm-perf --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Prints every metric as `name unit value samples`, then one JSON
//! object on the last line. Exits non-zero when any operation failed,
//! was refused, or returned something other than what was saved.
//!
//! An untraced run is [`Workload::legs`] child processes of this same
//! program (`--leg`), one after the other; a traced run, and each leg,
//! measures in this process.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mmm_perf::report::END_TO_END;
use mmm_perf::stats::Metric;
use mmm_perf::{compare, sys, Budget, Opts, Outcome, Scale, Workload};
use serde_json::{json, Map, Value};

/// Everything a run writes lives under `bench/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    opts: Opts,
    out: Option<PathBuf>,
    /// This process is one leg of a run: measure here, print the leg's
    /// result (sample counts included) for the parent to fold.
    leg: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: mmm-perf --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--out <file.jsonl>]");
    eprintln!("       mmm-perf --compare <a.jsonl> <b.jsonl>");
    eprintln!(
        "workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut leg) =
        (None, None, None, false, None, false);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--leg" => leg = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let data_dir =
        out_dir()
            .join("data")
            .join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
    Ok(Args {
        opts: Opts {
            workload,
            seed,
            budget: Budget::Seconds(seconds.ok_or("--seconds is required")?),
            trace,
            scale: Scale::Full,
            data_dir,
        },
        out,
        leg,
    })
}

/// Run the legs of an untraced run as child processes, one at a time,
/// and fold their results.
fn run_legs(opts: &Opts) -> Result<Outcome, String> {
    let Budget::Seconds(seconds) = opts.budget else {
        unreachable!("the command line only gives seconds")
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let n_legs = opts.workload.legs();
    let mut legs = Vec::with_capacity(n_legs);
    for _ in 0..n_legs {
        let child = std::process::Command::new(&exe)
            .args(["--workload", opts.workload.name(), "--trace", "0", "--leg"])
            .args([
                "--seed",
                &opts.seed.to_string(),
                "--seconds",
                &(seconds / n_legs as f64).to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a leg: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let leg = parse_leg(last)
            .ok_or_else(|| format!("a leg ended with {} and printed {last:?}", child.status))?;
        legs.push(leg);
    }
    Ok(mmm_perf::combine(legs))
}

fn parse_leg(line: &str) -> Option<Outcome> {
    let doc = serde_json::parse_str(line).ok()?;
    let metrics = doc.get("metrics")?.as_object()?;
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let m = metrics.get(name)?;
            Some(Metric::new(
                name,
                unit,
                m.get("value")?.as_f64()?,
                m.get("samples")?.as_u64()? as usize,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Outcome {
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        metrics,
        spans: None,
    })
}

fn result_json(outcome: &Outcome, with_samples: bool) -> Value {
    let mut metrics = Map::new();
    for m in &outcome.metrics {
        let mut entry = json!({"value": m.value, "unit": m.unit});
        if let (true, Some(obj)) = (with_samples, entry.as_object_mut()) {
            obj.insert("samples".into(), json!(m.samples));
        }
        metrics.insert(m.name.to_string(), entry);
    }
    json!({
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    })
}

fn append_result(path: &Path, opts: &Opts, result: &Value) -> std::io::Result<()> {
    let mut line = result.clone();
    if let Some(obj) = line.as_object_mut() {
        obj.insert("workload".into(), json!(opts.workload.name()));
        obj.insert("seed".into(), json!(opts.seed));
        obj.insert("trace".into(), json!(opts.trace));
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            return usage("--compare takes two result files");
        };
        let benchmark_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        return match compare::run(&benchmark_json, Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => usage(&e),
        };
    }
    let Args { opts, out, leg } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };

    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("error: creating {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    if !leg {
        println!("# {}", sys::fingerprint(&out_dir()));
        println!(
            "# workload={} seed={} budget={:?} trace={}",
            opts.workload.name(),
            opts.seed,
            opts.budget,
            opts.trace
        );
    }
    let outcome = if leg || opts.trace {
        mmm_perf::run(&opts).map_err(|e| e.to_string())
    } else {
        run_legs(&opts)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &outcome.spans {
        let path = out_dir().join(format!(
            "trace-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                spans.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &outcome.metrics {
        println!("{}", m.line());
    }
    println!(
        "failed_share ratio {} {}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    let result = result_json(&outcome, leg);
    if let Some(path) = &out {
        if let Err(e) = append_result(path, &opts, &result) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

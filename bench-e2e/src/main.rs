//! `bench-e2e` — the repository's end-to-end and per-layer benchmark.
//!
//! Four workloads, each chosen to stress different layers:
//!
//! | workload | shape | mainly exercises |
//! |---|---|---|
//! | `astro-sparse-cold` | closed batch, all four drivers, fresh lazy `FieldStore` per solve | block synthesis (`field`), `iosim` |
//! | `fusion-dense-warm` | closed batch, all four drivers, blocks prebuilt in memory | the kernel (`integrate`), `desim`, `core` messaging |
//! | `serve-zipf` | one `Service`, Zipf(1.1) popularity over a 256-seed pool | serve admission/queue, kernel, cache hits |
//! | `cluster-uniform` | a 2-replica `ClusterService`, uniform popularity over a 256-seed pool | cache misses, store loads, ring hand-offs |
//!
//! End-to-end metrics (plain runs, no wrappers): `setup_s`, `solve_s`
//! (one closed solve by each of the four drivers, summed), `max_rps` and
//! `peak_rss_mb`; see `metrics::end_to_end` for their definitions. Which
//! layer metric should move which of them:
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `field.*` | `solve_s`, `max_rps` | `astro-sparse-cold`; bypassed elsewhere |
//! | `iosim.*` | `solve_s`; `max_rps` | `astro-sparse-cold`; `cluster-uniform` |
//! | `integrate.*` | `solve_s`; `max_rps` | `fusion-dense-warm`; `serve-zipf` |
//! | `desim.<d>.*` | `solve_s` through `core.hybrid.solve_s`, `core.static.solve_s` | `fusion-dense-warm` (lod is the no-messaging control) |
//! | `core.<d>.*` | `solve_s` through `core.<d>.solve_s` | both batch workloads |
//! | `paper.<d>.*` | nothing on the host: virtual time, must not change under a host-only optimisation | both batch workloads |
//! | `serve.*` | `max_rps` | `serve-zipf` |
//! | `cluster.*` | `max_rps` | `cluster-uniform` |
//! | `bench.*` | the validity of the run itself | all |
//!
//! Modes:
//!
//! ```text
//! bench-e2e --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! bench-e2e --all [--repeats N] [--seed N] [--seconds S] [--out FILE]
//! bench-e2e --compare OLD.json NEW.json
//! ```
//!
//! A single run prints the host record, every metric with its unit and
//! sample count, each serving phase's sent/succeeded/failed counts, and as
//! its last line one JSON object `{correct, attempted, failed, metrics}`.
//! `--trace 0` measures end-to-end metrics with no wrappers; `--trace 1`
//! wraps the layer boundaries and reports per-layer metrics. It exits 1
//! when an answer check or the traced run's reconciliation fails.
//!
//! `--all` runs every workload `--repeats` times plain and once traced,
//! each in its own process, and writes one result file. `--compare`
//! re-processes two result files without running anything, against the
//! bounds in the repository's `BENCHMARK.json`.

mod batch;
mod compare;
mod inputs;
mod metrics;
mod serving;
mod solve;
mod stats;

use metrics::{metrics_object, Record};
use serde_json::Value;
use std::process::ExitCode;

/// The slack of the traced run's reconciliation, as a share of the traced
/// whole. The run fails when more than this falls outside every layer
/// boundary, or when the kernel estimate (replay ns/step × the driver's
/// steps), the one layer figure measured apart from the handlers it is
/// subtracted from, exceeds the handlers' self-time by more than this.
pub const RECONCILE_SLACK: f64 = 0.05;

/// Result-file schema tag.
const SCHEMA: &str = "bench-e2e-v1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AstroSparseCold,
    FusionDenseWarm,
    ServeZipf,
    ClusterUniform,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AstroSparseCold,
        Workload::FusionDenseWarm,
        Workload::ServeZipf,
        Workload::ClusterUniform,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AstroSparseCold => "astro-sparse-cold",
            Workload::FusionDenseWarm => "fusion-dense-warm",
            Workload::ServeZipf => "serve-zipf",
            Workload::ClusterUniform => "cluster-uniform",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn is_batch(self) -> bool {
        matches!(self, Workload::AstroSparseCold | Workload::FusionDenseWarm)
    }
}

/// How a run's operations went.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed for any reason, refusals included.
    pub failed: u64,
    /// Failed operations whose answer was wrong or lost.
    pub wrong: u64,
    /// The traced run's layers summed to its whole within the slack.
    pub reconciled: bool,
}

/// Where and how the measured code was built and run.
fn host_record(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Map(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("simd_isa".into(), Value::Str(streamline_field::simd_isa().into())),
        ("rustc".into(), Value::Str(env!("BENCH_RUSTC_VERSION").into())),
        ("git_commit".into(), Value::Str(git_commit())),
        ("profile".into(), Value::Str(env!("BENCH_PROFILE").into())),
        ("seed".into(), Value::U64(seed)),
    ])
}

/// The commit checked out next to this package, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..40.min(l.len())].into())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

/// One workload, one seed: the mode a benchmark harness runs.
fn run_one(a: &RunArgs) -> Result<bool, String> {
    let mut rec = Record::default();
    let outcome = match (a.workload.is_batch(), a.trace) {
        (true, false) => batch::run_plain(a.workload, a.seed, a.seconds, &mut rec),
        (true, true) => batch::run_traced(a.workload, a.seed, a.seconds, &mut rec),
        (false, false) => serving::run_plain(a.workload, a.seed, a.seconds, &mut rec)?,
        (false, true) => serving::run_traced(a.workload, a.seed, a.seconds, &mut rec)?,
    };
    let table = if a.trace { metrics::per_layer() } else { metrics::end_to_end() };
    if !a.trace {
        rec.set("peak_rss_mb", peak_rss_mb().ok_or("cannot read peak RSS")?, 1);
    }
    let rows = rec.rows(&table, !a.trace);
    let correct = outcome.wrong == 0 && outcome.reconciled;

    let host = host_record(a.seed);
    println!(
        "bench-e2e {} seed {} ({} run)",
        a.workload.name(),
        a.seed,
        if a.trace { "traced" } else { "plain" }
    );
    if let Value::Map(fields) = &host {
        for (k, v) in fields {
            println!("  host.{k:<12} {}", serde_json::to_string(v).unwrap_or_default());
        }
    }
    for (d, m) in &rows {
        println!("  {:<34} {:>16.6} {:<6} n={}", d.name, m.value, d.unit, m.samples);
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6} {:<6} n={}  ({} of {} operations failed; {} wrong)",
        "failed_frac",
        failed_frac,
        "frac",
        outcome.attempted,
        outcome.failed,
        outcome.attempted,
        outcome.wrong
    );
    if !outcome.reconciled {
        println!("  the traced layers did not reconcile within {RECONCILE_SLACK}");
    }

    if let Some(path) = &a.out {
        let record = Value::Map(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("host".into(), host),
            ("workload".into(), Value::Str(a.workload.name().into())),
            ("seed".into(), Value::U64(a.seed)),
            ("trace".into(), Value::Bool(a.trace)),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::U64(outcome.attempted)),
            ("failed".into(), Value::U64(outcome.failed)),
            ("metrics".into(), metrics_object(&rows, true)),
        ]);
        let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(outcome.attempted.max(1))),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), metrics_object(&rows, false)),
    ]);
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(correct)
}

/// Every workload, `repeats` plain runs and one traced run each, every run
/// in its own process; one result file.
fn run_all(seed: u64, seconds: f64, repeats: u64, out: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let plan = (0..repeats).map(|r| (seed + r, false)).chain([(seed, true)]);
        for (s, trace) in plan {
            let file =
                work.join(format!("run-{}-{}-{s}-{trace}.json", std::process::id(), w.name()));
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&file)
                .status()
                .map_err(|e| e.to_string())?;
            all_correct &= status.success();
            match std::fs::read_to_string(&file) {
                Ok(text) => {
                    runs.push(serde_json::from_str::<Value>(&text).map_err(|e| e.to_string())?)
                }
                Err(_) => eprintln!("{} seed {s}: no result", w.name()),
            }
            let _ = std::fs::remove_file(&file);
        }
    }
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("host".into(), host_record(seed)),
        ("runs".into(), Value::Seq(runs)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    println!("\nsummary over {repeats} plain run(s) per workload (median [q1, q3]):");
    compare::summarize(&doc);
    println!("results written to {out}");
    Ok(all_correct)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench-e2e --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n  \
         bench-e2e --all [--repeats N] [--seed N] [--seconds S] [--out FILE]\n  \
         bench-e2e --compare OLD.json NEW.json\nworkloads: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let parsed = |flag: &str, default: &str| -> Option<f64> {
        value(flag).map_or(Some(default), |v| Some(v.as_str())).and_then(|v| v.parse().ok())
    };
    let result = if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(old), Some(new)) = (args.get(i + 1), args.get(i + 2)) else { return usage() };
        let bounds = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        compare::run(old, new, bounds).map(|()| true)
    } else if args.iter().any(|a| a == "--all") {
        let (Some(seed), Some(seconds), Some(repeats)) =
            (parsed("--seed", "1"), parsed("--seconds", "25"), parsed("--repeats", "3"))
        else {
            return usage();
        };
        let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/results.json").to_string();
        let out = value("--out").cloned().unwrap_or(default_out);
        run_all(seed as u64, seconds, repeats.max(1.0) as u64, &out)
    } else {
        let workload = value("--workload").and_then(|w| Workload::parse(w));
        let seed = value("--seed").and_then(|s| s.parse::<u64>().ok());
        let seconds = value("--seconds").and_then(|s| s.parse::<f64>().ok()).filter(|s| *s > 0.0);
        let trace = match value("--trace").map(String::as_str) {
            Some("0") | None => Some(false),
            Some("1") => Some(true),
            Some(_) => None,
        };
        let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
            (workload, seed, seconds, trace)
        else {
            return usage();
        };
        run_one(&RunArgs { workload, seed, seconds, trace, out: value("--out").cloned() })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::from(1)
        }
    }
}

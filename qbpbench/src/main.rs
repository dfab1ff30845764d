//! End-to-end benchmark of the QBP partitioner.
//!
//! ```text
//! qbpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed (in batches of set-ups spread
//! over the run, timing each), runs whole rounds of its operations until
//! they have taken `--seconds`, checks every output with the benchmark's
//! own checker, and prints one JSON line: whether every output was
//! correct, how many operations ran and failed, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md for
//! the workloads and metrics.

mod check;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{setup, RoundLog};

/// Set-ups timed at the start of a run and again after each round;
/// `setup_s` is the median of all of them. The host's speed drifts over
/// seconds, so set-ups spread over the run see the same mix of fast and
/// slow spells as its rounds do.
const SETUPS_PER_BATCH: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |key: &str| map.get(key).ok_or_else(|| format!("missing --{key}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if map.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let result = run(&args, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qbpbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn secs(d: &Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs one batch of set-ups, each in a fresh directory that is removed
/// after it, and returns the last one.
fn set_up(
    args: &Args,
    dir: &Path,
    batch: usize,
    setup_s: &mut Vec<f64>,
) -> Result<workloads::Setup, String> {
    let mut last = None;
    for i in 0..SETUPS_PER_BATCH {
        let dir = dir.join(format!("setup{batch}-{i}"));
        std::fs::create_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let s = setup(&args.workload, args.seed, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        setup_s.push(secs(&s.total));
        last = Some(s);
    }
    Ok(last.expect("at least one set-up per batch"))
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let first = set_up(args, dir, 0, &mut setup_s)?;
    let (mut workload, read) = (first.workload, first.read);

    let mut layers = args.trace.then(trace::Layers::default);
    let mut log = RoundLog::default();
    let mut rounds = 0;
    let mut busy = Duration::ZERO;
    while rounds == 0 || busy.as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        workload.round(layers.as_mut(), &mut log);
        busy += t0.elapsed();
        rounds += 1;
        set_up(args, dir, rounds, &mut setup_s)?;
    }
    let attempted = log.ops.len();
    let per_round = attempted / rounds;
    assert_eq!(
        per_round * rounds,
        attempted,
        "every round runs the same operations"
    );
    // Each operation's median over the rounds: a slow spell of the host
    // that hits one round leaves the sums and means below unmoved.
    let op_median = |of: fn(&workloads::Op) -> f64| -> Vec<f64> {
        (0..per_round)
            .map(|i| {
                median(
                    (0..rounds)
                        .map(|r| of(&log.ops[r * per_round + i]))
                        .collect(),
                )
            })
            .collect()
    };
    let op_wall = op_median(|op| secs(&op.wall));
    let op_cpu = op_median(|op| secs(&op.cpu));
    let wall: f64 = op_wall.iter().sum();

    // Every failed operation, with its reason and how many rounds saw it.
    let mut failures: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for op in &log.ops {
        if let Err(why) = &op.result {
            *failures.entry((&op.label, why)).or_default() += 1;
        }
    }
    for ((label, why), count) in &failures {
        println!("failed {label}: {why} (in {count} of {rounds} rounds)");
    }
    let failed = failures.values().sum::<usize>();
    eprintln!(
        "{}: {rounds} rounds of {per_round} operations, wall {wall:.4} s",
        args.workload
    );
    // Where the wall time goes: per method on the solve workloads, per
    // circuit on `eco_stream` (the label's first word).
    let mut groups: BTreeMap<&str, f64> = BTreeMap::new();
    for (op, w) in log.ops.iter().zip(&op_wall) {
        let key = op.label.split([' ', '/']).next().unwrap_or_default();
        *groups.entry(key).or_default() += w;
    }
    let groups: Vec<String> = groups.iter().map(|(k, w)| format!("{k} {w:.3}")).collect();
    eprintln!("wall by group (s): {}", groups.join(", "));

    let metrics: Vec<(&str, f64, &str)> = match layers {
        Some(layers) => trace::probe(workload.as_ref(), layers, rounds, read, &mut log)?,
        None => {
            let ratios: Vec<f64> = log
                .ops
                .iter()
                .filter_map(|op| op.result.as_ref().ok().copied())
                .collect();
            if ratios.is_empty() {
                return Err("no operation succeeded, so there is no cost ratio".into());
            }
            let op_ms: Vec<f64> = op_wall.iter().map(|w| 1e3 * w).collect();
            vec![
                ("setup_s", median(setup_s), "s"),
                ("wall_s", wall, "s"),
                ("cpu_s", op_cpu.iter().sum(), "s"),
                ("peak_rss_mb", sys::peak_rss_mib(), "MiB"),
                ("cost_ratio", geomean(&ratios), "ratio"),
                ("op_geomean_ms", geomean(&op_ms), "ms"),
            ]
        }
    };
    for error in &log.errors {
        println!("incorrect: {error}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        log.errors.is_empty(),
        body.join(", ")
    ))
}

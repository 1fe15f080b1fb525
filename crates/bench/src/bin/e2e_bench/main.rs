//! `e2e_bench`: real queries and ingests over the socket, four named
//! workloads, and a per-layer ledger. See `README.md` next to this file
//! for the metric glossary and how to read the output.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload in this process. The last line of standard output is
//!     one JSON object: the end-to-end metrics (--trace 0) or the per-layer
//!     metrics (--trace 1). `--report <file>` also writes every row.
//! e2e_bench --all [--seed <n>] [--seconds <s>]
//!     Every workload, each in a child process, traced round and layer
//!     walk included; prints every metric and writes result.json.
//! e2e_bench --smoke [--seed <n>]
//!     --all at a scale of seconds, to check the harness itself. (`--smoke`
//!     also shrinks a `--workload` run, which is how --all hands it down.)
//! e2e_bench --walk
//!     The layer walk alone.
//! e2e_bench --compare <a.json> <b.json>
//!     Judge result b against baseline a; exits 1 on a regression, 2 when
//!     a is flagged noisy or failed its checks and so is no baseline.
//! ```
//!
//! Exit code 0 means every check passed; 1 a correctness failure or a
//! regression; 2 a usage or I/O error.

mod gen;
mod host;
mod ledger;
mod report;
mod run;
mod spec;
mod stats;
mod walk;

use report::Flat;
use run::{Outcome, RunConfig};
use spec::{Scale, Workload, END_TO_END, FULL_SECONDS, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vstore::obs::json;

/// Where results, traces and scratch stores go: under cargo's target
/// directory, which the driver keeps inside its checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("e2e_bench")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    report: Option<PathBuf>,
    all: bool,
    smoke: bool,
    walk: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        ..Args::default()
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--report" => parsed.report = Some(value("a file")?.into()),
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            "--walk" => parsed.walk = true,
            "--compare" => {
                parsed.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = [
        parsed.workload.is_some(),
        parsed.all,
        parsed.walk,
        parsed.compare.is_some(),
    ];
    match modes.iter().filter(|on| **on).count() {
        0 if parsed.smoke => parsed.all = true,
        1 => {}
        _ => return Err("give one of --workload, --all, --smoke, --walk, --compare".into()),
    }
    Ok(parsed)
}

/// The rows of one finished workload as a flat document (no prefix).
fn workload_rows(outcome: &Outcome, calibration: (f64, f64), load_at_start: f64) -> Flat {
    let mut flat = Flat::default();
    flat.flag("correct", outcome.correct());
    flat.num("attempted", outcome.attempted as f64);
    flat.num("failed", outcome.failed as f64);
    flat.flag(
        "noisy",
        host::is_noisy(calibration.0, calibration.1, load_at_start),
    );
    flat.num("calibration_before_ms", calibration.0);
    flat.num("calibration_after_ms", calibration.1);
    for (name, value) in &outcome.end_to_end {
        flat.num(format!("e2e.{name}"), *value);
    }
    for (name, (q1, q3)) in &outcome.spread {
        flat.num(format!("spread.{name}.q1"), *q1);
        flat.num(format!("spread.{name}.q3"), *q3);
    }
    for (name, value) in &outcome.per_layer {
        flat.num(format!("layer.{name}"), *value);
    }
    flat
}

/// The one-line result the driver reads: exactly the metrics of the mode.
fn contract_line(outcome: &Outcome, trace: bool) -> String {
    let mut out = String::from("{");
    json::push_key(&mut out, "correct");
    out.push_str(if outcome.correct() {
        "true, "
    } else {
        "false, "
    });
    json::push_key(&mut out, "attempted");
    out.push_str(&format!("{}, ", outcome.attempted.max(1)));
    json::push_key(&mut out, "failed");
    out.push_str(&format!("{}, ", outcome.failed));
    json::push_key(&mut out, "metrics");
    out.push('{');
    let (table, measured) = mode_metrics(outcome, trace);
    for (i, metric) in table.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::push_key(&mut out, metric.name);
        out.push('{');
        json::push_key(&mut out, "value");
        // A value that is missing here was counted as a failure by `run_one`.
        json::push_f64(&mut out, measured.get(metric.name).copied().unwrap_or(0.0));
        out.push_str(", ");
        json::push_key(&mut out, "unit");
        json::push_string(&mut out, metric.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// The metrics a mode reports, and the rows of `outcome` they come from.
fn mode_metrics(
    outcome: &Outcome,
    trace: bool,
) -> (Vec<spec::Metric>, &std::collections::BTreeMap<String, f64>) {
    if trace {
        (PER_LAYER.to_vec(), &outcome.per_layer)
    } else {
        (
            END_TO_END.iter().map(|(m, _)| *m).collect(),
            &outcome.end_to_end,
        )
    }
}

/// Count every metric of the mode that the run did not measure as a
/// failure: reported as 0 it would read as the best value a
/// lower-is-better metric can take. An end-to-end metric is never 0, so a
/// 0 there (no `/proc`, say) is unmeasured too.
fn fail_unmeasured(outcome: &mut Outcome, trace: bool) {
    let (table, measured) = mode_metrics(outcome, trace);
    let unmeasured: Vec<String> = table
        .iter()
        .filter(|m| match measured.get(m.name) {
            Some(value) => !value.is_finite() || (!trace && *value <= 0.0),
            None => true,
        })
        .map(|m| format!("no value measured for {}", m.name))
        .collect();
    outcome.failed += unmeasured.len() as u64;
    outcome.failures.extend(unmeasured);
}

/// `--workload`: run in this process.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::for_seconds(args.seconds.unwrap_or(FULL_SECONDS))
    };
    let load_at_start = host::load_average();
    let calibration_before = host::calibration_ms();
    let config = RunConfig {
        workload,
        seed: args.seed,
        scale,
        trace: args.trace,
        work_dir: out_dir(),
        corrupt_reference: false,
    };
    let mut outcome = run::run_workload(&config).map_err(|e| format!("{name}: {e}"))?;
    let calibration = (calibration_before, host::calibration_ms());
    if args.trace {
        // After the workload, so that its peak memory is its own.
        let walk = walk::run(scale.walk_calls, &config.work_dir);
        outcome
            .per_layer
            .extend(walk.map_err(|e| format!("walk: {e}"))?);
    }
    fail_unmeasured(&mut outcome, args.trace);
    for failure in &outcome.failures {
        eprintln!("e2e_bench: {name}: {failure}");
    }
    if let Some(path) = &args.report {
        let rows = workload_rows(&outcome, calibration, load_at_start);
        std::fs::write(path, rows.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", contract_line(&outcome, args.trace));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `--all` / `--smoke`: each workload in a child process of its own, so
/// that `setup_s` and `peak_rss_mib` belong to that workload alone.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or(FULL_SECONDS);
    let load_at_start = host::load_average();
    let mut result = Flat::default();
    host::record(&mut result, args.seed, run::CLIENTS, load_at_start);
    result.num("host.seconds_per_workload", seconds);
    result.flag("host.smoke", args.smoke);

    let mut all_correct = true;
    for workload in Workload::ALL {
        let report = dir.join(format!("{}.json", workload.name()));
        let _ = std::fs::remove_file(&report);
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload.name(), "--trace", "1"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--report")
            .arg(&report)
            .stdout(std::process::Stdio::null());
        if args.smoke {
            child.arg("--smoke");
        }
        eprintln!("e2e_bench: running {} ...", workload.name());
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let text = std::fs::read_to_string(&report)
            .map_err(|e| format!("{} left no report ({status}): {e}", workload.name()))?;
        let mut rows = report::parse_flat(&text);
        // The load average is judged once, before this command put any
        // load on the host; a child sees the load of its predecessors.
        let calibration = (
            rows.get("calibration_before_ms").copied().unwrap_or(0.0),
            rows.get("calibration_after_ms").copied().unwrap_or(0.0),
        );
        let noisy = host::is_noisy(calibration.0, calibration.1, load_at_start);
        rows.insert("noisy".into(), if noisy { 1.0 } else { 0.0 });
        all_correct &= status.success() && rows.get("correct") == Some(&1.0);
        print_workload(workload, &rows);
        result.extend_prefixed(workload.name(), &rows);
        let _ = std::fs::remove_file(&report);
    }
    let path = dir.join("result.json");
    std::fs::write(&path, result.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e_bench: a workload failed its correctness checks");
        ExitCode::from(1)
    })
}

/// Print every metric of one workload by name, with its unit.
fn print_workload(workload: Workload, rows: &std::collections::BTreeMap<String, f64>) {
    let get = |name: String| rows.get(&name).copied().unwrap_or(0.0);
    println!(
        "\n== {} ==  {}\n  correct {}  attempted {}  failed {}  noisy {}",
        workload.name(),
        workload.why(),
        get("correct".into()),
        get("attempted".into()),
        get("failed".into()),
        get("noisy".into()),
    );
    for (metric, bound) in END_TO_END {
        let value = get(format!("e2e.{}", metric.name));
        let spread = match (
            rows.get(&format!("spread.{}.q1", metric.name)),
            rows.get(&format!("spread.{}.q3", metric.name)),
        ) {
            (Some(q1), Some(q3)) => format!("  quartiles {q1:.3}..{q3:.3}"),
            _ => String::new(),
        };
        println!(
            "  {:<44} {:>16.3} {:<10} (bound {:.0}%){spread}",
            metric.name,
            value,
            metric.unit,
            bound * 100.0
        );
    }
    for metric in PER_LAYER {
        println!(
            "  {:<44} {:>16.3} {}",
            metric.name,
            get(format!("layer.{}", metric.name)),
            metric.unit
        );
    }
}

/// `--walk`: the layer walk alone.
fn run_walk() -> Result<ExitCode, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let rows = walk::run(Scale::for_seconds(FULL_SECONDS).walk_calls, &dir)
        .map_err(|e| format!("walk: {e}"))?;
    for metric in PER_LAYER {
        if let Some(value) = rows.get(metric.name) {
            println!("{:<44} {:>16.3} {}", metric.name, value, metric.unit);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `--compare`: judge `b` against `a`.
fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map(|text| report::parse_flat(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let (path_a, a, b) = (a, read(a)?, read(b)?);
    if let Some(why) = report::unfit_baseline(&a) {
        return Err(format!("{} is no baseline: {why}", path_a.display()));
    }
    let rows = report::compare(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no end-to-end metric".into());
    }
    print!("{}", report::render(&rows));
    for workload in Workload::ALL {
        if b.get(&format!("{}.noisy", workload.name())) == Some(&1.0) {
            println!("note: b flags {} as noisy", workload.name());
        }
    }
    let worse = rows.iter().any(|row| row.verdict == report::Verdict::Worse);
    Ok(if worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if let Some(name) = &args.workload {
            run_one(&args, name)
        } else if args.all {
            run_all(&args)
        } else if args.walk {
            run_walk()
        } else if let Some((a, b)) = &args.compare {
            run_compare(a, b)
        } else {
            unreachable!("parse_args accepts exactly one mode")
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e_bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_contract_invocation_parses() {
        let parsed = args(&[
            "--workload",
            "scan_thrash",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(parsed.workload.as_deref(), Some("scan_thrash"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (42, Some(10.0), true)
        );
        assert!(args(&["--all", "--walk"]).is_err(), "one mode at a time");
        assert!(
            args(&["--smoke"]).expect("valid").all,
            "--smoke alone means --all"
        );
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--compare", "a.json"]).is_err());
    }

    #[test]
    fn contract_line_carries_exactly_the_metrics_of_its_mode() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (metric, _) in END_TO_END {
            outcome.end_to_end.insert(metric.name.into(), 1.5);
        }
        for metric in PER_LAYER {
            outcome.per_layer.insert(metric.name.into(), 2.5);
        }
        let line = contract_line(&outcome, false);
        json::validate(&line).expect("valid JSON");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("serve.queue_wait_us"));
        let line = contract_line(&outcome, true);
        json::validate(&line).expect("valid JSON");
        assert!(line.contains("\"serve.queue_wait_us\": {\"value\": 2.5, \"unit\": \"us\"}"));
        assert!(!line.contains("setup_s"));
        outcome.failed = 1;
        assert!(contract_line(&outcome, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn an_unmeasured_metric_fails_the_run() {
        let mut outcome = Outcome::default();
        for (metric, _) in END_TO_END {
            outcome.end_to_end.insert(metric.name.into(), 1.5);
        }
        fail_unmeasured(&mut outcome, false);
        assert!(outcome.correct());
        // No /proc: the resident set reads 0, which must not pass for small.
        outcome.end_to_end.insert("peak_rss_mib".into(), 0.0);
        outcome.end_to_end.remove("setup_s");
        fail_unmeasured(&mut outcome, false);
        assert_eq!(outcome.failed, 2, "{:?}", outcome.failures);
        // A layer row may be 0 (no evictions), but not absent.
        let mut outcome = Outcome::default();
        for metric in PER_LAYER {
            outcome.per_layer.insert(metric.name.into(), 0.0);
        }
        fail_unmeasured(&mut outcome, true);
        assert!(outcome.correct());
        outcome.per_layer.remove("obs.spans_dropped");
        fail_unmeasured(&mut outcome, true);
        assert_eq!(outcome.failed, 1);
    }
}

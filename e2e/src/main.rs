//! `e2e`: the repository's end-to-end benchmark. Tables go in, ranked tables
//! come out, on TabBiN embeddings: generate → encode → store → engine →
//! wire. See README.md for the workloads, the metrics and the files written.

mod affinity;
mod inputs;
mod json;
mod loadgen;
mod metrics;
mod probes;
mod quality;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use metrics::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Args, Report, Sizes, Workload};

/// What `BENCHMARK.json` passes as `--seconds`; the sizes are calibrated
/// for it.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage: e2e --workload <ingest_bulk|search_cold|search_hot|mixed_rw|all> \
                     [--seed <u64>] [--seconds <1..60>] [--trace [0|1]]";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli =
        Cli { workloads: Vec::new(), seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                cli.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    one => vec![Workload::parse(one).ok_or(format!("unknown workload {one}"))?],
                };
            }
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&cli.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.in_order()
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The line the driver reads: the last of standard output.
fn result_line(report: &Report) -> String {
    let metrics = report.layers.as_ref().unwrap_or(&report.e2e);
    Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::U64(report.attempted)),
        ("failed", Json::U64(report.failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn result_file(report: &Report, workload: Workload, cli: &Cli, sizes: &Sizes) -> Json {
    let pairs = |items: &[(&'static str, f64)]| {
        Json::Obj(items.iter().map(|&(k, v)| (k.to_string(), Json::F64(v))).collect())
    };
    Json::obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::U64(cli.seed)),
        ("seconds", Json::F64(cli.seconds)),
        ("trace", Json::Bool(cli.trace)),
        ("input_digest", Json::str(format!("{:016x}", report.digest))),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::U64(report.attempted)),
        ("failed", Json::U64(report.failed)),
        (
            "checks",
            Json::Obj(
                report.checks.iter().map(|&(k, ok)| (k.to_string(), Json::Bool(ok))).collect(),
            ),
        ),
        ("end_to_end", metrics_json(&report.e2e)),
        ("per_layer", report.layers.as_ref().map_or(Json::Obj(Vec::new()), metrics_json)),
        ("notes", pairs(&report.notes)),
        (
            "config",
            Json::Obj(
                sut::config_echo()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v)))
                    .collect(),
            ),
        ),
        ("sizes", Json::str(format!("{sizes:?}"))),
        (
            "available_parallelism",
            Json::U64(std::thread::available_parallelism().map_or(0, |p| p.get() as u64)),
        ),
    ])
}

fn print_metrics(m: &Metrics) {
    for (name, value, unit) in m.in_order() {
        println!("{name} {value} {unit}");
    }
}

fn run_one(workload: Workload, cli: &Cli, out_dir: &Path, cpu: Option<usize>) -> bool {
    // Start the high-water mark afresh, so that `--workload all` reports
    // each workload's own peak. Best effort: the file may be read-only.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let sizes = Sizes::full(cli.seconds);
    let args =
        Args { workload, seed: cli.seed, trace: cli.trace, out_dir: out_dir.to_path_buf(), cpu };
    let report = workloads::run(&args, &sizes);

    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        cli.seed,
        cli.seconds,
        cli.trace
    );
    println!("input_digest {:016x}", report.digest);
    print_metrics(&report.e2e);
    if let Some(layers) = &report.layers {
        print_metrics(layers);
    }
    for (name, value) in &report.notes {
        println!("note {name} {value}");
    }
    for (name, ok) in &report.checks {
        println!("check {} : {name}", if *ok { "ok" } else { "FAILED" });
    }
    let stem = format!("{}-{}", workload.name(), cli.seed);
    let file = out_dir.join(format!("result-{stem}.json"));
    std::fs::write(&file, result_file(&report, workload, cli, &sizes).render() + "\n")
        .expect("write the result file");
    if let Some(tracer) = &report.tracer {
        tracer
            .write_jsonl(&out_dir.join(format!("trace-{stem}.jsonl")))
            .expect("write the trace file");
    }
    println!("{}", result_line(&report));
    report.correct()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = affinity::pin_to_one_cpu();
    match cpu {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("not pinned: the kernel refused; expect wider spreads"),
    }
    let keep_awake = affinity::KeepAwake::start();
    if keep_awake.is_none() {
        println!("no SCHED_IDLE spinner: the kernel refused; expect wider latency spreads");
    }
    let out_dir = PathBuf::from("target").join("e2e");
    let mut all_correct = true;
    for &workload in &cli.workloads {
        all_correct &= run_one(workload, &cli, &out_dir, cpu);
    }
    drop(keep_awake);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let c =
            cli(&["--workload", "search_hot", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .unwrap();
        assert_eq!(c.workloads, vec![Workload::SearchHot]);
        assert_eq!((c.seed, c.seconds, c.trace), (7, 12.0, true));
        let c = cli(&["--trace", "0", "--workload", "all"]).unwrap();
        assert_eq!(c.workloads.len(), 4);
        assert_eq!((c.seed, c.trace), (DEFAULT_SEED, false));
        assert!(cli(&["--workload", "mixed_rw", "--trace"]).unwrap().trace);
    }

    #[test]
    fn refuses_what_it_does_not_know() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--workload", "mixed_rw", "--seconds", "0"]).is_err());
        assert!(cli(&["--workload", "mixed_rw", "--bogus"]).is_err());
    }
}

//! The repository benchmark: end-to-end numbers from untraced runs and
//! per-layer numbers from a traced run, for one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fonts-disk --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it stamps the run with host, build and workload details.

mod e2e;
mod layers;
mod report;
mod scenario;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use scenario::Workload;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Where runs keep their index directories and span files, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => {
                let s = value.parse::<f64>()?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}").into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}").into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<()> {
    let args = parse_args(args)?;
    let name = args.workload.name();
    let out = Path::new(OUT_DIR);
    let scratch = out.join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let result = if args.trace {
        let spans = out.join(format!("spans-{name}-seed{}.jsonl", args.seed));
        layers::run(args.workload, args.seed, args.seconds, &scratch, &spans)
    } else {
        e2e::run(args.workload, args.seed, args.seconds, &scratch)
    };
    std::fs::remove_dir_all(&scratch)?;
    let outcome = result?;
    let expected = if args.trace { layers::METRICS } else { e2e::METRICS };
    let mut emitted: Vec<&str> = outcome.names().collect();
    let mut wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    emitted.sort_unstable();
    wanted.sort_unstable();
    if emitted != wanted {
        return Err(
            format!("emitted metrics {emitted:?} differ from the declared {wanted:?}").into()
        );
    }
    let (stamp, line) = outcome.lines()?;
    println!("{stamp}");
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "microbatch",
            "--seed",
            "9",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Workload::Microbatch);
        assert_eq!(args.seed, 9);
        assert_eq!(args.seconds, 15.0);
        assert!(args.trace);
        assert!(
            parse_args(&strings(&["--workload", "nope", "--seed", "1", "--seconds", "1"])).is_err()
        );
        assert!(parse_args(&strings(&["--workload", "microbatch", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "microbatch",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    /// The names in one section of BENCHMARK.json, in order.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_emit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads =
            &json[json.find("\"workloads\"").unwrap()..json.find("\"end_to_end\"").unwrap()];
        let e2e = &json[json.find("\"end_to_end\"").unwrap()..json.find("\"per_layer\"").unwrap()];
        let layers = &json[json.find("\"per_layer\"").unwrap()..];
        let declared: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names_in(workloads), declared);
        let declared: Vec<String> = e2e::METRICS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(e2e), declared);
        let declared: Vec<String> = layers::METRICS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(layers), declared);
        for (name, unit) in e2e::METRICS.iter().chain(layers::METRICS) {
            let entry = &json[json.find(&format!("\"name\": \"{name}\"")).unwrap()..];
            let entry = &entry[..entry.find('}').unwrap()];
            assert!(entry.contains(&format!("\"unit\": \"{unit}\"")), "{name} unit");
        }
    }
}

//! `xrd-perf`: run one workload, run them all, or compare two result
//! files.
//!
//! ```text
//! xrd-perf [run] --workload W --seed S --seconds N --trace 0|1 [--smoke] [--trace-out FILE]
//! xrd-perf all [--seed S] [--seconds N] [--runs R] [--trace 0|1|both] [--smoke] [--out FILE]
//! xrd-perf compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints every metric by name and unit on standard error and
//! the result object as the last line of standard output.

use std::process::{Command, ExitCode, Stdio};

use xrd_perf::json::Json;
use xrd_perf::{compare, env, result_json, run, spec};

/// Share of the opaque round the staged spans must account for on the
/// `round_*` workloads (ROADMAP item 1's target).
const MIN_ATTRIBUTED_SHARE: f64 = 0.95;

struct Args {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => parsed.smoke = true,
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    parsed.flags.push((name.to_string(), value));
                }
                None => parsed.positional.push(arg),
            }
        }
        Ok(parsed)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
        }
    }
}

fn usage() -> String {
    let workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: xrd-perf [run] --workload <{}> --seed N --seconds N --trace 0|1 [--smoke] [--trace-out FILE]\n\
         \x20      xrd-perf all [--seed N] [--seconds N] [--runs N] [--trace 0|1|both] [--smoke] [--out FILE]\n\
         \x20      xrd-perf compare A.json B.json [--benchmark BENCHMARK.json]",
        workloads.join("|")
    )
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let name = args.flag("workload").ok_or_else(usage)?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", 20.0)?;
    let traced = match args.flag("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: 0 or 1, not {other:?}")),
    };
    let out = run(name, seed, seconds, traced, args.smoke)
        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;

    let environment = env::describe(seed, &std::env::current_exe().unwrap_or_default());
    eprintln!(
        "xrd-perf {name} (trace {}): {}",
        traced as u8,
        environment.render()
    );
    let series: Vec<String> = out.round_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    eprintln!(
        "closed loop, round-synchronous, loopback only; n = {} measured rounds, ms: {}",
        out.round_ms.len(),
        series.join(" ")
    );
    let result = result_json(&out, traced);
    let specs = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    for m in specs {
        let value = out.metrics.get(m.name).unwrap_or(0.0);
        eprintln!("  {:<40} {value:>16.4} {}", m.name, m.unit);
    }
    eprintln!(
        "  {:<40} {:>16.6} ratio ({} of {} deliveries failed)",
        "fail_share",
        out.tally.fail_share(),
        out.tally.failed,
        out.tally.attempted
    );
    for note in &out.tally.notes {
        eprintln!("  ! {note}");
    }

    if let (Some(path), Some(tracer)) = (args.flag("trace-out"), &out.tracer) {
        std::fs::write(path, tracer.chrome_json().render())
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
    }
    let mut ok = out.tally.failed == 0;
    if traced && name.starts_with("round_") && !args.smoke {
        let share = out.metrics.get("trace.attributed_share").unwrap_or(0.0);
        if share < MIN_ATTRIBUTED_SHARE {
            eprintln!(
                "FAILED: spans account for {:.1} % of the opaque round, under {:.0} %",
                share * 100.0,
                MIN_ATTRIBUTED_SHARE * 100.0
            );
            ok = false;
        }
    }
    println!("{}", result.render());
    Ok(ok)
}

/// Run every workload `--runs` times, each run in a process of its own
/// (peak memory and the program's registry are per process), seeds
/// counting up from `--seed`.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("seed", 1)?;
    let runs: u64 = args.number("runs", 1)?;
    let seconds = args.flag("seconds").unwrap_or("20");
    let traces: &[&str] = match args.flag("trace").unwrap_or("both") {
        "0" => &["0"],
        "1" => &["1"],
        "both" => &["0", "1"],
        other => return Err(format!("--trace: 0, 1 or both, not {other:?}")),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut ok = true;
    for i in 0..runs {
        for w in spec::WORKLOADS {
            for trace in traces {
                let run_seed = (seed + i).to_string();
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--seed", &run_seed])
                    .args(["--seconds", seconds, "--trace", trace])
                    .stdout(Stdio::piped());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let child = cmd.output().map_err(|e| e.to_string())?;
                ok &= child.status.success();
                let stdout = String::from_utf8_lossy(&child.stdout);
                let line = stdout.lines().last().unwrap_or("");
                println!("{line}");
                let Ok(Json::Obj(mut result)) = Json::parse(line) else {
                    return Err(format!("{} printed no result", w.name));
                };
                result.insert("workload".into(), Json::Str(w.name.into()));
                result.insert("seed".into(), Json::Num((seed + i) as f64));
                result.insert(
                    "trace".into(),
                    Json::Num(if *trace == "1" { 1.0 } else { 0.0 }),
                );
                results.push(Json::Obj(result));
            }
        }
    }
    if let Some(path) = args.flag("out") {
        let doc = Json::obj([
            ("env", env::describe(seed, &exe)),
            ("seconds", Json::Str(seconds.into())),
            ("runs", Json::Arr(results)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("--out {path}: {e}"))?;
    }
    Ok(ok)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(usage());
    };
    compare::compare(args.flag("benchmark").unwrap_or("BENCHMARK.json"), a, b)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None | Some("run") => cmd_run(&args),
            Some("all") => cmd_all(&args),
            Some("compare") => cmd_compare(&args),
            Some(other) => Err(format!("unknown command {other:?}\n{}", usage())),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

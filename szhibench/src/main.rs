//! The szhi benchmark.
//!
//! ```text
//! szhibench --workload <smooth_batch|mixed_tuned|stream_serve> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the end-to-end pass (telemetry off) and
//! reports the end-to-end metrics; with `--trace 1` it runs the traced
//! pass and reports the per-layer metrics. It prints the environment, a
//! table of every metric with its unit, and, as the last line of
//! standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Every output is
//! checked; a failed check is counted and makes `correct` false, it does
//! not abort the run. `METRICS.md` lists the metrics and what each
//! should move.

mod e2e;
mod env;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("szhibench: {e}");
            eprintln!("usage: szhibench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let threads = w.threads(env::nproc());
    let pass = if args.trace { "traced" } else { "end-to-end" };
    let report = if args.trace {
        trace::run(w, args.seed, args.seconds)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    let field_bytes = w.field_dims().nbytes_f32();
    println!("szhibench {} seed {} ({pass} pass)", w.name(), args.seed);
    println!("env {}", env::record(threads, field_bytes));
    print!("{}", report.table());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

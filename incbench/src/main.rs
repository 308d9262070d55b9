//! Command-line entry point:
//!
//! ```text
//! incbench --workload <serve_mlagg|serve_kvs|churn_pool|churn_quote> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), the
//! output digest and any check violation, then — as the last line — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.  Exits
//! non-zero when a check fails.

use incbench::{run, Queueing, RunConfig, Scale, WorkloadKind};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("{message}");
    eprintln!("usage: incbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        match args[i].as_str() {
            "--workload" => match WorkloadKind::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let config = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        queueing: Queueing::Backpressure,
        trace_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let result = run(&config);

    for m in &result.metrics {
        println!("{:<36} {:>16.6} {:<6} samples={}", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "host reference {:.4} ms (caller core), {:.4} ms (engine core) over {} readings; \
         timings and rates are scaled to {} ms",
        result.host.caller_ms,
        result.host.engine_ms,
        result.host.readings,
        incbench::host::REFERENCE_MS
    );
    println!("digest {:016x}", result.digest);
    for v in &result.violations {
        println!("violation: {v}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        metrics.join(",")
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

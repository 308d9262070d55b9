//! The benchmark's own tests: smoke-size runs of every workload pass their
//! output checks, repeat their digest at a fixed seed, and report overload
//! as failures.
//!
//! Run with `cargo test --release --manifest-path incbench/Cargo.toml`.

use incbench::{run, Queueing, RunConfig, RunResult, Scale, WorkloadKind};
use std::path::PathBuf;

fn config(workload: WorkloadKind, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
        queueing: Queueing::Backpressure,
        trace_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload:?}-{seed}-{trace}")),
    }
}

fn assert_clean(result: &RunResult, what: &str) {
    assert!(result.correct(), "{what}: {:?}", result.violations);
    assert_eq!(result.failed, 0, "{what}: nothing fails");
    assert!(result.attempted > 0, "{what}: work was attempted");
    let p = result.packets;
    assert!(p.offered > 0 && p.completed == p.offered && p.shed == 0, "{what}: {p:?}");
}

const END_TO_END: [&str; 10] = [
    "pps",
    "setup_s",
    "peak_rss_mb",
    "deploy_p50_ms",
    "deploy_p90_ms",
    "quote_p50_ms",
    "quote_p90_ms",
    "remove_p50_ms",
    "remove_p90_ms",
    "arrivals_per_s",
];

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in WorkloadKind::ALL {
        let result = run(&config(workload, 7, false));
        assert_clean(&result, workload.name());
        for name in END_TO_END {
            let m = result.metric(name).unwrap_or_else(|| panic!("{}: {name}", workload.name()));
            assert!(m.value > 0.0, "{}: {name} is never 0", workload.name());
        }
        assert_eq!(result.metrics.len(), END_TO_END.len());
    }
}

#[test]
fn traced_runs_report_the_layer_split() {
    for workload in WorkloadKind::ALL {
        let cfg = config(workload, 7, true);
        let result = run(&cfg);
        assert_clean(&result, workload.name());
        for name in ["emulator.vm.exec_us.p50", "frontend.compile_ms.p50", "synthesis.image_instrs"]
        {
            let m = result.metric(name).unwrap_or_else(|| panic!("{}: {name}", workload.name()));
            assert!(m.value > 0.0, "{}: {name} measured", workload.name());
        }
        assert!(result.metric("core.commit_growth").is_some());
        assert!(result.metric("pps").is_none(), "end-to-end metrics come from the untraced run");
        std::fs::remove_dir_all(&cfg.trace_dir).ok();
    }
}

#[test]
fn a_seed_fixes_the_output_digest_and_another_seed_changes_it() {
    for workload in WorkloadKind::ALL {
        let a = run(&config(workload, 3, false));
        let b = run(&config(workload, 3, false));
        let c = run(&config(workload, 4, false));
        assert_clean(&c, workload.name());
        assert_eq!(a.digest, b.digest, "{}: same seed, same outputs", workload.name());
        assert_ne!(a.digest, c.digest, "{}: another seed, another stream", workload.name());
    }
}

#[test]
fn an_undersized_drop_tail_queue_is_counted_as_failures() {
    let mut cfg = config(WorkloadKind::ServeMlagg, 7, false);
    cfg.queueing = Queueing::DropTail(64);
    let result = run(&cfg);
    assert!(result.failed > 0, "shed packets are failures");
    assert!(!result.correct(), "a shed packet breaks completed == offered");
    let p = result.packets;
    assert!(p.shed > 0 && p.completed < p.offered, "{p:?}: packets were shed");
    assert_eq!(p.completed + p.shed, p.offered, "shed packets are not counted as served");
    assert!(result.failed >= p.shed, "every shed packet is a failure");
}

#[test]
fn traces_are_written_out() {
    let cfg = config(WorkloadKind::ServeKvs, 9, true);
    run(&cfg);
    let path: PathBuf = cfg.trace_dir.join("serve_kvs-9.jsonl");
    let text = std::fs::read_to_string(&path).expect("trace written");
    assert!(text.lines().count() > 10);
    assert!(text.contains("\"name\":\"runtime.shard.drain\""));
    std::fs::remove_dir_all(&cfg.trace_dir).ok();
}

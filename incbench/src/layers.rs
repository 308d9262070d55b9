//! The traced run's per-layer metrics, derived from the recorded spans and
//! the counters the service exports.

use crate::control::ControlLog;
use crate::stats::{median, push_p50_p99, Metric};
use crate::trace::Tracer;
use clickinc::PlannerStats;
use std::collections::BTreeSet;

/// Data-plane spans, reported per packet in microseconds.
const PACKET_LAYERS: [(&str, &str); 5] = [
    ("runtime.workload.gen", "runtime.workload.gen_us"),
    ("runtime.engine.inject", "runtime.engine.inject_us"),
    ("runtime.shard.drain", "runtime.shard.drain_us"),
    ("emulator.vm.exec", "emulator.vm.exec_us"),
    ("emulator.packet.clone", "emulator.packet.clone_us"),
];

/// Control-plane spans, reported per call in milliseconds.
const CALL_LAYERS: [(&str, &str); 15] = [
    ("frontend.compile", "frontend.compile_ms"),
    ("synthesis.isolate", "synthesis.isolate_ms"),
    ("ir.optimize", "ir.optimize_ms"),
    ("blockdag.build", "blockdag.build_ms"),
    ("topology.reduce", "topology.reduce_ms"),
    ("placement.solve", "placement.solve_ms"),
    ("ir.verify", "ir.verify_ms"),
    ("core.plan", "core.plan_ms"),
    ("core.commit", "core.commit_ms"),
    ("core.remove", "core.remove_ms"),
    ("synthesis.add", "synthesis.add_ms"),
    ("synthesis.remove", "synthesis.remove_ms"),
    ("emulator.plane_install", "emulator.plane_install_ms"),
    ("backend.generate", "backend.generate_ms"),
    ("runtime.engine.add_tenant", "runtime.engine.add_tenant_ms"),
];

/// Counters gathered outside the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub backpressure_waits: u64,
    pub queue_depth_hwm: u64,
    pub planner: PlannerStats,
    pub image_instrs: usize,
    /// Traced end-to-end result over the untraced one, minus 1 (the
    /// workload's headline metric, in its "worse" direction).
    pub trace_overhead: f64,
}

pub fn per_layer(tracer: &Tracer, log: &ControlLog, counters: &Counters) -> Vec<Metric> {
    let mut out = Vec::new();
    for (span, name) in PACKET_LAYERS {
        push_p50_p99(&mut out, name, &tracer.per_item_us(span), "us");
    }
    // the shard's drain minus the VM's share: the drain span's self time
    let self_ms = tracer.self_times_ms();
    let overhead: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "runtime.shard.drain")
        .map(|s| self_ms[s.id as usize] * 1e3 / f64::from(s.items))
        .collect();
    push_p50_p99(&mut out, "runtime.shard.overhead_us", &overhead, "us");
    out.push(Metric::new(
        "runtime.shard.backpressure_waits",
        counters.backpressure_waits as f64,
        "count",
        1,
    ));
    out.push(Metric::new(
        "runtime.shard.queue_depth_hwm",
        counters.queue_depth_hwm as f64,
        "count",
        1,
    ));

    for (span, name) in CALL_LAYERS {
        push_p50_p99(&mut out, name, &tracer.durations_ms(span), "ms");
    }

    // coverage: what the replayed layers leave unexplained of each direct
    // admission's plan + commit
    let committed: BTreeSet<u64> =
        tracer.spans().iter().filter(|s| s.name == "core.commit").map(|s| s.subject).collect();
    let unattributed = tracer.self_time_by_subject(&["core.plan", "core.commit"]);
    let unattributed: Vec<f64> = unattributed
        .iter()
        .filter(|(subject, _)| committed.contains(subject))
        .map(|(_, ms)| *ms)
        .collect();
    let total: f64 = tracer
        .spans()
        .iter()
        .filter(|s| {
            (s.name == "core.plan" || s.name == "core.commit") && committed.contains(&s.subject)
        })
        .map(|s| s.duration_ms())
        .sum();
    push_p50_p99(&mut out, "core.unattributed_ms", &unattributed, "ms");
    let share = if total > 0.0 { unattributed.iter().sum::<f64>() / total } else { 0.0 };
    out.push(Metric::new("core.unattributed_share", share, "ratio", unattributed.len()));

    // commit spans are recorded in arrival order
    let commit_ms = tracer.durations_ms("core.commit");
    out.push(Metric::new(
        "core.commit_growth",
        commit_growth(&commit_ms),
        "ratio",
        commit_ms.len(),
    ));
    let memo_total = log.memo.hits + log.memo.misses;
    out.push(Metric::new(
        "placement.memo_hit_ratio",
        log.memo.hit_ratio(),
        "ratio",
        memo_total as usize,
    ));
    let lookups = counters.planner.cache_hits + counters.planner.cache_misses;
    let plan_hits =
        if lookups > 0 { counters.planner.cache_hits as f64 / lookups as f64 } else { 0.0 };
    out.push(Metric::new("core.plan_cache_hit_ratio", plan_hits, "ratio", lookups as usize));
    out.push(Metric::new("synthesis.image_instrs", counters.image_instrs as f64, "count", 1));
    out.push(Metric::new("core.policy.refusals", log.refusals as f64, "count", 1));
    out.push(Metric::new(
        "core.retry.admitted_from_queue",
        log.admitted_from_queue as f64,
        "count",
        1,
    ));
    out.push(Metric::new("trace.overhead_ratio", counters.trace_overhead, "ratio", 1));
    out
}

/// Median commit time of the last tenth of admissions over the first
/// tenth: about 1 when commit cost does not depend on history.
pub fn commit_growth(commit_ms: &[f64]) -> f64 {
    let tenth = (commit_ms.len() / 10).max(1);
    if commit_ms.len() < 2 {
        return 1.0;
    }
    let first = median(&commit_ms[..tenth]);
    let last = median(&commit_ms[commit_ms.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

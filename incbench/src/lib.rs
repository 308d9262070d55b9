//! incbench — the ClickINC service benchmark.
//!
//! Four workloads drive the public service API end to end from one process:
//! two serving workloads (`serve_mlagg`, `serve_kvs`) that push packets
//! through the sharded engine, and two tenant-churn workloads
//! (`churn_pool`, `churn_quote`) that push programs through the control
//! plane.  Every run checks its outputs and reports the end-to-end metrics
//! (untraced) or the per-layer split (traced).  See `README.md` beside this
//! crate for what each workload and metric is for.

pub mod apps;
pub mod churn;
pub mod control;
pub mod dataplane;
pub mod host;
pub mod layers;
pub mod mirror;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::Metric;
use std::path::PathBuf;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    ServeMlagg,
    ServeKvs,
    ChurnPool,
    ChurnQuote,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::ServeMlagg,
        WorkloadKind::ServeKvs,
        WorkloadKind::ChurnPool,
        WorkloadKind::ChurnQuote,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ServeMlagg => "serve_mlagg",
            WorkloadKind::ServeKvs => "serve_kvs",
            WorkloadKind::ChurnPool => "churn_pool",
            WorkloadKind::ChurnQuote => "churn_quote",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark proper; `Smoke` is a seconds-long
/// version of the same workloads for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Engine knobs a test may override; the benchmark proper uses the
/// defaults (backpressured default-depth queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Queueing {
    /// Default queue depth, injector stalls when full.
    Backpressure,
    /// Drop-tail queue of the given depth (sheds when full).
    DropTail(usize),
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub queueing: Queueing,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// Packet totals of a run's traffic (serving: the measured passes; churn:
/// the probes on the measuring service).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Packets {
    pub offered: u64,
    /// Completed, as the engine's per-tenant telemetry counts them.
    pub completed: u64,
    /// Refused at injection by a full drop-tail queue.
    pub shed: u64,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub packets: Packets,
    pub metrics: Vec<Metric>,
    /// Check violations; the run is correct iff this is empty.
    pub violations: Vec<String>,
    /// Digest of the run's deterministic outputs: equal for two runs at
    /// the same seed.
    pub digest: u64,
    /// The host meter's readings, to which the timings are scaled.
    pub host: host::HostSpeed,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

pub fn run(config: &RunConfig) -> RunResult {
    match config.workload {
        WorkloadKind::ServeMlagg | WorkloadKind::ServeKvs => serve::run(config),
        WorkloadKind::ChurnPool | WorkloadKind::ChurnQuote => churn::run(config),
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The ten end-to-end metrics, in `BENCHMARK.json` order.  A call's tail
/// is its p90, not its p99: the host's bursts of other work land on about
/// one call in a hundred, so that across runs the p99 followed the bursts
/// (by up to twice its median in busy hours) while the p90 stayed within a
/// tenth.  The traced run keeps every layer's p99.
pub fn end_to_end(
    log: &control::ControlLog,
    pps: (f64, usize),
    setup_s: &[f64],
    arrivals_per_s: f64,
) -> Vec<Metric> {
    let p50 = |v: &[f64]| stats::median(v);
    let p90 = |v: &[f64]| stats::percentile_of(v, 90.0);
    let (quote, deploy, remove) = (&log.quote_ms, &log.deploy_ms, &log.remove_ms);
    vec![
        Metric::new("pps", pps.0, "1/s", pps.1),
        Metric::new("setup_s", stats::median(setup_s), "s", setup_s.len()),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        Metric::new("deploy_p50_ms", p50(deploy), "ms", deploy.len()),
        Metric::new("deploy_p90_ms", p90(deploy), "ms", deploy.len()),
        Metric::new("quote_p50_ms", p50(quote), "ms", quote.len()),
        Metric::new("quote_p90_ms", p90(quote), "ms", quote.len()),
        Metric::new("remove_p50_ms", p50(remove), "ms", remove.len()),
        Metric::new("remove_p90_ms", p90(remove), "ms", remove.len()),
        Metric::new("arrivals_per_s", arrivals_per_s, "1/s", log.arrivals as usize),
    ]
}

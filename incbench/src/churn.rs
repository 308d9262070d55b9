//! The tenant-churn workloads, `churn_pool` and `churn_quote`.
//!
//! `churn_pool`: arrivals cycle the six template shapes of the repository's
//! churn scenario under fresh names and are deployed with
//! `ClickIncService::deploy_or_queue` under a `MaxTenants` cap of 48 (and
//! quoted after it, see `control`).  A refusal (the arrival is queued)
//! makes the four oldest residents depart; the first removal's retry drain
//! admits the queued arrival.
//!
//! `churn_quote`: every arrival is a distinct program drawn from the seed,
//! quoted with `Planner::plan` and committed with `Planner::deploy` (the
//! plan-cache path); the oldest resident departs once there are more than
//! four.
//!
//! Both are closed loops with one caller.  Set-up (repeated; median
//! reported) starts the service and fills it: to the cap for `churn_pool`,
//! to four residents for `churn_quote`.  The measured phase then handles a
//! fixed number of arrivals, not a fixed time: commit cost grows with the
//! number of tenants ever deployed, so a time-bounded run would carry a
//! history as long as the program is fast, and the history would hide the
//! gain.  Every admitted tenant — directly
//! or from the queue — then serves a 256-packet probe of its own
//! application, which must complete in full: that proves it is serving and
//! gives the data plane's rate under churn.
//!
//! Checks: committed plans equal their quotes; every probe completes; at the
//! end the service's active users equal the benchmark's resident list and
//! the retry queue is empty; removing every resident restores the initial
//! remaining-resource ratio.

use crate::apps::{self, Arrival};
use crate::control::{Control, DeployPath, Outcome};
use crate::dataplane;
use crate::host::{self, HostSpeed, Meter, Scales};
use crate::layers::{self, Counters};
use crate::stats::{median, Metric, SplitMix64};
use crate::trace::Tracer;
use crate::{end_to_end, Packets, Queueing, RunConfig, RunResult, Scale, WorkloadKind};
use clickinc::runtime::{EngineConfig, ExecMode, OverloadPolicy};
use clickinc::topology::Topology;
use clickinc::{ClickIncService, MaxTenants};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const POOL_CAP: usize = 48;
const QUOTE_RESIDENTS: usize = 4;
/// The fill of `churn_quote`'s set-up is drawn from this fixed seed, so
/// that `setup_s` does the same work at every workload seed.
const FILL_SEED: u64 = 0x5e7;
/// Residents that depart when `churn_pool` refuses an arrival.
const POOL_DEPARTURES: usize = 4;

/// Wall-time guard on the measured phase, far above what the arrival
/// count takes; a run that reaches it stops early and says so on standard
/// error (its sample counts show it too).
const MEASURE_CAP: Duration = Duration::from_secs(120);

/// Arrivals of the measured phase.  `churn_pool` admits three of every
/// four directly (the fourth is refused, queued, and admitted by the drain
/// its departures trigger), so 1360 arrivals give it 1020 timed deploys:
/// ten samples beyond the traced run's `core.commit_ms.p99`, and a
/// deployment history that grows well past the set-up's.  `churn_quote`
/// admits every arrival.
fn measured_arrivals(config: &RunConfig) -> u64 {
    match (config.scale, config.workload) {
        (Scale::Smoke, _) => 16,
        (Scale::Full, WorkloadKind::ChurnPool) => 1360,
        (Scale::Full, _) => 1100,
    }
}

/// The probe traffic sent to admitted tenants.
#[derive(Debug, Default)]
struct Probes {
    /// Packets probes have sent so far (the next stream index).
    offered: u64,
    shed: u64,
    /// Completed packets per wall-second of each probe.
    rates: Vec<f64>,
    /// Per tenant of the current service: packets sent and completed.
    sent: BTreeMap<String, Tally>,
    backpressure_waits: u64,
    queue_depth_hwm: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    completed: u64,
}

struct ChurnRun {
    control: Control,
    tracer: Tracer,
    setup_s: Vec<f64>,
    /// Caller time of the measured arrivals, at reference host speed.
    measured: Duration,
    /// The host meter's current scales, and its readings at the end.
    scales: Scales,
    host: HostSpeed,
    measured_arrivals: u64,
    arrivals: u64,
    probes: Probes,
    probe_packets: usize,
    left_queued: u64,
    violations: Vec<String>,
    counters: Counters,
}

fn new_service(kind: WorkloadKind, queueing: Queueing) -> ClickIncService {
    let mut config = EngineConfig {
        shards: 1,
        batch_size: 256,
        exec_mode: ExecMode::Compiled,
        ..Default::default()
    };
    match queueing {
        Queueing::Backpressure => {
            config.overload = OverloadPolicy::Backpressure { credits: usize::MAX }
        }
        Queueing::DropTail(depth) => {
            config.queue_capacity = depth;
            config.overload = OverloadPolicy::DropTail;
        }
    }
    let service = host::spawn_engine(|| {
        ClickIncService::with_config(Topology::emulation_topology_all_tofino(), config)
    })
    .expect("the engine configuration is valid");
    if kind == WorkloadKind::ChurnPool {
        service.set_admission_policy(MaxTenants { max_tenants: POOL_CAP });
    }
    service
}

impl ChurnRun {
    fn set_scales(&mut self, scales: Scales) {
        self.scales = scales;
        self.control.log.scale = scales.caller;
    }

    fn arrival(&self, kind: WorkloadKind, rng: &mut SplitMix64, index: u64) -> Arrival {
        match kind {
            WorkloadKind::ChurnPool => apps::pool_arrival(index),
            _ => apps::distinct_arrival(rng, index),
        }
    }

    /// One arrival and whatever it triggers (departures, drains, probes).
    fn step(
        &mut self,
        service: &ClickIncService,
        kind: WorkloadKind,
        seed: u64,
        index: u64,
        arrival: Arrival,
    ) {
        self.arrivals += 1;
        match self.control.arrive(service, &mut self.tracer, index, arrival) {
            Outcome::Admitted(user) => self.probe(service, seed, index, &user),
            Outcome::Refused => {
                for _ in 0..POOL_DEPARTURES {
                    for user in self.control.depart_oldest(service, &mut self.tracer, index) {
                        self.probe(service, seed, index, &user);
                    }
                }
            }
            Outcome::Failed => {}
        }
        if kind == WorkloadKind::ChurnQuote {
            while self.control.residents().len() > QUOTE_RESIDENTS {
                self.control.depart_oldest(service, &mut self.tracer, index);
            }
        }
    }

    /// Serve a probe of the tenant's own application and check that every
    /// packet completed.
    fn probe(&mut self, service: &ClickIncService, seed: u64, index: u64, user: &str) {
        let (numeric_id, hops) = {
            let controller = service.controller();
            (
                controller.numeric_id_of(user).expect("probed tenant is deployed"),
                controller.tenant_hops(user),
            )
        };
        let app = self.control.app_of(user);
        let mut workload =
            apps::generator(app, user, numeric_id, self.probe_packets, seed ^ (index << 20));
        let chunks = dataplane::generate(
            &mut self.tracer,
            workload.as_mut(),
            self.probe_packets,
            self.probes.offered,
        );
        self.control.note(index, || dataplane::digest(&chunks));
        let handle = service.engine_handle();
        let started = Instant::now();
        for chunk in &chunks {
            let outcome = dataplane::send(
                &handle,
                &mut self.tracer,
                self.control.mirror.as_mut(),
                &hops,
                chunk,
            );
            self.probes.shed += outcome.shed as u64;
        }
        handle.flush();
        let n: u64 = chunks.iter().map(|c| c.jobs.len() as u64).sum();
        let elapsed = started.elapsed().as_secs_f64() * self.scales.engine;
        self.probes.rates.push(n as f64 / elapsed);
        self.probes.offered += n;
        let telemetry = handle.telemetry();
        let stats = telemetry.tenant(user);
        let tally = self.probes.sent.entry(user.to_string()).or_default();
        tally.sent += n;
        tally.completed = stats.map_or(0, |s| s.completed);
        let sent = tally.sent;
        match stats {
            Some(stats) if stats.completed == sent => {
                for value in [stats.hits, stats.drops, stats.to_server] {
                    self.control.note(index, || value);
                }
                self.probes.backpressure_waits += stats.backpressure_waits;
                self.probes.queue_depth_hwm =
                    self.probes.queue_depth_hwm.max(stats.queue_depth_hwm);
            }
            other => self.violations.push(format!(
                "{user}: {} of {sent} probe packets completed",
                other.map_or(0, |s| s.completed)
            )),
        }
    }
}

/// A set-up round's service, the next arrival index and the service's
/// initial remaining-resource ratio.
struct Filled {
    service: ClickIncService,
    index: u64,
    initial_ratio: f64,
}

impl ChurnRun {
    fn new(config: &RunConfig, traced: bool, digest_limit: u64) -> ChurnRun {
        let path = match config.workload {
            WorkloadKind::ChurnPool => DeployPath::OrQueue,
            _ => DeployPath::Planner,
        };
        ChurnRun {
            control: Control::new(path, digest_limit),
            tracer: Tracer::new(traced),
            setup_s: Vec::new(),
            measured: Duration::ZERO,
            scales: Scales { caller: 1.0, engine: 1.0 },
            host: HostSpeed::default(),
            measured_arrivals: 0,
            arrivals: 0,
            probes: Probes::default(),
            probe_packets: match config.scale {
                Scale::Full => 256,
                Scale::Smoke => 32,
            },
            left_queued: 0,
            violations: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// One timed set-up round: a fresh service filled from the fixed fill
    /// seed (to the cap, or to four residents), its time scaled to
    /// reference host speed.
    fn set_up(&mut self, config: &RunConfig) -> Filled {
        let kind = config.workload;
        let fill = match kind {
            WorkloadKind::ChurnPool => POOL_CAP,
            _ => QUOTE_RESIDENTS,
        };
        let started = Instant::now();
        let service = new_service(kind, config.queueing);
        self.control.reset(&service, &self.tracer);
        self.probes.sent.clear();
        self.probes.shed = 0;
        let initial_ratio = service.remaining_resource_ratio();
        let mut rng = SplitMix64::new(FILL_SEED);
        let mut index = 0u64;
        while self.control.residents().len() < fill && index < 4 * fill as u64 {
            let arrival = self.arrival(kind, &mut rng, index);
            self.step(&service, kind, config.seed, index, arrival);
            index += 1;
        }
        self.setup_s.push(started.elapsed().as_secs_f64() * self.scales.caller);
        Filled { service, index, initial_ratio }
    }
}

/// Set-up rounds before the measured phase (the last one churns) and
/// during it.  Those during it run on fresh services with a throwaway
/// client, spread evenly over the arrivals, so that `setup_s` samples the
/// whole run: the host's speed drifts over seconds.
fn set_up_rounds(config: &RunConfig) -> (usize, u64) {
    match (config.scale, config.workload) {
        (Scale::Smoke, _) => (2, 1),
        (Scale::Full, WorkloadKind::ChurnPool) => (3, 8),
        (Scale::Full, _) => (5, 20),
    }
}

fn churn_run(config: &RunConfig, traced: bool, arrivals: u64, during: u64) -> ChurnRun {
    let kind = config.workload;
    let fill = match kind {
        WorkloadKind::ChurnPool => POOL_CAP,
        _ => QUOTE_RESIDENTS,
    };
    let digest_extra = match config.scale {
        Scale::Full => 64,
        Scale::Smoke => 2,
    };
    let mut s = ChurnRun::new(config, traced, (fill + digest_extra) as u64);
    let mut meter = Meter::new();
    let (before, _) = set_up_rounds(config);

    // ---- set-up, repeated; the last one churns ----
    let mut kept = None;
    for rep in 0..before {
        s.set_scales(meter.tick());
        let filled = s.set_up(config);
        if rep + 1 < before {
            teardown(&mut s, &filled.service, filled.initial_ratio);
            filled.service.finish();
        } else {
            kept = Some(filled);
        }
    }
    let Filled { service, mut index, initial_ratio } = kept.expect("at least one set-up round");
    let mut rng = SplitMix64::new(config.seed);

    // ---- measured phase: samples start here ----
    s.control.log.restart();
    s.tracer = Tracer::new(traced);
    s.probes.rates.clear();
    let probes_before = s.probes.offered;
    let planner_before = service.planner_stats();
    let started = Instant::now();
    while s.measured_arrivals < arrivals {
        // the host meter reads between arrivals, with nothing in flight
        s.set_scales(meter.tick());
        if (s.setup_s.len() - before) as u64 * arrivals < during * s.measured_arrivals {
            let mut client = ChurnRun::new(config, false, 0);
            client.set_scales(s.scales);
            let filled = client.set_up(config);
            teardown(&mut client, &filled.service, filled.initial_ratio);
            filled.service.finish();
            s.setup_s.append(&mut client.setup_s);
            s.violations.append(&mut client.violations);
            s.violations.append(&mut client.control.log.violations);
        }
        if started.elapsed() > MEASURE_CAP {
            eprintln!(
                "stopped after {} of {arrivals} arrivals: the measured phase took over {} s",
                s.measured_arrivals,
                MEASURE_CAP.as_secs()
            );
            break;
        }
        let arrival = s.arrival(kind, &mut rng, index);
        let t = Instant::now();
        s.step(&service, kind, config.seed, index, arrival);
        s.measured += t.elapsed().mul_f64(s.scales.caller);
        index += 1;
        s.measured_arrivals += 1;
    }
    s.host = meter.speed();
    s.probes.offered -= probes_before;

    // ---- checks and counters ----
    s.control.check_residents(&service);
    s.left_queued = service.retry_queue_len() as u64;
    let planner = service.planner_stats();
    s.counters = Counters {
        backpressure_waits: s.probes.backpressure_waits,
        queue_depth_hwm: s.probes.queue_depth_hwm,
        planner: clickinc::PlannerStats {
            cache_hits: planner.cache_hits - planner_before.cache_hits,
            cache_misses: planner.cache_misses - planner_before.cache_misses,
            ..planner
        },
        image_instrs: s.control.mirror.as_ref().map_or(0, |m| m.image_instrs()),
        trace_overhead: 0.0,
    };
    let metrics_log_len = s.control.log.remove_ms.len();
    teardown(&mut s, &service, initial_ratio);
    s.control.log.remove_ms.truncate(metrics_log_len);
    service.finish();
    s
}

/// Remove every resident and check that the service is back where it
/// started.
fn teardown(s: &mut ChurnRun, service: &ClickIncService, initial_ratio: f64) {
    let mut off = Tracer::new(false);
    s.control.remove_all(service, &mut off, u64::MAX);
    if service.remaining_resource_ratio() != initial_ratio {
        s.violations.push("removing every resident did not restore the resource ratio".into());
    }
    if !service.active_users().is_empty() {
        s.violations.push("users remain active after removing every resident".into());
    }
}

pub fn run(config: &RunConfig) -> RunResult {
    let arrivals = measured_arrivals(config);
    let (mut s, overhead) = if config.trace {
        // the traced run, then the first quarter of it again untraced on a
        // fresh service: the same arrivals meet the same history, so the
        // deploys of that quarter compare one to one
        let mut traced = churn_run(config, true, arrivals, 0);
        let mut untraced = churn_run(config, false, arrivals.div_ceil(4), 0);
        let base = &untraced.control.log.deploy_ms;
        let deploys = &traced.control.log.deploy_ms;
        let overhead = median(&deploys[..base.len().min(deploys.len())]) / median(base) - 1.0;
        traced.violations.append(&mut untraced.violations);
        traced.violations.append(&mut untraced.control.log.violations);
        (traced, overhead)
    } else {
        let (_, during) = set_up_rounds(config);
        (churn_run(config, false, arrivals, during), 0.0)
    };
    s.counters.trace_overhead = overhead;

    let mut violations = std::mem::take(&mut s.violations);
    violations.append(&mut s.control.log.violations);
    let metrics: Vec<Metric> = if config.trace {
        let path =
            config.trace_dir.join(format!("{}-{}.jsonl", config.workload.name(), config.seed));
        if let Err(err) = s.tracer.dump(&path) {
            eprintln!("could not write {}: {err}", path.display());
        }
        layers::per_layer(&s.tracer, &s.control.log, &s.counters)
    } else {
        let pps = median(&s.probes.rates);
        let arrivals_per_s = s.measured_arrivals as f64 / s.measured.as_secs_f64();
        end_to_end(&s.control.log, (pps, s.probes.rates.len()), &s.setup_s, arrivals_per_s)
    };
    let packets = Packets {
        offered: s.probes.sent.values().map(|t| t.sent).sum(),
        completed: s.probes.sent.values().map(|t| t.completed).sum(),
        shed: s.probes.shed,
    };
    RunResult {
        attempted: s.arrivals + packets.offered,
        failed: s.control.log.failed + s.probes.shed + s.left_queued,
        packets,
        metrics,
        violations,
        digest: s.control.log.digest.finish(),
        host: s.host,
    }
}

//! The serving workloads, `serve_mlagg` and `serve_kvs`.
//!
//! Set-up (repeated, its median reported as `setup_s`): start a service
//! with one engine shard, deploy the tenants through
//! `ClickIncService::deploy`, write the KVS table entries.  Five set-ups run
//! before the measured phase, the last of which serves; twenty more, on
//! fresh services, are spread over the measured phase (see [`Side`]).
//! Every set-up but the serving one is torn down again, which checks that
//! removing every tenant restores the initial remaining-resource ratio.
//!
//! Measured phase: a pre-generated stream (one *pass*) is injected again
//! and again, in chunks of 256 under backpressure, each pass flushed so
//! that it completes, until the time is up; generation stays outside the
//! timed region.  Between passes the side tenants come and go (see
//! [`Side`]).
//!
//! Checks: every offered packet completes and none is shed; each tenant's
//! counters equal `passes ×` those of an interpreter oracle
//! (`ExecMode::Interpreted`) that serves one pass on a fresh service; for
//! MLAgg, whose aggregator state is the same after every whole pass, the
//! final store fingerprints equal the oracle's; for KVS, whose counters
//! accumulate, a fresh compiled service serving one pass matches the
//! oracle's fingerprints; and KVS hits equal the number of requests for a
//! populated key, counted from the generated stream.

use crate::apps::{self, App, Arrival};
use crate::control::{Control, DeployPath, Outcome};
use crate::dataplane::{self, Chunk};
use crate::host::{self, Meter};
use crate::layers::{self, Counters};
use crate::stats::{Digest, Metric};
use crate::trace::Tracer;
use crate::{end_to_end, Packets, Queueing, RunConfig, RunResult, Scale, WorkloadKind};
use clickinc::emulator::{kvs_backend_value, ObjectStore};
use clickinc::ir::Value;
use clickinc::runtime::workload::{MixedWorkload, Workload};
use clickinc::runtime::{EngineConfig, ExecMode, OverloadPolicy, TenantHop, TenantStats};
use clickinc::topology::Topology;
use clickinc::ClickIncService;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard queue depth under backpressure.  A stalled injector waits for the
/// whole queue to drain, so a shallow queue keeps each stall — and the
/// lateness of the side arrivals scheduled behind it — short.
const BACKPRESSURE_QUEUE: usize = 4096;

/// The hot KVS tenant and its populated keys.
const KVS_USER: &str = "kvs";
const KVS_POPULATED: i64 = 1024;

fn tenants(kind: WorkloadKind) -> Vec<Arrival> {
    match kind {
        WorkloadKind::ServeMlagg => {
            const FROM: [&str; 4] = ["pod0a", "pod0b", "pod1a", "pod1b"];
            (0..8)
                .map(|i| apps::mlagg(&format!("agg{i}"), 16, 4, 1024, FROM[i % 4], "pod2b"))
                .collect()
        }
        _ => vec![
            apps::cms("idle_cms", 3, 1024, "pod0a", "pod2b"),
            apps::mlagg("idle_agg", 16, 4, 1024, "pod0a", "pod2b"),
            apps::kvs("idle_kvs", 1024, "pod0a", "pod2b"),
            apps::kvs(KVS_USER, 4096, "pod0a", "pod2b"),
        ],
    }
}

fn engine_config(mode: ExecMode, queueing: Queueing) -> EngineConfig {
    let mut config =
        EngineConfig { shards: 1, batch_size: 256, exec_mode: mode, ..Default::default() };
    match queueing {
        Queueing::Backpressure => {
            config.queue_capacity = BACKPRESSURE_QUEUE;
            config.overload = OverloadPolicy::Backpressure { credits: usize::MAX };
        }
        Queueing::DropTail(depth) => {
            config.queue_capacity = depth;
            config.overload = OverloadPolicy::DropTail;
        }
    }
    config
}

fn new_service(mode: ExecMode, queueing: Queueing) -> ClickIncService {
    host::spawn_engine(|| {
        ClickIncService::with_config(
            Topology::emulation_topology_all_tofino(),
            engine_config(mode, queueing),
        )
    })
    .expect("the engine configuration is valid")
}

/// A deployed tenant as the data plane sees it.
struct Tenant {
    user: String,
    numeric_id: i64,
    app: App,
    hops: Vec<TenantHop>,
}

fn tenant(service: &ClickIncService, user: &str, app: App) -> Tenant {
    let controller = service.controller();
    Tenant {
        user: user.to_string(),
        numeric_id: controller.numeric_id_of(user).expect("tenant is deployed"),
        app,
        hops: controller.tenant_hops(user),
    }
}

/// Write the hot KVS tenant's populated entries (and mirror them).
fn populate(service: &ClickIncService, control: &mut Control, kvs: &Tenant) {
    let table = format!("{}_cache", kvs.user);
    let engine = service.engine_handle();
    for key in 0..KVS_POPULATED {
        let k = vec![Value::Int(key)];
        let v = vec![Value::Int(kvs_backend_value(key))];
        for hop in &kvs.hops {
            if hop.snippets.iter().any(|s| s.objects.iter().any(|o| o.name == table)) {
                engine.populate_table(&kvs.user, &hop.device, &table, k.clone(), v.clone());
            }
        }
        if let Some(mirror) = control.mirror.as_mut() {
            mirror.populate(&kvs.hops, &table, &k, v);
        }
    }
}

/// One pass of the stream, generated from the seed.
fn stream(
    kind: WorkloadKind,
    tenants: &[Tenant],
    seed: u64,
    scale: Scale,
    tracer: &mut Tracer,
) -> Vec<Chunk> {
    let (rounds, requests) = match scale {
        Scale::Full => (512, 65_536),
        Scale::Smoke => (16, 2_048),
    };
    let mut workload: Box<dyn Workload> = match kind {
        WorkloadKind::ServeMlagg => Box::new(MixedWorkload::new(
            tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let App::MlAgg { workers, .. } = t.app else { unreachable!("MLAgg tenants") };
                    apps::generator(
                        t.app,
                        &t.user,
                        t.numeric_id,
                        rounds * workers as usize,
                        seed * 64 + i as u64,
                    )
                })
                .collect(),
        )),
        _ => {
            let kvs = tenants.iter().find(|t| t.user == KVS_USER).expect("hot KVS tenant");
            apps::generator(kvs.app, &kvs.user, kvs.numeric_id, requests, seed)
        }
    };
    dataplane::generate(tracer, workload.as_mut(), usize::MAX, 0)
}

/// One set-up: start a service, deploy the tenants through `control` and
/// write the KVS entries.
struct SetUp {
    service: ClickIncService,
    deployed: Vec<Tenant>,
    initial_ratio: f64,
    seconds: f64,
}

fn set_up(
    kind: WorkloadKind,
    queueing: Queueing,
    control: &mut Control,
    tracer: &mut Tracer,
) -> SetUp {
    let started = Instant::now();
    let service = new_service(ExecMode::Compiled, queueing);
    control.reset(&service, tracer);
    let initial_ratio = service.remaining_resource_ratio();
    let mut deployed = Vec::new();
    for (i, arrival) in tenants(kind).into_iter().enumerate() {
        let app = arrival.app;
        if let Outcome::Admitted(user) = control.arrive(&service, tracer, i as u64, arrival) {
            deployed.push(tenant(&service, &user, app));
        }
    }
    if let Some(kvs) = deployed.iter().find(|t| t.user == KVS_USER) {
        populate(&service, control, kvs);
    }
    service.flush();
    SetUp { service, deployed, initial_ratio, seconds: started.elapsed().as_secs_f64() }
}

/// Remove every tenant and check that the ratio is back where it started.
fn tear_down(up: SetUp, control: &mut Control, violations: &mut Vec<String>) {
    control.remove_all(&up.service, &mut Tracer::new(false), 0);
    if up.service.remaining_resource_ratio() != up.initial_ratio {
        violations.push("removing every tenant did not restore the resource ratio".into());
    }
    up.service.finish();
}

/// Between passes, with the shard idle, small idle count-min-sketch
/// tenants arrive on the serving path and depart again ("side tenants":
/// deployed through `ClickIncService::deploy`, quoted, removed).  They give
/// the serving workloads control-plane samples next to tenants that carry
/// traffic, spread evenly over the run, while every pass runs against the
/// same tenant set.  A run makes the same number of them whatever its
/// speed, so every run carries the same deployment history.  The samples
/// of the first side tenant after each pass are not kept: its calls find
/// the caller's caches full of packets and take about half as long again,
/// and as there is one of them per pass, their share of the samples, and
/// with it the tail percentiles, would follow the data plane's speed.
///
/// Set-up rounds on fresh services are spread over the run the same way,
/// so that `setup_s` samples the whole run rather than its first second:
/// the host's speed drifts over seconds, and a set-up takes milliseconds.
struct Side {
    kind: WorkloadKind,
    queueing: Queueing,
    total: u64,
    count: u64,
    /// Caller time spent on side arrivals and departures, at reference
    /// host speed.
    busy: Duration,
    setups: u64,
    setup_s: Vec<f64>,
    violations: Vec<String>,
}

/// Subject ids of side arrivals (set-up arrivals count from 0).
const SIDE_BASE: u64 = 1 << 32;

impl Side {
    fn new(config: &RunConfig, setups: u64) -> Side {
        let total = match config.scale {
            Scale::Full => 2000,
            Scale::Smoke => 8,
        };
        Side {
            kind: config.workload,
            queueing: config.queueing,
            total,
            count: 0,
            busy: Duration::ZERO,
            setups,
            setup_s: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Catch up with the schedule: side tenant `k` is due once `k / total`
    /// of the measured time has gone by (all of them once it is up), and so
    /// is set-up round `k` once `k / setups` has.  Times are scaled to
    /// reference host speed by `control.log.scale`.
    fn between_passes(
        &mut self,
        service: &ClickIncService,
        tracer: &mut Tracer,
        control: &mut Control,
        done: f64,
    ) {
        let scale = control.log.scale;
        let due = |total: u64| ((done.min(1.0) * total as f64).ceil() as u64).min(total);
        let setups_due = due(self.setups);
        while (self.setup_s.len() as u64) < setups_due {
            // a throwaway client, so that the serving tenants' resident list
            // and samples stay as they are
            let mut client = Control::new(DeployPath::Service, 0);
            let up = set_up(self.kind, self.queueing, &mut client, &mut Tracer::new(false));
            self.setup_s.push(up.seconds * scale);
            tear_down(up, &mut client, &mut self.violations);
            self.violations.append(&mut client.log.violations);
        }
        let due = due(self.total);
        if self.count >= due {
            return;
        }
        let side = |control: &mut Control, tracer: &mut Tracer, count: u64| {
            let subject = SIDE_BASE + count;
            let arrival = apps::cms(&format!("side{count}"), 3, 512, "pod0a", "pod2b");
            if let Outcome::Admitted(user) = control.arrive(service, tracer, subject, arrival) {
                control.remove(service, tracer, subject, &user);
            }
        };
        let mark = control.log.mark();
        side(control, &mut Tracer::new(false), self.count);
        control.log.rewind(mark);
        self.count += 1;
        let started = Instant::now();
        while self.count < due {
            side(control, tracer, self.count);
            self.count += 1;
        }
        self.busy += started.elapsed().mul_f64(scale);
        // let the shard apply the adds and removals before the next pass
        service.flush();
    }
}

/// Inject whole passes of `stream` until `seconds` have gone by.
struct Drive {
    passes: u64,
    offered: u64,
    shed: u64,
    /// Completed packets per wall-second of each pass, at reference host
    /// speed.
    pass_pps: Vec<f64>,
}

impl Drive {
    fn pps(&self) -> f64 {
        crate::stats::median(&self.pass_pps)
    }
}

/// Serve passes (each injected, then flushed so that it completes) with
/// the side tenants' turn between them.  The host meter reads between a
/// pass and the side tenants, while nothing is in flight.
#[allow(clippy::too_many_arguments)]
fn drive(
    service: &ClickIncService,
    tracer: &mut Tracer,
    control: &mut Control,
    meter: &mut Meter,
    side: &mut Side,
    hops: &BTreeMap<Arc<str>, Vec<TenantHop>>,
    stream: &[Chunk],
    seconds: f64,
) -> Drive {
    let handle = service.engine_handle();
    let mut d = Drive { passes: 0, offered: 0, shed: 0, pass_pps: Vec::new() };
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        let mut served = 0u64;
        for chunk in stream {
            let outcome = dataplane::send(
                &handle,
                tracer,
                control.mirror.as_mut(),
                &hops[&chunk.tenant],
                chunk,
            );
            d.offered += chunk.jobs.len() as u64;
            d.shed += outcome.shed as u64;
            served += outcome.admitted as u64;
        }
        handle.flush();
        let elapsed = pass_started.elapsed().as_secs_f64();
        d.passes += 1;
        let scales = meter.tick();
        control.log.scale = scales.caller;
        d.pass_pps.push(served as f64 / (elapsed * scales.engine));
        let done = started.elapsed().as_secs_f64() / seconds;
        side.between_passes(service, tracer, control, done);
        if done >= 1.0 {
            break;
        }
    }
    d
}

/// Serve one pass on a fresh service in `mode`; returns per-tenant stats
/// and per-device store fingerprints.
fn single_pass(
    kind: WorkloadKind,
    mode: ExecMode,
    stream: &[Chunk],
) -> (BTreeMap<String, TenantStats>, BTreeMap<String, u64>) {
    let service = new_service(mode, Queueing::Backpressure);
    let mut control = Control::new(DeployPath::Service, 0);
    let mut off = Tracer::new(false);
    let mut kvs = None;
    for (i, arrival) in tenants(kind).into_iter().enumerate() {
        let app = arrival.app;
        if let Outcome::Admitted(user) = control.arrive(&service, &mut off, i as u64, arrival) {
            if user == KVS_USER {
                kvs = Some(tenant(&service, &user, app));
            }
        }
    }
    if let Some(kvs) = &kvs {
        populate(&service, &mut control, kvs);
    }
    let handle = service.engine_handle();
    for chunk in stream {
        handle.inject(&chunk.tenant, chunk.jobs.clone());
    }
    handle.flush();
    let outcome = service.finish();
    let stats = outcome.telemetry.tenants.into_iter().collect();
    (stats, fingerprints(&outcome.stores))
}

/// Per-device store fingerprints, leaving out devices whose store is empty
/// (a device that only ever hosted a departed side tenant).
fn fingerprints(stores: &BTreeMap<String, ObjectStore>) -> BTreeMap<String, u64> {
    let empty = ObjectStore::new().fingerprint();
    stores
        .iter()
        .map(|(device, store)| (device.clone(), store.fingerprint()))
        .filter(|(_, print)| *print != empty)
        .collect()
}

/// The deterministic traffic counters of a tenant, each multiplied by
/// `passes`.
fn counters(s: &TenantStats, passes: u64) -> Vec<u64> {
    let mut v =
        vec![s.packets, s.completed, s.hits, s.drops, s.to_server, s.payload_bytes, s.server_bytes];
    v.extend(s.link_bytes.iter().copied());
    v.iter().map(|c| c * passes).collect()
}

pub fn run(config: &RunConfig) -> RunResult {
    let kind = config.workload;
    let mut tracer = Tracer::new(config.trace);
    // side arrivals are timing-driven, so only set-up arrivals enter the digest
    let mut control = Control::new(DeployPath::Service, SIDE_BASE);
    let mut violations = Vec::new();
    let mut meter = Meter::new();
    let (before, during) = match config.scale {
        Scale::Full => (5, 20),
        Scale::Smoke => (2, 2),
    };

    // ---- set-up, repeated; the last one serves ----
    let mut setup_s = Vec::new();
    let mut served = None;
    for rep in 0..before {
        control.log.scale = meter.tick().caller;
        let up = set_up(kind, config.queueing, &mut control, &mut tracer);
        setup_s.push(up.seconds * control.log.scale);
        control.check_residents(&up.service);
        if rep + 1 < before {
            tear_down(up, &mut control, &mut violations);
        } else {
            served = Some((up.service, up.deployed));
        }
    }
    let (service, deployed) = served.expect("at least one set-up round");
    if deployed.len() != tenants(kind).len() {
        violations.push(format!(
            "only {} of {} tenants deployed",
            deployed.len(),
            tenants(kind).len()
        ));
    }

    // ---- the stream, generated outside the timed region; samples and
    // spans start here ----
    control.log.restart();
    let setup_arrivals = control.log.arrivals;
    tracer = Tracer::new(config.trace);
    let pass = stream(kind, &deployed, config.seed, config.scale, &mut tracer);
    let pass_len: u64 = pass.iter().map(|c| c.jobs.len() as u64).sum();
    let hops: BTreeMap<Arc<str>, Vec<TenantHop>> =
        deployed.iter().map(|t| (Arc::from(t.user.as_str()), t.hops.clone())).collect();
    let expected_hits = pass
        .iter()
        .flat_map(|c| c.jobs.iter())
        .filter(
            |(_, p)| matches!(p.inc.get("key"), Value::Int(k) if (0..KVS_POPULATED).contains(&k)),
        )
        .count() as u64;

    // ---- measured phase (traced: untraced half, then traced half) ----
    let mut off = Tracer::new(false);
    let seconds = if config.trace { config.seconds / 2.0 } else { config.seconds };
    let mut side = Side::new(config, during);
    let untraced =
        drive(&service, &mut off, &mut control, &mut meter, &mut side, &hops, &pass, seconds);
    setup_s.append(&mut side.setup_s);
    violations.append(&mut side.violations);
    let untraced_side = (control.log.arrivals - setup_arrivals, side.busy);
    let telemetry = service.telemetry();
    let backpressure_waits = telemetry.tenants.values().map(|t| t.backpressure_waits).sum();
    let queue_depth_hwm = telemetry.tenants.values().map(|t| t.queue_depth_hwm).max().unwrap_or(0);
    let traced = config.trace.then(|| {
        let mut side = Side::new(config, 0);
        drive(&service, &mut tracer, &mut control, &mut meter, &mut side, &hops, &pass, seconds)
    });
    let passes = untraced.passes + traced.as_ref().map_or(0, |d| d.passes);
    let offered = untraced.offered + traced.as_ref().map_or(0, |d| d.offered);
    let shed = untraced.shed + traced.as_ref().map_or(0, |d| d.shed);

    // ---- checks ----
    let telemetry = service.telemetry();
    let completed: u64 = telemetry.tenants.values().map(|t| t.completed).sum();
    if completed != offered || shed > 0 {
        violations.push(format!("{completed} of {offered} offered packets completed, {shed} shed"));
    }
    control.check_residents(&service);
    let planner = service.planner_stats();
    let measured = service.finish();
    let (oracle, oracle_prints) = single_pass(kind, ExecMode::Interpreted, &pass);
    for (user, expected) in &oracle {
        let got = measured.telemetry.tenant(user).map(|s| counters(s, 1));
        if got.as_ref() != Some(&counters(expected, passes)) {
            violations
                .push(format!("{user}: counters differ from {passes} × the interpreter oracle"));
        }
    }
    let prints = fingerprints(&measured.stores);
    match kind {
        WorkloadKind::ServeMlagg => {
            if prints != oracle_prints {
                violations.push("store fingerprints differ from the interpreter oracle".into());
            }
        }
        _ => {
            let (_, compiled_prints) = single_pass(kind, ExecMode::Compiled, &pass);
            if compiled_prints != oracle_prints {
                violations
                    .push("one-pass store fingerprints differ from the interpreter oracle".into());
            }
            let oracle_hits = oracle.get(KVS_USER).map_or(0, |s| s.hits);
            let hits = measured.telemetry.tenant(KVS_USER).map_or(0, |s| s.hits);
            if oracle_hits != expected_hits || hits != passes * expected_hits {
                violations.push(format!(
                    "KVS hits {hits} (oracle {oracle_hits}/pass), expected {passes} × {expected_hits}"
                ));
            }
        }
    }
    violations.append(&mut control.log.violations);

    let mut digest: Digest = control.log.digest;
    digest.write_u64(pass_len);
    digest.write_u64(expected_hits);
    for (device, print) in &oracle_prints {
        digest.write_str(device);
        digest.write_u64(*print);
    }
    for (user, stats) in &oracle {
        digest.write_str(user);
        for c in counters(stats, 1) {
            digest.write_u64(c);
        }
    }

    let metrics: Vec<Metric> = if config.trace {
        let traced = traced.expect("traced half ran");
        let counters = Counters {
            backpressure_waits,
            queue_depth_hwm,
            planner,
            image_instrs: control.mirror.as_ref().map_or(0, |m| m.image_instrs()),
            trace_overhead: untraced.pps() / traced.pps() - 1.0,
        };
        let path = config.trace_dir.join(format!("{}-{}.jsonl", kind.name(), config.seed));
        if let Err(err) = tracer.dump(&path) {
            eprintln!("could not write {}: {err}", path.display());
        }
        layers::per_layer(&tracer, &control.log, &counters)
    } else {
        let arrivals_per_s = untraced_side.0 as f64 / untraced_side.1.as_secs_f64();
        end_to_end(
            &control.log,
            (untraced.pps(), untraced.pass_pps.len()),
            &setup_s,
            arrivals_per_s,
        )
    };
    RunResult {
        attempted: offered + control.log.arrivals,
        failed: shed + control.log.failed,
        packets: Packets { offered, completed, shed },
        metrics,
        violations,
        digest: digest.finish(),
        host: meter.speed(),
    }
}

//! The control-plane client: deploys arrivals, quotes them, removes
//! residents, and keeps the benchmark's own resident list.
//!
//! On the plan-cache path (`Planner`) an arrival is quoted with
//! `Planner::plan` and then committed with `Planner::deploy`; no controller
//! state moves between the two calls, so the committed placement must equal
//! the quote's, checked on every admission.  The other paths plan inside
//! the deploy call itself, so it is timed alone: a quote before it would
//! warm its solve.  Their quote is taken after the deploy call, as a pure
//! dry-run (`ClickIncService::plan`) of the same program under another
//! name, which leaves the controller state, the plan cache and the deploy
//! sample untouched.

use crate::apps::{App, Arrival};
use crate::mirror::Mirror;
use crate::stats::{ms, Digest};
use crate::trace::Tracer;
use clickinc::placement::SolveCacheStats;
use clickinc::{ClickIncError, ClickIncService, Deployment, ServiceRequest, TenantHandle};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Which public call commits an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployPath {
    /// `ClickIncService::deploy` (plans, then commits).
    Service,
    /// `ClickIncService::deploy_or_queue` (plans; a refusal is queued).
    OrQueue,
    /// `Planner::deploy` after a `Planner::plan` quote (answers the plan
    /// from the plan cache).
    Planner,
}

/// What became of one arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Admitted(String),
    Refused,
    Failed,
}

/// Samples and counts of the control plane, accumulated over a run.
#[derive(Debug)]
pub struct ControlLog {
    /// The caller core's host-speed scale, applied to each timing sample
    /// as it is taken (see `host`); the workload keeps it current.
    pub scale: f64,
    pub quote_ms: Vec<f64>,
    pub deploy_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    pub arrivals: u64,
    pub refusals: u64,
    pub admitted_from_queue: u64,
    pub failed: u64,
    /// Segment-memo lookups made by each arrival's own solve (the quote on
    /// the plan-cache path, the deploy call on the others); traced runs
    /// only.
    pub memo: SolveCacheStats,
    pub violations: Vec<String>,
    pub digest: Digest,
}

impl Default for ControlLog {
    fn default() -> ControlLog {
        ControlLog {
            scale: 1.0,
            quote_ms: Vec::new(),
            deploy_ms: Vec::new(),
            remove_ms: Vec::new(),
            arrivals: 0,
            refusals: 0,
            admitted_from_queue: 0,
            failed: 0,
            memo: SolveCacheStats::default(),
            violations: Vec::new(),
            digest: Digest::default(),
        }
    }
}

/// A point of a [`ControlLog`] to rewind to.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    quote: usize,
    deploy: usize,
    remove: usize,
    arrivals: u64,
}

impl ControlLog {
    pub fn mark(&self) -> Mark {
        Mark {
            quote: self.quote_ms.len(),
            deploy: self.deploy_ms.len(),
            remove: self.remove_ms.len(),
            arrivals: self.arrivals,
        }
    }

    /// Drop the timing samples and arrivals taken since `mark` (a
    /// warm-up); violations and failures stay.
    pub fn rewind(&mut self, mark: Mark) {
        self.quote_ms.truncate(mark.quote);
        self.deploy_ms.truncate(mark.deploy);
        self.remove_ms.truncate(mark.remove);
        self.arrivals = mark.arrivals;
    }

    /// Drop the samples and counts taken so far (the measured phase
    /// starts); the digest and the violations stay.
    pub fn restart(&mut self) {
        self.quote_ms.clear();
        self.deploy_ms.clear();
        self.remove_ms.clear();
        self.refusals = 0;
        self.admitted_from_queue = 0;
        self.memo = SolveCacheStats::default();
    }
}

/// A deploy call and what it committed.
struct Deploy {
    result: Result<TenantHandle, ClickIncError>,
    time: Duration,
    commit_span: Option<u32>,
    committed: Option<Committed>,
}

/// The placement and numeric id an admitting deploy call committed, and a
/// copy of the deployment when the mirror replays it.
struct Committed {
    fingerprint: u64,
    numeric_id: i64,
    deployment: Option<Deployment>,
}

pub struct Control {
    path: DeployPath,
    /// Residents in admission order (oldest first).
    residents: VecDeque<String>,
    resident_set: BTreeSet<String>,
    /// Application of every arrival, for traffic to queue-admitted tenants.
    apps: BTreeMap<String, App>,
    pub log: ControlLog,
    pub mirror: Option<Mirror>,
    /// Arrivals whose outcome and plan fingerprint enter the digest.
    digest_limit: u64,
}

impl Control {
    pub fn new(path: DeployPath, digest_limit: u64) -> Control {
        Control {
            path,
            residents: VecDeque::new(),
            resident_set: BTreeSet::new(),
            apps: BTreeMap::new(),
            log: ControlLog::default(),
            mirror: None,
            digest_limit,
        }
    }

    /// Start over on a fresh service (a new set-up round): the resident
    /// list and the mirror are per service, the samples accumulate.
    pub fn reset(&mut self, service: &ClickIncService, tracer: &Tracer) {
        self.residents.clear();
        self.resident_set.clear();
        self.mirror = tracer.enabled().then(|| Mirror::new(service));
    }

    pub fn residents(&self) -> &VecDeque<String> {
        &self.residents
    }

    pub fn app_of(&self, user: &str) -> App {
        self.apps[user]
    }

    /// Deploy (and quote) one arrival.
    pub fn arrive(
        &mut self,
        service: &ClickIncService,
        tracer: &mut Tracer,
        index: u64,
        arrival: Arrival,
    ) -> Outcome {
        self.log.arrivals += 1;
        let Arrival { request, app } = arrival;
        self.apps.insert(request.user.clone(), app);
        if self.path == DeployPath::Planner {
            self.quote_then_deploy(service, tracer, index, request)
        } else {
            let shadow =
                ServiceRequest { user: format!("{}_quote", request.user), ..request.clone() };
            let outcome = self.deploy_fused(service, tracer, index, request);
            self.dry_run(service, index, &shadow);
            outcome
        }
    }

    /// The plan-cache path: `Planner::plan`, then `Planner::deploy`.
    fn quote_then_deploy(
        &mut self,
        service: &ClickIncService,
        tracer: &mut Tracer,
        index: u64,
        request: ServiceRequest,
    ) -> Outcome {
        let user = request.user.clone();
        let memo = self.memo_mark(service);
        let started = Instant::now();
        let quote = service.planner().plan(&request);
        let quote_time = started.elapsed();
        self.memo_count(service, memo);
        let quote = match quote {
            Ok(quote) => quote,
            Err(err) => {
                self.fail(index, format!("quote of {user} failed: {err}"));
                return Outcome::Failed;
            }
        };
        self.log.quote_ms.push(ms(quote_time) * self.log.scale);
        let plan_span = tracer.record("core.plan", None, index, 1, started, quote_time);
        if let Some(mirror) = self.mirror.as_mut() {
            mirror.replay_plan(service, tracer, plan_span, index, &request, (&quote).into());
        }

        let started = Instant::now();
        let result = service.planner().deploy(request);
        let deploy_time = started.elapsed();
        let committed = self.committed(service, &user, &result);
        if let Some(c) = &committed {
            if c.fingerprint != quote.placement().fingerprint()
                || c.numeric_id != quote.numeric_id()
            {
                self.log.violations.push(format!("{user}: committed plan differs from its quote"));
            }
        }
        let commit_span = match &result {
            Ok(_) => tracer.record("core.commit", None, index, 1, started, deploy_time),
            Err(_) => None,
        };
        let deploy = Deploy { result, time: deploy_time, commit_span, committed };
        self.settle(tracer, index, user, deploy, quote.fingerprint())
    }

    /// The paths that plan inside the deploy call, timed alone.  Traced,
    /// the call's plan share is the layers replayed under its `core.plan`
    /// span, and its commit share the rest of the call.
    fn deploy_fused(
        &mut self,
        service: &ClickIncService,
        tracer: &mut Tracer,
        index: u64,
        request: ServiceRequest,
    ) -> Outcome {
        let user = request.user.clone();
        let memo = self.memo_mark(service);
        let started = Instant::now();
        let result = match self.path {
            DeployPath::OrQueue => service.deploy_or_queue(request),
            _ => service.deploy(request),
        };
        let deploy_time = started.elapsed();
        self.memo_count(service, memo);
        let committed = self.committed(service, &user, &result);
        let fingerprint = committed.as_ref().map_or(0, |c| c.fingerprint);
        let mut commit_span = None;
        let replayed = committed.as_ref().and_then(|c| c.deployment.as_ref());
        if let (Some(d), Some(mirror)) = (replayed, self.mirror.as_mut()) {
            let plan_span = tracer.record("core.plan", None, index, 1, started, Duration::ZERO);
            mirror.replay_plan(service, tracer, plan_span, index, &d.request, d.into());
            let plan_time = tracer.fit_to_children(plan_span).min(deploy_time);
            commit_span = tracer.record(
                "core.commit",
                None,
                index,
                1,
                started + plan_time,
                deploy_time - plan_time,
            );
        }
        let deploy = Deploy { result, time: deploy_time, commit_span, committed };
        self.settle(tracer, index, user, deploy, fingerprint)
    }

    /// What an admitting deploy call committed.
    fn committed(
        &self,
        service: &ClickIncService,
        user: &str,
        result: &Result<TenantHandle, ClickIncError>,
    ) -> Option<Committed> {
        result.as_ref().ok()?;
        let controller = service.controller();
        let d = controller.deployment(user).expect("an admitted tenant is deployed");
        Some(Committed {
            fingerprint: d.plan.fingerprint(),
            numeric_id: d.numeric_id,
            deployment: self.mirror.is_some().then(|| d.clone()),
        })
    }

    /// Book the outcome of a deploy call; `fingerprint` enters the digest.
    fn settle(
        &mut self,
        tracer: &mut Tracer,
        index: u64,
        user: String,
        deploy: Deploy,
        fingerprint: u64,
    ) -> Outcome {
        match deploy.result {
            Ok(handle) => {
                self.log.deploy_ms.push(ms(deploy.time) * self.log.scale);
                let deployment = deploy.committed.and_then(|c| c.deployment);
                if let (Some(mirror), Some(d)) = (self.mirror.as_mut(), deployment) {
                    mirror.replay_commit(tracer, deploy.commit_span, index, d, handle.hops());
                }
                self.digest(index, 1, fingerprint);
                self.admit(user.clone());
                Outcome::Admitted(user)
            }
            Err(ClickIncError::Rejected { .. }) => {
                self.log.refusals += 1;
                self.digest(index, 2, fingerprint);
                Outcome::Refused
            }
            Err(err) => {
                self.fail(index, format!("deploy of {user} failed: {err}"));
                Outcome::Failed
            }
        }
    }

    /// Quote `shadow` (an arrival's program under another name) as a pure
    /// dry-run.  A quote that finds no room is not a failed arrival: the
    /// arrival itself was already handled.
    fn dry_run(&mut self, service: &ClickIncService, index: u64, shadow: &ServiceRequest) {
        let started = Instant::now();
        let quote = service.plan(shadow);
        let elapsed = started.elapsed();
        match quote {
            Ok(quote) => {
                self.log.quote_ms.push(ms(elapsed) * self.log.scale);
                self.note(index, || quote.fingerprint());
            }
            Err(_) => self.note(index, || 0),
        }
    }

    /// Memo counters before a solve, when tracing.
    fn memo_mark(&self, service: &ClickIncService) -> Option<SolveCacheStats> {
        self.mirror.is_some().then(|| service.controller().solve_cache_stats())
    }

    /// Add the memo lookups made since `before`.
    fn memo_count(&mut self, service: &ClickIncService, before: Option<SolveCacheStats>) {
        if let Some(before) = before {
            let now = service.controller().solve_cache_stats();
            self.log.memo.hits += now.hits - before.hits;
            self.log.memo.misses += now.misses - before.misses;
            self.log.memo.entries = now.entries;
        }
    }

    /// Remove the oldest resident; returns the users the removal's retry
    /// drain admitted from the queue.
    pub fn depart_oldest(
        &mut self,
        service: &ClickIncService,
        tracer: &mut Tracer,
        subject: u64,
    ) -> Vec<String> {
        match self.residents.front().cloned() {
            Some(user) => self.remove(service, tracer, subject, &user),
            None => Vec::new(),
        }
    }

    /// Remove `user` through `ClickIncService::remove` (which drains the
    /// retry queue); returns the users that drain admitted.
    pub fn remove(
        &mut self,
        service: &ClickIncService,
        tracer: &mut Tracer,
        subject: u64,
        user: &str,
    ) -> Vec<String> {
        let started = Instant::now();
        let result = service.remove(user);
        let elapsed = started.elapsed();
        if let Err(err) = result {
            self.log.violations.push(format!("removing {user} failed: {err}"));
            return Vec::new();
        }
        self.log.remove_ms.push(ms(elapsed) * self.log.scale);
        let span = tracer.record("core.remove", None, subject, 1, started, elapsed);
        if let Some(mirror) = self.mirror.as_mut() {
            mirror.replay_remove(tracer, span, subject, user);
        }
        self.residents.retain(|u| u != user);
        self.resident_set.remove(user);

        let mut drained = Vec::new();
        if self.path == DeployPath::OrQueue {
            for active in service.active_users() {
                if !self.resident_set.contains(&active) {
                    drained.push(active);
                }
            }
        }
        for user in &drained {
            self.log.admitted_from_queue += 1;
            if self.mirror.is_some() {
                let (deployment, hops) = {
                    let controller = service.controller();
                    let d =
                        controller.deployment(user).expect("drained tenant is deployed").clone();
                    (d, controller.tenant_hops(user))
                };
                if let Some(mirror) = self.mirror.as_mut() {
                    mirror.replay_commit(tracer, span, subject, deployment, &hops);
                }
            }
            self.admit(user.clone());
        }
        drained
    }

    /// Remove every resident, oldest first.
    pub fn remove_all(&mut self, service: &ClickIncService, tracer: &mut Tracer, subject: u64) {
        while let Some(user) = self.residents.front().cloned() {
            self.remove(service, tracer, subject, &user);
        }
    }

    /// The benchmark's resident list must equal the service's active set.
    pub fn check_residents(&mut self, service: &ClickIncService) {
        let active: BTreeSet<String> = service.active_users().into_iter().collect();
        if active != self.resident_set {
            self.log.violations.push(format!(
                "active users ({}) differ from the resident list ({})",
                active.len(),
                self.resident_set.len()
            ));
        }
    }

    fn admit(&mut self, user: String) {
        self.resident_set.insert(user.clone());
        self.residents.push_back(user);
    }

    /// An arrival that cannot become active (not a refusal): counted
    /// against the attempts, reported on standard error.
    fn fail(&mut self, index: u64, message: String) {
        self.log.failed += 1;
        eprintln!("arrival {index}: {message}");
        self.digest(index, 3, 0);
    }

    /// Mix a deterministic output of arrival `index` into the digest.
    pub fn note(&mut self, index: u64, value: impl FnOnce() -> u64) {
        if index < self.digest_limit {
            self.log.digest.write_u64(value());
        }
    }

    fn digest(&mut self, index: u64, outcome: u64, fingerprint: u64) {
        if index < self.digest_limit {
            self.log.digest.write_u64(index);
            self.log.digest.write_u64(outcome);
            self.log.digest.write_u64(fingerprint);
        }
    }
}

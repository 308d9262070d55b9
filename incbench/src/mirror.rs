//! Replay of the control plane's layers, for the traced run.
//!
//! `ClickIncService::deploy` and friends run compile → isolate → optimize →
//! block DAG → topology reduction → placement → verification → synthesis →
//! plane install → backend codegen → engine mirror inside one locked call,
//! so the benchmark cannot time the layers from outside that call.  The
//! traced run therefore replays every layer's public function on the exact
//! inputs the service used (the solved plan and the committed deployment),
//! against a mirror of the controller's state: a ledger booked with the
//! same demands, device images grown by the same `add_user_program` /
//! `remove_user_program` calls, device planes holding the same snippets and
//! table entries, and a one-shard engine fed the same hops.  Each replayed
//! call is recorded as a span whose parent is the service call it stands
//! for.
//!
//! The mirror planes double as the data plane's VM-only path: the traced
//! serving loop runs every injected chunk through them as well, which
//! times `DevicePlane::process_batch` without the engine around it.

use crate::trace::Tracer;
use clickinc::backend::generate;
use clickinc::blockdag::{build_block_dag, BlockConfig};
use clickinc::emulator::{DevicePlane, ExecMode, Packet, PacketAction};
use clickinc::ir::analysis::{DeviceTarget, PlacedSnippet};
use clickinc::ir::{DiagnosticSet, IrProgram, Optimizer, PassContext, PassManager, Value};
use clickinc::placement::{PlacementNetwork, PlacementPlan, ResourceLedger};
use clickinc::runtime::{EngineConfig, TrafficEngine};
use clickinc::synthesis::incremental::DeviceImages;
use clickinc::synthesis::{
    add_user_program, base_program, isolate_user_program, remove_user_program,
};
use clickinc::topology::{reduce_for_traffic, NodeId, Topology};
use clickinc::{
    sharding_mode_for, ClickIncService, Deployment, DeploymentPlan, ServiceRequest, TenantHop,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The output of one solve, from a quote or from a committed deployment.
pub struct Solved<'a> {
    pub numeric_id: i64,
    /// The isolated program.
    pub program: &'a IrProgram,
    pub placement: &'a PlacementPlan,
}

impl<'a> From<&'a DeploymentPlan> for Solved<'a> {
    fn from(plan: &'a DeploymentPlan) -> Solved<'a> {
        Solved {
            numeric_id: plan.numeric_id(),
            program: plan.program(),
            placement: plan.placement(),
        }
    }
}

impl<'a> From<&'a Deployment> for Solved<'a> {
    fn from(d: &'a Deployment) -> Solved<'a> {
        Solved { numeric_id: d.numeric_id, program: &d.program, placement: &d.plan }
    }
}

pub struct Mirror {
    topology: Topology,
    pod_of: BTreeMap<NodeId, Option<usize>>,
    ledger: ResourceLedger,
    images: DeviceImages,
    planes: BTreeMap<String, DevicePlane>,
    engine: TrafficEngine,
    /// Replayed deployments, kept for their removal.
    deployments: BTreeMap<String, Deployment>,
}

impl Mirror {
    pub fn new(service: &ClickIncService) -> Mirror {
        let topology = service.controller().topology().clone();
        let pod_of = topology.nodes().iter().map(|n| (n.id, n.pod)).collect();
        Mirror {
            topology,
            pod_of,
            ledger: ResourceLedger::new(),
            images: DeviceImages::default(),
            planes: BTreeMap::new(),
            engine: TrafficEngine::new(EngineConfig { shards: 1, ..Default::default() }),
            deployments: BTreeMap::new(),
        }
    }

    /// Replay the solve behind `solved` layer by layer (compile, isolate,
    /// optimize, block DAG, topology reduction, verification), recording
    /// the placement solver's own `solve_time` for the placement layer.
    /// Call it before the matching [`Mirror::replay_commit`]: the topology
    /// reduction reads the mirror's ledger as the solve saw it.
    pub fn replay_plan(
        &mut self,
        service: &ClickIncService,
        tracer: &mut Tracer,
        parent: Option<u32>,
        subject: u64,
        request: &ServiceRequest,
        solved: Solved<'_>,
    ) {
        let user = request.user.as_str();
        let t = tracer.start();
        let ir = service.controller().compile(request).expect("a solved request compiles");
        tracer.end("frontend.compile", parent, subject, 1, t);

        let t = tracer.start();
        let isolated = isolate_user_program(&ir, user, solved.numeric_id);
        tracer.end("synthesis.isolate", parent, subject, 1, t);

        let t = tracer.start();
        let mut diags = DiagnosticSet::new();
        let optimized =
            Optimizer::with_default_passes().optimize(user, true, &isolated, &mut diags);
        tracer.end("ir.optimize", parent, subject, 1, t);

        let t = tracer.start();
        black_box(build_block_dag(&optimized, &BlockConfig::default()));
        tracer.end("blockdag.build", parent, subject, 1, t);

        let t = tracer.start();
        let sources: Vec<NodeId> =
            request.sources.iter().filter_map(|s| self.topology.find(s)).collect();
        let dst = self.topology.find(&request.destination).expect("solved destination exists");
        let reduced = reduce_for_traffic(&self.topology, &sources, dst, &request.traffic_weights);
        black_box(PlacementNetwork::from_reduced(&self.topology, &reduced, &self.ledger));
        tracer.end("topology.reduce", parent, subject, 1, t);

        let solve_time = solved.placement.solve_time;
        let solved_at = Instant::now().checked_sub(solve_time).unwrap_or_else(Instant::now);
        tracer.record("placement.solve", parent, subject, 1, solved_at, solve_time);

        let placements = self.placed_slices(user, solved.program, solved.placement);
        let t = tracer.start();
        black_box(PassManager::with_default_passes().run(&PassContext {
            tenant: user.to_string(),
            isolated: true,
            programs: std::slice::from_ref(solved.program),
            placements: &placements,
        }));
        tracer.end("ir.verify", parent, subject, 1, t);
    }

    /// Replay a commit: book the ledger, grow the device images, install the
    /// snippets on the mirror planes, generate device code for every touched
    /// image, and add the tenant to the mirror engine.
    pub fn replay_commit(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<u32>,
        subject: u64,
        deployment: Deployment,
        hops: &[TenantHop],
    ) {
        for a in deployment.plan.assignments.iter().filter(|a| !a.is_empty()) {
            for member in &a.members {
                self.ledger.consume(*member, a.demand);
            }
        }

        let t = tracer.start();
        let base = base_program();
        black_box(add_user_program(
            &mut self.images,
            &base,
            &deployment.program,
            &deployment.plan,
            &self.pod_of,
        ));
        tracer.end("synthesis.add", parent, subject, 1, t);

        let installs: Vec<(String, IrProgram)> = deployment
            .snippets
            .iter()
            .flat_map(|(node, list)| {
                let name = self.topology.node(*node).name.clone();
                list.iter().map(move |s| (name.clone(), s.clone()))
            })
            .collect();
        for (name, _) in &installs {
            self.plane_entry(name);
        }
        let t = tracer.start();
        for (name, snippet) in installs {
            self.planes.get_mut(&name).expect("plane created above").install(snippet);
        }
        tracer.end("emulator.plane_install", parent, subject, 1, t);

        let t = tracer.start();
        for a in deployment.plan.assignments.iter().filter(|a| !a.is_empty()) {
            for member in &a.members {
                if let Some(image) = self.images.images.get(member) {
                    black_box(generate(self.topology.node(*member).kind, image));
                }
            }
        }
        tracer.end("backend.generate", parent, subject, 1, t);

        let mode = sharding_mode_for(hops);
        let handle = self.engine.handle();
        // the flush waits for the shard to build the tenant's planes: work
        // the service's commit hands off without waiting for it
        let t = tracer.start();
        handle.add_tenant_sharded(&deployment.user, hops.to_vec(), mode);
        handle.flush();
        tracer.end("runtime.engine.add_tenant", parent, subject, 1, t);

        self.deployments.insert(deployment.user.clone(), deployment);
    }

    /// Replay a removal: release the ledger, shrink the images (timed),
    /// uninstall from the mirror planes and the mirror engine.
    pub fn replay_remove(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<u32>,
        subject: u64,
        user: &str,
    ) {
        let Some(deployment) = self.deployments.remove(user) else { return };
        for a in deployment.plan.assignments.iter().filter(|a| !a.is_empty()) {
            for member in &a.members {
                self.ledger.release(*member, a.demand);
            }
        }
        let t = tracer.start();
        black_box(remove_user_program(&mut self.images, user, &self.pod_of));
        tracer.end("synthesis.remove", parent, subject, 1, t);
        for node in deployment.snippets.keys() {
            if let Some(plane) = self.planes.get_mut(&self.topology.node(*node).name) {
                plane.uninstall(user);
            }
        }
        let handle = self.engine.handle();
        handle.remove_tenant(user);
        handle.flush();
    }

    /// Mirror a control-plane table write.
    pub fn populate(&mut self, hops: &[TenantHop], table: &str, key: &[Value], value: Vec<Value>) {
        for hop in hops {
            if hop.snippets.iter().any(|s| s.objects.iter().any(|o| o.name == table)) {
                self.plane_entry(&hop.device).store_mut().table_write(table, key, value.clone());
            }
        }
    }

    /// Run packets along `hops` on the mirror planes with the compiled tier:
    /// each device processes the batch that reached it, and only forwarded
    /// packets continue.  Returns the time spent inside `process_batch`.
    pub fn exec(&mut self, hops: &[TenantHop], mut packets: Vec<Packet>) -> Duration {
        let mut busy = Duration::ZERO;
        for hop in hops {
            if packets.is_empty() {
                break;
            }
            let Some(plane) = self.planes.get_mut(&hop.device) else { continue };
            let t = Instant::now();
            let outcomes = plane.process_batch(&mut packets);
            busy += t.elapsed();
            packets = packets
                .into_iter()
                .zip(outcomes)
                .filter(|(_, o)| o.action == PacketAction::Forward)
                .map(|(p, _)| p)
                .collect();
        }
        busy
    }

    /// Instructions across every mirrored device image.
    pub fn image_instrs(&self) -> usize {
        self.images.images.values().map(|image| image.instructions.len()).sum()
    }

    fn plane_entry(&mut self, name: &str) -> &mut DevicePlane {
        let topology = &self.topology;
        self.planes.entry(name.to_string()).or_insert_with(|| {
            let id = topology.find(name).expect("hop devices are topology nodes");
            let mut plane = DevicePlane::new(name, topology.node(id).kind.model());
            plane.set_exec_mode(ExecMode::Compiled);
            plane
        })
    }

    /// The per-device slices the verifier checks: each assignment's
    /// instructions with the headers, precondition and objects they need.
    fn placed_slices(
        &self,
        user: &str,
        program: &IrProgram,
        plan: &PlacementPlan,
    ) -> Vec<PlacedSnippet> {
        let mut placements = Vec::new();
        for a in plan.assignments.iter().filter(|a| !a.is_empty()) {
            let mut snippet = IrProgram::new(user.to_string());
            snippet.headers = program.headers.clone();
            snippet.precondition = program.precondition.clone();
            snippet.objects = program
                .objects
                .iter()
                .filter(|o| {
                    a.instrs
                        .iter()
                        .any(|&i| program.instructions[i].object() == Some(o.name.as_str()))
                })
                .cloned()
                .collect();
            snippet.instructions =
                a.instrs.iter().map(|&i| program.instructions[i].clone()).collect();
            for member in &a.members {
                let node = self.topology.node(*member);
                let model = node.kind.model();
                placements.push(PlacedSnippet {
                    device: node.name.clone(),
                    target: DeviceTarget {
                        device: node.name.clone(),
                        kind: node.kind.to_string(),
                        supported: model.supported_classes().clone(),
                        storage_capacity_bits: model.storage_capacity_bits(),
                    },
                    program: snippet.clone(),
                });
            }
        }
        placements
    }
}

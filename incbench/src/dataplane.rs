//! The data-plane client: pre-generates packet streams in per-tenant
//! chunks and injects them into the serving engine.
//!
//! Untraced, a chunk is cloned and handed to `EngineHandle::inject`, which
//! stalls under backpressure when the shard's bounded queue is full; the
//! shard drains concurrently.  Traced, every chunk is injected into an idle
//! shard and followed by a `flush`, so the injector's dispatch, the shard's
//! drain and (on the mirror planes) the VM's execution are timed apart.

use crate::mirror::Mirror;
use crate::stats::Digest;
use crate::trace::Tracer;
use clickinc::emulator::Packet;
use clickinc::ir::Value;
use clickinc::runtime::workload::Workload;
use clickinc::runtime::{EngineHandle, InjectOutcome, TenantHop};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Packets per injected chunk (and per generation span).
pub const CHUNK: usize = 256;

/// One tenant's run of consecutive stream packets.
#[derive(Debug, Clone)]
pub struct Chunk {
    pub tenant: Arc<str>,
    /// Stream index of the first packet.
    pub first: u64,
    pub jobs: Vec<(u64, Packet)>,
}

/// Pull up to `max` packets from `workload` and group them per tenant into
/// chunks of [`CHUNK`], in stream order (a tenant's chunk is emitted when it
/// fills; partial chunks follow at the end).  Traced, every [`CHUNK`]
/// generator calls form one `runtime.workload.gen` span.
pub fn generate(
    tracer: &mut Tracer,
    workload: &mut dyn Workload,
    max: usize,
    first: u64,
) -> Vec<Chunk> {
    let mut buffers: BTreeMap<Arc<str>, Chunk> = BTreeMap::new();
    let mut chunks = Vec::new();
    let mut index = first;
    'outer: while index < first + max as u64 {
        let block_start = index;
        let t = tracer.start();
        let mut block = Vec::with_capacity(CHUNK);
        while block.len() < CHUNK && index < first + max as u64 {
            let Some(generated) = workload.next_packet() else {
                tracer.end("runtime.workload.gen", None, block_start, block.len(), t);
                place(&mut buffers, &mut chunks, block);
                break 'outer;
            };
            block.push((index, generated));
            index += 1;
        }
        tracer.end("runtime.workload.gen", None, block_start, block.len(), t);
        place(&mut buffers, &mut chunks, block);
    }
    chunks.extend(buffers.into_values().filter(|c| !c.jobs.is_empty()));
    chunks
}

fn place(
    buffers: &mut BTreeMap<Arc<str>, Chunk>,
    chunks: &mut Vec<Chunk>,
    block: Vec<(u64, clickinc::runtime::workload::GeneratedPacket)>,
) {
    for (index, generated) in block {
        let chunk = buffers.entry(Arc::clone(&generated.tenant)).or_insert_with(|| Chunk {
            tenant: Arc::clone(&generated.tenant),
            first: index,
            jobs: Vec::with_capacity(CHUNK),
        });
        if chunk.jobs.is_empty() {
            chunk.first = index;
        }
        chunk.jobs.push((generated.vtime_ns, generated.packet));
        if chunk.jobs.len() == CHUNK {
            chunks.push(Chunk {
                tenant: Arc::clone(&chunk.tenant),
                first: chunk.first,
                jobs: std::mem::take(&mut chunk.jobs),
            });
        }
    }
}

/// Digest of the packets' application fields, for the run's output digest.
pub fn digest(chunks: &[Chunk]) -> u64 {
    let mut d = Digest::default();
    for (_, packet) in chunks.iter().flat_map(|c| c.jobs.iter()) {
        for (name, value) in &packet.inc.fields {
            d.write_str(name);
            if let Value::Int(v) = value {
                d.write_u64(*v as u64);
            }
        }
    }
    d.finish()
}

/// Inject one chunk.  Untraced: clone + inject.  Traced: clone, inject,
/// flush (the shard's drain), then run the same packets through the mirror
/// planes for the VM's share of the drain.
pub fn send(
    handle: &EngineHandle,
    tracer: &mut Tracer,
    mirror: Option<&mut Mirror>,
    hops: &[TenantHop],
    chunk: &Chunk,
) -> InjectOutcome {
    let n = chunk.jobs.len();
    if !tracer.enabled() {
        return handle.inject(&chunk.tenant, chunk.jobs.clone());
    }
    let t = tracer.start();
    let jobs = chunk.jobs.clone();
    tracer.end("emulator.packet.clone", None, chunk.first, n, t);
    let replay: Vec<Packet> = jobs.iter().map(|(_, p)| p.clone()).collect();

    let t = tracer.start();
    let outcome = handle.inject(&chunk.tenant, jobs);
    tracer.end("runtime.engine.inject", None, chunk.first, n, t);

    let t = tracer.start();
    handle.flush();
    let drain = tracer.end("runtime.shard.drain", None, chunk.first, n, t);

    if let Some(mirror) = mirror {
        let busy = mirror.exec(hops, replay);
        let at = Instant::now().checked_sub(busy).unwrap_or_else(Instant::now);
        tracer.record("emulator.vm.exec", drain, chunk.first, n, at, busy);
    }
    outcome
}

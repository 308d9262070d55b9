//! The tenant programs the workloads submit, and the packets that exercise
//! them.  Everything here is drawn from the workload seed; the service only
//! ever sees the resulting requests and packets.

use crate::stats::SplitMix64;
use clickinc::lang::templates::{
    count_min_sketch, kvs_template, mlagg_template, KvsParams, MlAggParams,
};
use clickinc::runtime::workload::{
    KvsWorkload, KvsWorkloadConfig, MlAggWorkload, MlAggWorkloadConfig, Workload,
};
use clickinc::ServiceRequest;

/// Which application a tenant runs — enough to generate its traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    Kvs,
    MlAgg { dims: u32, workers: u32 },
    Cms,
}

/// One tenant arrival: the request and the application behind it.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub request: ServiceRequest,
    pub app: App,
}

/// Offered load on the workloads' virtual clock (only timestamps packets).
const RATE_PPS: f64 = 1e6;

/// Requests per KVS/CMS key universe.
pub const KVS_KEYS: usize = 4096;

fn request(
    user: &str,
    template: clickinc::lang::templates::Template,
    from: &str,
    to: &str,
    priority: u8,
) -> ServiceRequest {
    ServiceRequest::builder(user)
        .template(template)
        .from_(from)
        .to(to)
        .priority(priority)
        .build()
        .expect("benchmark requests are well-formed")
}

pub fn kvs(user: &str, cache_depth: u32, from: &str, to: &str) -> Arrival {
    let t = kvs_template(user, KvsParams { cache_depth, ..Default::default() });
    Arrival { request: request(user, t, from, to, 0), app: App::Kvs }
}

pub fn mlagg(
    user: &str,
    dims: u32,
    workers: u32,
    aggregators: u32,
    from: &str,
    to: &str,
) -> Arrival {
    let t = mlagg_template(
        user,
        MlAggParams { dims, num_workers: workers, num_aggregators: aggregators, is_float: false },
    );
    Arrival { request: request(user, t, from, to, 0), app: App::MlAgg { dims, workers } }
}

pub fn cms(user: &str, rows: u32, cols: u32, from: &str, to: &str) -> Arrival {
    Arrival {
        request: request(user, count_min_sketch(user, rows, cols), from, to, 0),
        app: App::Cms,
    }
}

/// The churn pool: arrival `i` takes shape `i % 6` (KVS / MLAgg / CMS with
/// per-slot parameters, the pool of the repository's churn scenario) under
/// a fresh name, with priorities cycling over four levels.  The two MLAgg
/// slots enter from different pod-1 hosts so that 48 residents stay
/// placeable.
pub fn pool_arrival(i: u64) -> Arrival {
    const FROM: [&str; 6] = ["pod0a", "pod1a", "pod0b", "pod0a", "pod1b", "pod0b"];
    let slot = (i % 6) as u32;
    let user = format!("pool{i}");
    let from = FROM[slot as usize];
    let mut arrival = match slot % 3 {
        0 => kvs(&user, 1000 + 500 * (slot / 3), from, "pod2b"),
        1 => mlagg(&user, 16 + 8 * (slot / 3), 4, 512, from, "pod2b"),
        _ => cms(&user, 3, 512 << (slot / 3), from, "pod2b"),
    };
    arrival.request.priority = (i % 4) as u8;
    arrival
}

/// A distinct program: the kind cycles KVS / MLAgg / CMS, and its
/// parameters and endpoints are drawn from `rng`, so shapes rarely repeat
/// and placement runs cold.
pub fn distinct_arrival(rng: &mut SplitMix64, i: u64) -> Arrival {
    const FROM: [&str; 4] = ["pod0a", "pod0b", "pod1a", "pod1b"];
    const TO: [&str; 2] = ["pod2a", "pod2b"];
    let user = format!("quote{i}");
    let from = FROM[rng.range(0, 3) as usize];
    let to = TO[rng.range(0, 1) as usize];
    match i % 3 {
        0 => kvs(&user, 64 * rng.range(8, 64), from, to),
        1 => {
            let dims = 4 * rng.range(1, 6);
            let workers = rng.range(2, 8);
            mlagg(&user, dims, workers, 64 * rng.range(4, 32), from, to)
        }
        _ => cms(&user, rng.range(2, 4), 64 * rng.range(4, 64), from, to),
    }
}

/// The traffic generator for one tenant: `packets` packets of its
/// application, seeded.
pub fn generator(
    app: App,
    user: &str,
    numeric_id: i64,
    packets: usize,
    seed: u64,
) -> Box<dyn Workload> {
    match app {
        App::Kvs | App::Cms => Box::new(KvsWorkload::new(KvsWorkloadConfig {
            tenant: user.to_string(),
            user_id: numeric_id,
            keys: KVS_KEYS,
            skew: 1.1,
            requests: packets,
            rate_pps: RATE_PPS,
            seed,
        })),
        App::MlAgg { dims, workers } => Box::new(MlAggWorkload::new(MlAggWorkloadConfig {
            tenant: user.to_string(),
            user_id: numeric_id,
            workers: workers as usize,
            rounds: packets.div_ceil(workers as usize),
            dims: dims as usize,
            sparsity: 0.5,
            block_size: 8,
            rate_pps: RATE_PPS,
            seed,
        })),
    }
}

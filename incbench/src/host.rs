//! Host speed: core placement, and a fixed reference computation timed on
//! each core at quiet moments of a run, to which the run's timings and
//! rates are scaled.
//!
//! The benchmark runs on two cores of a shared host.  Each core's speed
//! drifts, independently of the other, by up to two thirds over seconds to
//! minutes as other work on the host comes and goes, and that drift moved
//! every timing of a run more than the program's own variation did.  So:
//!
//! - the caller thread keeps the first allowed core and every engine shard
//!   the second ([`spawn_engine`]), so that each timing depends on one
//!   known core;
//! - every [`TICK_EVERY`], at a point where the engine is flushed and the
//!   caller has nothing in flight, the [`Meter`] times the reference
//!   computation (a seeded fill and sort of 256 KiB, allocation-free) on
//!   each of the two cores;
//! - each sample is multiplied by the scale of its core current when it is
//!   taken, [`REFERENCE_MS`] over the median of that core's last
//!   [`WINDOW`] readings (a rate is divided by it): control-plane timings
//!   and set-up by the caller's, packet rates by the shard's, whose core
//!   bounds them.
//!
//! The reported figures are thus what the host would show if the reference
//! took exactly [`REFERENCE_MS`] on both cores.  The reference uses only
//! the standard library, so no change to the program under test moves it.
//! Every run prints the readings' medians.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The reference computation's time at reference host speed: about its
/// time on an otherwise idle core of a 2-vCPU x86-64 virtual machine.
pub const REFERENCE_MS: f64 = 0.6;
/// Readings a core's scale is the median of.
pub const WINDOW: usize = 5;
/// Least time between two readings taken by [`Meter::tick`].
pub const TICK_EVERY: Duration = Duration::from_millis(100);
/// Elements the reference sorts (256 KiB).
const REFERENCE_LEN: usize = 32 * 1024;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

/// The caller's core and the engine's core: the first two cores the
/// process may run on, as found at first use; `None` with fewer than two.
fn cores() -> Option<(usize, usize)> {
    static CORES: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *CORES.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        if ok != 0 {
            return None;
        }
        let mut allowed = (0..1024).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1);
        Some((allowed.next()?, allowed.next()?))
    })
}

/// Keep the calling thread on `cpu` (a failure leaves it where it was).
fn pin(cpu: usize) {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
}

/// Run `start` — which starts a service, and with it the engine's shard
/// threads — on the engine's core, so that the threads it spawns inherit
/// that core; the calling thread then moves to the caller's core.
pub fn spawn_engine<T>(start: impl FnOnce() -> T) -> T {
    let Some((caller, engine)) = cores() else { return start() };
    pin(engine);
    let started = start();
    pin(caller);
    started
}

/// The reference computation, on a buffer of [`REFERENCE_LEN`]; returns
/// its time in ms.
fn reference(buf: &mut [u64]) -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for slot in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    buf.sort_unstable();
    std::hint::black_box(buf[buf.len() / 2]);
    started.elapsed().as_secs_f64() * 1e3
}

/// One core's readings.
#[derive(Debug, Default)]
struct Readings {
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl Readings {
    fn push(&mut self, ms: f64) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        self.all.push(ms);
    }

    fn scale(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_MS / crate::stats::median(&recent)
    }
}

/// The scales current at a tick: multiply a time taken on that core by
/// it (divide a rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scales {
    pub caller: f64,
    pub engine: f64,
}

/// Median reference times of a run, per core, in ms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostSpeed {
    pub caller_ms: f64,
    pub engine_ms: f64,
    pub readings: usize,
}

/// Readings of the reference computation over a run.
#[derive(Debug)]
pub struct Meter {
    buf: Vec<u64>,
    caller: Readings,
    engine: Readings,
    last: Instant,
}

impl Meter {
    /// A meter with a full window of readings taken now; the calling
    /// thread moves to the caller's core.
    pub fn new() -> Meter {
        if let Some((caller, _)) = cores() {
            pin(caller);
        }
        let mut meter = Meter {
            buf: vec![0; REFERENCE_LEN],
            caller: Readings::default(),
            engine: Readings::default(),
            last: Instant::now(),
        };
        for _ in 0..WINDOW {
            meter.read();
        }
        meter
    }

    /// Time the reference on both cores: the better of two runs on each,
    /// which leaves out an interrupt that lands in one of them.
    pub fn read(&mut self) {
        let mut best = || reference(&mut self.buf).min(reference(&mut self.buf));
        let caller_ms = best();
        let engine_ms = match cores() {
            Some((caller, engine)) => {
                pin(engine);
                let ms = best();
                pin(caller);
                ms
            }
            None => caller_ms,
        };
        self.caller.push(caller_ms);
        self.engine.push(engine_ms);
        self.last = Instant::now();
    }

    /// Take a reading if [`TICK_EVERY`] has gone by since the last one;
    /// returns the current scales.
    pub fn tick(&mut self) -> Scales {
        if self.last.elapsed() >= TICK_EVERY {
            self.read();
        }
        self.scales()
    }

    pub fn scales(&self) -> Scales {
        Scales { caller: self.caller.scale(), engine: self.engine.scale() }
    }

    pub fn speed(&self) -> HostSpeed {
        HostSpeed {
            caller_ms: crate::stats::median(&self.caller.all),
            engine_ms: crate::stats::median(&self.engine.all),
            readings: self.caller.all.len(),
        }
    }
}

impl Default for Meter {
    fn default() -> Meter {
        Meter::new()
    }
}

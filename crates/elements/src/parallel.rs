//! The multi-core router runtime: N independent shards of the compiled
//! element graph, RSS flow steering, bounded ring queues — and a
//! supervisor that keeps the router forwarding when a shard dies.
//!
//! The paper's runtime is a "constantly-active kernel thread" — one core
//! runs the whole element graph, and any element misbehavior takes the
//! whole router down. [`ParallelRouter`] scales that model across cores
//! the way production packet processors (and Click's own SMP successor)
//! do, and adds the fault-isolation discipline they need:
//!
//! * **Per-shard graph clones.** Every worker thread builds its *own*
//!   [`Router<S>`] from the same configuration graph. Nothing on the
//!   packet path is shared between shards — no locks, no cache-line
//!   ping-pong — and each worker thread gets its own thread-local
//!   packet pool ([`crate::packet`]) and its own element statistics.
//!   Graph-level optimizations (`fastclassifier`, `devirtualize`,
//!   `xform`) compose with sharding unchanged: each shard runs the same
//!   optimized graph, just on a subset of flows.
//! * **RSS flow steering.** The injection side hashes each frame's IP
//!   5-tuple ([`crate::steer`]) to pick a shard, so all packets of one
//!   flow traverse one shard in FIFO order — per-flow ordering is
//!   preserved without cross-core synchronization. Non-IP frames steer
//!   by receiving device.
//! * **Bounded SPSC rings.** [`PacketBatch`]es travel to workers and
//!   back on fixed-capacity single-producer/single-consumer rings
//!   ([`crate::ring`]): batched enqueue/dequeue, busy-poll with a
//!   backoff knob, and backpressure instead of drops when a shard falls
//!   behind.
//!
//! # Fault isolation and supervision
//!
//! Each worker wraps its packet-processing loop in
//! [`std::panic::catch_unwind`]: a panic inside an element (a bug, a
//! malformed frame tripping an assertion, or a deliberate
//! `FaultInject(PANIC …)` chaos element) is confined to that shard. The
//! panicked worker publishes its death through a *health word* (an
//! atomic the supervisor reads on every unproductive poll — never on the
//! per-packet fast path) and then parks as a **zombie**: its thread
//! stays alive answering control-plane queries, so the dead shard's
//! element statistics and telemetry remain readable until shutdown.
//!
//! The supervisor — the main thread, inside [`ParallelRouter::flush`] /
//! [`ParallelRouter::run_until_idle`] — reacts to a death by:
//!
//! 1. salvaging every in-flight batch from the dead shard's rings
//!    ([`crate::ring::RingProducer::reclaim`] is sound once the consumer
//!    is inert) and accounting the irrecoverable remainder (packets that
//!    were *inside* the engine when it died) in [`FaultGauges`];
//! 2. either **restarting** the shard — a fresh worker thread built from
//!    the retained [`RouterGraph`] ([`Recovery::Restart`]) — or entering
//!    **degraded mode** ([`Recovery::Degrade`]): the steering stage's
//!    live-shard mask ([`crate::steer::RssSteering::mark_dead`])
//!    deterministically re-homes the dead shard's flows across the
//!    survivors, while flows homed on live shards keep their original
//!    assignment (and therefore their per-flow order);
//! 3. re-injecting the salvaged packets in FIFO order through the
//!    (updated) steering stage.
//!
//! The control plane is typed-error clean: queries honor
//! [`CTRL_TIMEOUT`] and return [`Error::Runtime`] instead of panicking
//! when a worker is gone or wedged, injection into a wedged router
//! reports a backpressure timeout instead of spinning forever
//! ([`ParallelRouter::try_flush`]), and `Drop` performs a bounded,
//! orderly drain.
//!
//! Statistics aggregate through a control channel:
//! [`ParallelRouter::stat`] / [`ParallelRouter::class_stat`] query every
//! worker (including zombies and restarted shards' predecessors) and
//! sum, so a sharded router answers exactly like a serial [`Router`] and
//! equivalence tests run unchanged.

use crate::batch::PacketBatch;
use crate::driver::DeviceDriver;
use crate::element::DeviceId;
use crate::packet::{Packet, PoolStats};
use crate::persist::{
    Checkpoint, DeviceRecord, ElementRecord, EngineSnapshot, PacketRecord, RestoreStats,
};
use crate::ring::{spsc, AdaptiveBurst, Backoff, RingConsumer, RingProducer};
use crate::router::{Router, Slot};
use crate::steer::{steerer_for, FlowHashCache, RssSteering, SharedLiveMask, MAX_SHARDS};
use crate::swap::SwapReport;
use crate::telemetry::{
    self, ElementProfile, FaultGauges, ShardGaugeTracker, ShardGauges, SteerGaugeTracker,
    SteerGauges, SwapGauges,
};
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::registry::Library;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// One unit of ring transfer: a burst of packets for (or from) one
/// simulated device.
type ShardItem = (DeviceId, PacketBatch);

/// A boxed configuration validator: builds a prototype router on the
/// calling thread so a hot swap rejects a bad config before any worker
/// sees it (captures the engine type `S`).
type Validator = Box<dyn Fn(&RouterGraph) -> Result<()>>;

/// A boxed replacement-worker spawner (captures the retained graph, the
/// worker config, and the engine type `S`): returns the fresh worker
/// plus the per-steerer inbound producers for its shard slot, in
/// steerer order.
type MakeWorker = Box<dyn Fn(usize) -> Result<(Worker, Vec<RingProducer<ShardItem>>)>>;

/// Task-scheduling budget a worker grants each ring item; generous —
/// one item carries at most a burst of packets.
const WORKER_ROUNDS: usize = 100_000;

/// How long a control query may wait on a worker before the runtime
/// declares it wedged and returns [`Error::Runtime`].
pub const CTRL_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on parallel steerer threads.
pub const MAX_STEERERS: usize = 16;

/// Worker/steerer dequeue burst floor (items per ring poll). The
/// adaptive controller grows from here under load.
const DEQUEUE_BURST: usize = 16;

/// Nap cap used when `pin_cores` asks for a latency-biased, the-core-
/// is-ours pacing profile (see [`ParallelOpts::pin_cores`]).
const PINNED_NAP_CAP: Duration = Duration::from_micros(64);

/// Spin-budget ceiling applied to every ring endpoint when the
/// configured threads (shards + steerers + the supervisor) oversubscribe
/// the host's cores. An idle endpoint that spins or yields on an
/// oversubscribed host steals timeslices from whichever thread actually
/// holds work, so the runtime clamps the budget and lets idle threads
/// escalate to napping almost immediately. `pin_cores` (an explicit
/// claim that each shard owns a core) disables the clamp.
const OVERSUB_SPINS: u32 = 8;

/// The endpoint spin budget after accounting for host oversubscription
/// (see [`OVERSUB_SPINS`]).
fn effective_spins(opts: &ParallelOpts) -> u32 {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    if !opts.pin_cores && opts.shards + opts.steerers + 1 > host {
        opts.backoff_spins.min(OVERSUB_SPINS)
    } else {
        opts.backoff_spins
    }
}

/// Health-word states a worker publishes (see [`WorkerShared`]).
const HEALTH_RUNNING: u8 = 0;
/// The worker's packet loop panicked; the thread is parked as a zombie
/// that still answers control queries.
const HEALTH_PANICKED: u8 = 1;
/// The worker exited cleanly (shutdown).
const HEALTH_EXITED: u8 = 2;
/// The worker could not build its router clone (cannot normally happen:
/// the graph was validated on the main thread).
const HEALTH_BUILD_FAILED: u8 = 3;

/// What the supervisor does when a worker shard dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Enter degraded mode: mark the shard dead in the steering mask and
    /// spread its flows across the survivors. The default.
    Degrade,
    /// Restart the shard from the retained configuration graph, at most
    /// `max_per_shard` times per shard; further deaths degrade.
    Restart {
        /// Restart budget per shard before falling back to degradation.
        max_per_shard: u32,
    },
}

/// Configuration knobs of the sharded runtime.
#[derive(Debug, Clone)]
pub struct ParallelOpts {
    /// Number of worker shards (graph clones / threads).
    pub shards: usize,
    /// Run each shard's engine in batched (vector) transfer mode.
    pub batching: bool,
    /// Packets per transfer batch: the injection side groups frames into
    /// bursts of this size, and batching shards use it as their engine
    /// burst ([`Router::set_batch_burst`]).
    pub burst: usize,
    /// Capacity (in batches) of each SPSC ring.
    pub ring_capacity: usize,
    /// Busy-poll backoff knob: how many times an idle endpoint spins
    /// before it starts yielding and napping ([`Backoff`]). When the
    /// configured threads oversubscribe the host's cores the runtime
    /// clamps this to a small ceiling so idle endpoints nap instead of
    /// stealing timeslices from busy ones; `pin_cores` disables the
    /// clamp.
    pub backoff_spins: u32,
    /// Number of parallel steerer threads. `0` (the default) steers on
    /// the injection thread exactly as before; `N ≥ 1` moves
    /// classification onto N dedicated threads that partition the input
    /// per flow ([`crate::steer::steerer_for`]) and push to the shard
    /// rings concurrently, so the steering stage stops serializing the
    /// front of the pipeline.
    pub steerers: usize,
    /// Grow/shrink the enqueue and dequeue bursts per ring from observed
    /// occupancy ([`AdaptiveBurst`]) instead of using the fixed `burst`.
    /// On by default: hot rings amortize hand-off over bigger bursts,
    /// cold rings fall back to the configured floor.
    pub adaptive_burst: bool,
    /// Ask for per-shard core affinity. This zero-dependency safe-Rust
    /// build has no OS affinity call, so the hint cannot literally pin
    /// threads; instead it switches workers to a latency-biased backoff
    /// profile (short nap cap) that assumes each shard owns its core.
    /// Leave off when shards outnumber cores.
    pub pin_cores: bool,
    /// What to do when a worker shard dies.
    pub recovery: Recovery,
    /// How long injection may make zero progress (all target rings full,
    /// nothing arriving) before [`ParallelRouter::try_flush`] /
    /// [`ParallelRouter::try_run_until_idle`] report a backpressure
    /// timeout, and how long `Drop` waits for workers before abandoning
    /// a wedged thread.
    pub wedge_timeout: Duration,
}

impl ParallelOpts {
    /// Defaults for `shards` workers: scalar engine, device burst,
    /// 256-batch rings, 128-spin backoff, degrade-on-fault, 10 s wedge
    /// timeout.
    pub fn new(shards: usize) -> ParallelOpts {
        ParallelOpts {
            shards,
            batching: false,
            burst: crate::elements::device::BURST,
            ring_capacity: 256,
            backoff_spins: 128,
            steerers: 0,
            adaptive_burst: true,
            pin_cores: false,
            recovery: Recovery::Degrade,
            wedge_timeout: CTRL_TIMEOUT,
        }
    }

    /// Enables batched (vector) transfers inside each shard.
    pub fn batched(mut self, burst: usize) -> ParallelOpts {
        self.batching = true;
        self.burst = burst.max(1);
        self
    }

    /// Runs classification on `n` parallel steerer threads (0 = steer
    /// on the injection thread).
    pub fn with_steerers(mut self, n: usize) -> ParallelOpts {
        self.steerers = n;
        self
    }

    /// Pins enqueue/dequeue bursts at the configured `burst` instead of
    /// adapting them to ring occupancy.
    pub fn fixed_burst(mut self) -> ParallelOpts {
        self.adaptive_burst = false;
        self
    }

    /// Requests the core-affinity pacing profile (see the field docs —
    /// a behavioral hint, not an OS-level pin, in this build).
    pub fn pin_cores(mut self) -> ParallelOpts {
        self.pin_cores = true;
        self
    }

    /// Sets the SPSC ring capacity (in batches).
    pub fn with_ring_capacity(mut self, capacity: usize) -> ParallelOpts {
        self.ring_capacity = capacity.max(1);
        self
    }

    /// Sets the busy-poll spin budget of every ring endpoint.
    pub fn with_backoff_spins(mut self, spins: u32) -> ParallelOpts {
        self.backoff_spins = spins;
        self
    }

    /// Restart dead shards from the retained graph, at most `max` times
    /// per shard.
    pub fn restart_on_fault(mut self, max: u32) -> ParallelOpts {
        self.recovery = Recovery::Restart { max_per_shard: max };
        self
    }

    /// Never restart: re-steer a dead shard's flows across survivors.
    pub fn degrade_on_fault(mut self) -> ParallelOpts {
        self.recovery = Recovery::Degrade;
        self
    }

    /// Sets the zero-progress deadline for injection and shutdown.
    pub fn with_wedge_timeout(mut self, t: Duration) -> ParallelOpts {
        self.wedge_timeout = t;
        self
    }
}

/// Knobs of a canary rollout ([`ParallelRouter::hot_swap_with`]).
#[derive(Debug, Clone, Copy)]
pub struct SwapOpts {
    /// How many packets the canary shard should process under the new
    /// configuration before its drop gauge is judged. The window also
    /// ends early when the buffered traffic drains.
    pub canary_window: u64,
    /// Allowed excess in the canary's drops-per-packet rate over the
    /// surviving shards' aggregate rate. A canary whose rate exceeds
    /// `survivor_rate + drop_margin` is rolled back.
    pub drop_margin: f64,
}

impl Default for SwapOpts {
    fn default() -> SwapOpts {
        SwapOpts {
            canary_window: 256,
            drop_margin: 0.05,
        }
    }
}

/// Reads the retained configuration graph, tolerating lock poisoning
/// (the lock only ever guards an `Arc` pointer swap, so a poisoned
/// value is still intact).
fn read_retained(retained: &RwLock<Arc<RouterGraph>>) -> Arc<RouterGraph> {
    match retained.read() {
        Ok(g) => Arc::clone(&g),
        Err(p) => Arc::clone(&p.into_inner()),
    }
}

/// Control-plane queries the injection thread sends to workers. Rare and
/// cheap; the packet path never touches this channel.
enum Ctrl {
    /// Liveness probe (the control-plane heartbeat).
    Ping,
    /// Read one element's named statistic.
    Stat(String, String),
    /// Sum a statistic across all elements of a class.
    ClassStat(String, String),
    /// Read the engine drop counters.
    EngineDrops,
    /// Snapshot the worker thread's packet-pool counters.
    PoolStats,
    /// Reset the worker thread's packet-pool counters.
    ResetPoolStats,
    /// Snapshot the shard's per-element telemetry profiles.
    Telemetry,
    /// Snapshot the shard's runtime gauges (ring depth, backoff).
    Gauges,
    /// Read the shard's aggregate drop gauge
    /// ([`Router::total_drops`]) — the canary-regression signal.
    DropGauge,
    /// Hot-swap the shard's engine to this configuration graph. Only the
    /// worker's main loop (which owns `&mut Router`) performs the swap;
    /// read-only contexts answer with a busy error.
    Swap(Arc<RouterGraph>),
    /// Cut a non-destructive checkpoint snapshot of the shard's engine.
    /// Same discipline as `Swap`: only the quiesced worker's main loop
    /// (which owns `&mut Router`) answers; elsewhere it is refused.
    Snapshot,
    /// Apply checkpoint element records to the shard's engine (warm
    /// restart). Same quiesced-main-loop-only discipline as `Swap`.
    Restore(Arc<RestorePlan>),
}

/// The element records (and drop-ledger target) a warm restart hands a
/// worker shard over the control plane. Plain `Send` data — packets are
/// byte records, re-materialized on the worker thread.
struct RestorePlan {
    elements: Vec<ElementRecord>,
    target_drops: u64,
}

/// Replies to [`Ctrl`] queries.
enum CtrlReply {
    Pong,
    Stat(Option<u64>),
    Value(u64),
    Drops {
        unconnected: u64,
        reentrant: u64,
    },
    Pool(PoolStats),
    Telemetry(Vec<ElementProfile>),
    Gauges(ShardGauges),
    /// Outcome of a [`Ctrl::Swap`] request against this shard's engine.
    Swapped(Result<SwapReport>),
    /// Outcome of a [`Ctrl::Snapshot`] request.
    Snapshot(Box<Result<EngineSnapshot>>),
    /// Outcome of a [`Ctrl::Restore`] request.
    Restored(Box<Result<RestoreStats>>),
    /// The worker has no router to answer with (build failure zombie).
    Gone,
}

/// Control messages the supervisor sends a steerer thread. Like
/// [`Ctrl`], rare and off the packet path.
enum SteerCtrl {
    /// Snapshot the steerer's gauges.
    Gauges,
    /// Drain the steerer's producer ring for a (dead) shard and hand the
    /// in-flight items back. The steerer executes this itself — it is
    /// the ring's single producer, so the reclaim is race-free — and
    /// the dead-shard mask (updated *before* this message was sent)
    /// guarantees it will never push to that shard again afterwards.
    Reclaim(usize),
    /// Install a fresh producer ring (and doorbell thread) for a
    /// restarted shard.
    Replace(usize, RingProducer<ShardItem>, Thread),
}

/// Replies to [`SteerCtrl`].
enum SteerReply {
    Gauges(SteerGauges),
    Reclaimed(Vec<ShardItem>),
    Done,
}

/// State a steerer thread shares with the supervisor.
#[derive(Debug, Default)]
struct SteererShared {
    heartbeat: AtomicU64,
    /// Raw injection batches fully classified and delivered. The
    /// supervisor balances this against its own enqueue counter to
    /// detect steering-stage idleness.
    processed_batches: AtomicU64,
}

/// Per-shard counters of traffic delivered *by steerer threads* (summed
/// over steerers). The supervisor adds these to its own direct enqueue
/// counters when judging worker idleness and in-flight loss. A steerer
/// increments them only after a successful ring push, and always before
/// bumping `processed_batches` — so once the steering stage reads idle,
/// these counters are exact.
#[derive(Debug, Default)]
struct SteeredCounters {
    batches: AtomicU64,
    pkts: AtomicU64,
}

/// A parked thread's doorbell. [`Backoff::snooze`] naps with
/// `park_timeout`, so any producer that knows the consumer's thread can
/// `unpark` it after a push and end the nap the moment work arrives
/// instead of when the timer expires. Worker and steerer threads are
/// addressed directly through their [`JoinHandle`]s; the supervisor can
/// be any thread (whichever one called `pump`), so it registers itself
/// here at pump entry and workers/steerers ring this bell when they
/// publish output or completion counters.
#[derive(Debug, Default)]
struct Doorbell {
    thread: Mutex<Option<Thread>>,
}

impl Doorbell {
    /// Registers the calling thread as the bell's current owner.
    fn register(&self) {
        if let Ok(mut t) = self.thread.lock() {
            *t = Some(std::thread::current());
        }
    }

    /// Unparks the registered owner (no-op before registration). A
    /// stale ring only costs the owner one spurious poll.
    fn ring(&self) {
        let t = self.thread.lock().ok().and_then(|t| t.clone());
        if let Some(t) = t {
            t.unpark();
        }
    }
}

/// Main-thread handle to one steerer thread.
struct Steerer {
    index: usize,
    to_steerer: RingProducer<ShardItem>,
    ctrl: mpsc::Sender<SteerCtrl>,
    reply: mpsc::Receiver<SteerReply>,
    /// Raw batches handed to this steerer (main thread only writer).
    enqueued_batches: u64,
    shared: Arc<SteererShared>,
    handle: Option<JoinHandle<()>>,
}

impl Steerer {
    /// Every handed-over batch classified and delivered.
    fn is_idle(&self) -> bool {
        self.shared.processed_batches.load(Ordering::Acquire) == self.enqueued_batches
    }

    /// Rings the steerer's doorbell: cuts short a backoff nap after a
    /// push to its input ring or a control send.
    fn wake(&self) {
        if let Some(h) = &self.handle {
            h.thread().unpark();
        }
    }

    /// Sends a control message and waits (bounded) for the answer.
    fn query(&self, q: SteerCtrl) -> Result<SteerReply> {
        let idx = self.index;
        self.ctrl
            .send(q)
            .map_err(|_| Error::runtime(format!("steerer {idx}: control channel closed")))?;
        self.wake();
        match self.reply.recv_timeout(CTRL_TIMEOUT) {
            Ok(r) => Ok(r),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(Error::runtime(format!(
                "steerer {idx}: control query timed out after {CTRL_TIMEOUT:?}"
            ))),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(Error::runtime(format!(
                "steerer {idx}: thread exited without answering"
            ))),
        }
    }
}

/// State a worker shares with the supervisor: the health word, a
/// heartbeat the worker bumps every poll, and completion counters the
/// supervisor balances against its own enqueue counters to detect both
/// idleness and in-flight loss.
#[derive(Debug, Default)]
struct WorkerShared {
    health: AtomicU8,
    heartbeat: AtomicU64,
    completed_batches: AtomicU64,
    completed_pkts: AtomicU64,
}

/// Main-thread handle to one worker shard (or to a dead predecessor
/// retired to the graveyard, kept for its statistics).
struct Worker {
    shard: usize,
    to_worker: RingProducer<ShardItem>,
    from_worker: RingConsumer<ShardItem>,
    ctrl: mpsc::Sender<Ctrl>,
    reply: mpsc::Receiver<CtrlReply>,
    /// Batches handed to this worker (main thread is the only writer).
    enqueued_batches: u64,
    /// Packets handed to this worker.
    enqueued_pkts: u64,
    shared: Arc<WorkerShared>,
    /// Restarts already spent on this shard slot (carried across
    /// replacements so the budget is per shard, not per incarnation).
    restarts: u32,
    /// Set once the supervisor has processed this worker's death; a dead
    /// worker is skipped by injection and counts as idle.
    dead: bool,
    /// [`SteeredCounters`] values at this incarnation's start: the
    /// supervisor subtracts them so a restarted worker is not charged
    /// with its predecessor's steered traffic.
    steered_batches_base: u64,
    steered_pkts_base: u64,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// All handed-over batches processed (a reconciled dead worker
    /// counts as idle: the supervisor already settled its accounts).
    /// `steered_batches` is what the steerer threads delivered to this
    /// incarnation on top of the supervisor's direct enqueues.
    fn is_idle_with(&self, steered_batches: u64) -> bool {
        self.dead
            || self.shared.completed_batches.load(Ordering::Acquire)
                == self.enqueued_batches + steered_batches
    }

    /// True when the worker is no longer processing packets: it
    /// panicked, failed to build, or its thread is gone.
    fn is_dead(&self) -> bool {
        if self.dead {
            return true;
        }
        match self.shared.health.load(Ordering::Acquire) {
            HEALTH_PANICKED | HEALTH_BUILD_FAILED => true,
            HEALTH_EXITED => true,
            _ => self.handle.as_ref().is_none_or(JoinHandle::is_finished),
        }
    }

    /// Rings the worker's doorbell: cuts short a backoff nap after a
    /// push to one of its inbound rings or a control send.
    fn wake(&self) {
        if let Some(h) = &self.handle {
            h.thread().unpark();
        }
    }

    /// Sends a control query and waits (bounded) for the answer.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when the worker is gone, answers [`CtrlReply::Gone`],
    /// or does not answer within [`CTRL_TIMEOUT`].
    fn query(&self, q: Ctrl) -> Result<CtrlReply> {
        let shard = self.shard;
        self.ctrl
            .send(q)
            .map_err(|_| Error::runtime(format!("shard {shard}: control channel closed")))?;
        self.wake();
        match self.reply.recv_timeout(CTRL_TIMEOUT) {
            Ok(CtrlReply::Gone) => Err(Error::runtime(format!(
                "shard {shard}: worker has no router (build failed)"
            ))),
            Ok(r) => Ok(r),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(Error::runtime(format!(
                "shard {shard}: control query timed out after {CTRL_TIMEOUT:?} (worker wedged?)"
            ))),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(Error::runtime(format!(
                "shard {shard}: worker exited without answering"
            ))),
        }
    }
}

/// A router running as N independent shards on worker threads, fed
/// through RSS flow steering and watched by a supervisor. See the module
/// docs for the architecture.
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_elements::element::Element;
/// use click_elements::packet::Packet;
/// use click_elements::parallel::{ParallelOpts, ParallelRouter};
///
/// let graph = read_config(
///     "FromDevice(in0) -> Counter -> Queue(64) -> ToDevice(out0);",
/// )?;
/// let mut router =
///     ParallelRouter::from_graph::<Box<dyn Element>>(&graph, ParallelOpts::new(2))?;
/// let in0 = router.device_id("in0").unwrap();
/// let out0 = router.device_id("out0").unwrap();
/// router.inject(in0, Packet::new(60));
/// router.run_until_idle();
/// assert_eq!(router.tx_len(out0), 1);
/// assert_eq!(router.class_stat("Counter", "count"), 1);
/// # Ok::<(), click_core::Error>(())
/// ```
pub struct ParallelRouter {
    workers: Vec<Worker>,
    /// Dead predecessors of restarted shards, kept alive (as zombies)
    /// so their statistics stay queryable until shutdown.
    graveyard: Vec<Worker>,
    steer: RssSteering,
    /// Parallel steerer threads (empty in serial-steering mode).
    steerers: Vec<Steerer>,
    /// Live-shard mask shared with the steerer threads.
    live_mask: Arc<SharedLiveMask>,
    /// Per-shard counters of traffic the steerer threads delivered.
    steered: Arc<Vec<SteeredCounters>>,
    /// Packets the steerer threads dropped for want of a live shard.
    steer_drops: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    /// Device names; a device's id is its index.
    devices: Vec<String>,
    /// Per-shard injection buffers, grouped into (device, burst) items
    /// (serial-steering mode, and fault-path re-injection).
    pending: Vec<Vec<ShardItem>>,
    /// Per-steerer injection buffers of raw, unclassified bursts
    /// (parallel-steering mode).
    pending_steer: Vec<Vec<ShardItem>>,
    /// Open-batch index per `(shard, device)` into `pending`: traffic
    /// that interleaves devices still fills device-coherent bursts
    /// instead of cutting a new batch on every device switch.
    /// Invalidated whenever the shard's groups are flushed or salvaged.
    pending_open: Vec<Vec<Option<usize>>>,
    /// Open-batch index per `(steerer, device)` into `pending_steer`
    /// (same role as `pending_open` for the raw pre-partition buffers).
    pending_steer_open: Vec<Vec<Option<usize>>>,
    /// Collected TX packets per device.
    tx: Vec<Vec<Packet>>,
    /// Reusable empty batch storage for injection grouping.
    storage: Vec<PacketBatch>,
    burst: usize,
    /// Per-shard adaptive enqueue burst (pinned at `burst` when
    /// adaptive sizing is off).
    burst_ctl: Vec<AdaptiveBurst>,
    /// Serial-steering-mode ingress gauges (classification self-time on
    /// the injection thread). Steerer threads track their own.
    serial_steer: SteerGaugeTracker,
    /// Memoized flow hashes for the serial-steering inject path (each
    /// steerer thread owns its own cache).
    steer_cache: FlowHashCache,
    /// The supervisor's doorbell: workers and steerers ring it when they
    /// publish output, so pump loops wake on delivery instead of on nap
    /// expiry.
    bell: Arc<Doorbell>,
    backoff_spins: u32,
    recovery: Recovery,
    wedge_timeout: Duration,
    faults: FaultGauges,
    swap: SwapGauges,
    /// The configuration the shards are (supposed to be) running:
    /// restarts rebuild from it, and a canary rollback re-installs it.
    /// A completed hot swap replaces it with the new graph.
    retained: Arc<RwLock<Arc<RouterGraph>>>,
    /// Spawns a replacement worker for a shard slot; the supervisor
    /// distributes the returned steerer producers.
    make_worker: MakeWorker,
    /// Validates a candidate configuration by building a prototype
    /// `Router<S>` on the calling thread (captures the engine type `S`),
    /// so a hot swap rejects a bad config before any worker sees it.
    validate: Validator,
    /// The device layer the [`crate::engine::Engine`] surface pumps:
    /// backends attached through the trait live here, so the engine's
    /// ledger and checkpoints cover their losses and parked TX.
    pub(crate) driver: DeviceDriver,
}

impl ParallelRouter {
    /// Builds and starts a sharded router over `graph`: validates the
    /// configuration, then spawns one worker thread per shard, each
    /// instantiating its own `Router<S>` from the standard element
    /// library.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Router::from_graph`] (configuration
    /// check failures, element construction errors), or
    /// [`Error::Runtime`] for an invalid shard count or a failed thread
    /// spawn; no threads are leaked in either case.
    pub fn from_graph<S: Slot + 'static>(
        graph: &RouterGraph,
        opts: ParallelOpts,
    ) -> Result<ParallelRouter> {
        if opts.shards < 1 || opts.shards > MAX_SHARDS {
            return Err(Error::runtime(format!(
                "shard count {} outside 1..={MAX_SHARDS}",
                opts.shards
            )));
        }
        if opts.ring_capacity < 1 {
            return Err(Error::runtime("ring capacity must be at least 1"));
        }
        if opts.steerers > MAX_STEERERS {
            return Err(Error::runtime(format!(
                "steerer count {} outside 0..={MAX_STEERERS}",
                opts.steerers
            )));
        }
        // Validate once on this thread so errors surface synchronously;
        // the prototype also yields the device name table.
        let prototype: Router<S> = Router::from_graph(graph, &Library::standard())?;
        let devices: Vec<String> = prototype
            .devices
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        drop(prototype);

        let stop = Arc::new(AtomicBool::new(false));
        let bell = Arc::new(Doorbell::default());
        let spins = effective_spins(&opts);
        let cfg = WorkerCfg {
            shard: 0,
            batching: opts.batching,
            burst: opts.burst,
            backoff_spins: spins,
            ring_capacity: opts.ring_capacity,
            steerers: opts.steerers,
            adaptive: opts.adaptive_burst,
            pin_cores: opts.pin_cores,
        };
        let retained = Arc::new(RwLock::new(Arc::new(graph.clone())));
        let make_worker: MakeWorker = {
            let retained = Arc::clone(&retained);
            let stop = Arc::clone(&stop);
            let bell = Arc::clone(&bell);
            Box::new(move |shard| {
                let graph = read_retained(&retained);
                spawn_worker::<S>(&graph, WorkerCfg { shard, ..cfg }, &stop, &bell)
            })
        };
        let validate: Validator =
            Box::new(|g| Router::<S>::from_graph(g, &Library::standard()).map(|_| ()));
        let mut workers = Vec::with_capacity(opts.shards);
        // Per steerer, that steerer's producer for each shard's ring.
        let mut steer_producers: Vec<Vec<RingProducer<ShardItem>>> =
            (0..opts.steerers).map(|_| Vec::new()).collect();
        for shard in 0..opts.shards {
            match make_worker(shard) {
                Ok((w, extra)) => {
                    for (j, p) in extra.into_iter().enumerate() {
                        steer_producers[j].push(p);
                    }
                    workers.push(w);
                }
                Err(e) => {
                    // Already-spawned workers exit on the stop flag
                    // instead of leaking as spinning threads.
                    stop.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        let live_mask = Arc::new(SharedLiveMask::new(opts.shards));
        let steered: Arc<Vec<SteeredCounters>> = Arc::new(
            (0..opts.shards)
                .map(|_| SteeredCounters::default())
                .collect(),
        );
        let steer_drops = Arc::new(AtomicU64::new(0));
        let worker_threads: Vec<Thread> = workers
            .iter()
            .map(|w| {
                w.handle
                    .as_ref()
                    .expect("freshly spawned worker has a thread handle")
                    .thread()
                    .clone()
            })
            .collect();
        let mut steerers = Vec::with_capacity(opts.steerers);
        for (index, outputs) in steer_producers.into_iter().enumerate() {
            let scfg = SteererCfg {
                index,
                shards: opts.shards,
                backoff_spins: spins,
                ring_capacity: opts.ring_capacity,
                adaptive: opts.adaptive_burst,
                pin_cores: opts.pin_cores,
            };
            match spawn_steerer(
                scfg,
                outputs,
                worker_threads.clone(),
                Arc::clone(&live_mask),
                Arc::clone(&steered),
                Arc::clone(&steer_drops),
                &stop,
                &bell,
            ) {
                Ok(s) => steerers.push(s),
                Err(e) => {
                    stop.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        let n_dev = devices.len();
        let burst = opts.burst.max(1);
        let burst_ctl = (0..opts.shards)
            .map(|_| {
                if opts.adaptive_burst {
                    AdaptiveBurst::new(burst, burst, burst.saturating_mul(8).min(256))
                } else {
                    AdaptiveBurst::fixed(burst)
                }
            })
            .collect();
        Ok(ParallelRouter {
            workers,
            graveyard: Vec::new(),
            steer: RssSteering::new(opts.shards),
            steerers,
            live_mask,
            steered,
            steer_drops,
            stop,
            devices,
            pending: (0..opts.shards).map(|_| Vec::new()).collect(),
            pending_open: (0..opts.shards).map(|_| vec![None; n_dev]).collect(),
            pending_steer: (0..opts.steerers).map(|_| Vec::new()).collect(),
            pending_steer_open: (0..opts.steerers).map(|_| vec![None; n_dev]).collect(),
            tx: (0..n_dev).map(|_| Vec::new()).collect(),
            storage: Vec::new(),
            burst,
            burst_ctl,
            serial_steer: SteerGaugeTracker::new(0),
            steer_cache: FlowHashCache::default(),
            bell,
            backoff_spins: spins,
            recovery: opts.recovery,
            wedge_timeout: opts.wedge_timeout,
            faults: FaultGauges {
                shards: opts.shards,
                live_shards: opts.shards,
                ..FaultGauges::default()
            },
            swap: SwapGauges::default(),
            retained,
            make_worker,
            validate,
            driver: DeviceDriver::new(),
        })
    }

    /// Number of parallel steerer threads (0 in serial-steering mode).
    pub fn steerer_count(&self) -> usize {
        self.steerers.len()
    }

    /// Whether the parallel steering stage and all its buffers are
    /// drained (vacuously true in serial-steering mode). Once this
    /// holds, the per-shard steered counters are stable.
    fn steering_idle(&self) -> bool {
        self.pending_steer.iter().all(Vec::is_empty) && self.steerers.iter().all(Steerer::is_idle)
    }

    /// Batches delivered to shard `i`'s current incarnation by the
    /// steerer threads.
    fn steered_batches(&self, i: usize) -> u64 {
        self.steered[i]
            .batches
            .load(Ordering::Acquire)
            .saturating_sub(self.workers[i].steered_batches_base)
    }

    /// Whether worker `i` has processed everything handed to it, from
    /// both the supervisor and the steerer threads. Only meaningful
    /// once [`ParallelRouter::steering_idle`] holds (the steered
    /// counters still grow while steerers run).
    fn worker_idle(&self, i: usize) -> bool {
        self.workers[i].is_idle_with(self.steered_batches(i))
    }

    /// All workers idle (steered counters included).
    fn workers_idle(&self) -> bool {
        (0..self.workers.len()).all(|i| self.worker_idle(i))
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Number of shards currently accepting traffic.
    pub fn live_shards(&self) -> usize {
        self.steer.live_count()
    }

    /// Supervisor fault gauges: shard deaths, restarts, degraded-mode
    /// entries, and in-flight packet loss. All zero on a healthy run.
    pub fn fault_gauges(&self) -> FaultGauges {
        FaultGauges {
            live_shards: self.steer.live_count(),
            shards: self.workers.len(),
            no_live_shard_drops: self.faults.no_live_shard_drops
                + self.steer_drops.load(Ordering::Acquire),
            ..self.faults
        }
    }

    /// Live-reconfiguration gauges: completed swaps, rollbacks, canary
    /// failures, packets transferred, and rejected configs. Always live
    /// (not feature-gated), like [`ParallelRouter::fault_gauges`].
    pub fn swap_gauges(&self) -> SwapGauges {
        self.swap
    }

    /// Sum of every live shard's engine drop counter (element drops plus
    /// unconnected-port and reentrancy drops — [`Router::total_drops`]
    /// per shard), plus packets dropped at injection because no live
    /// shard remained. Always live (not feature-gated); monotonic across
    /// hot swaps because each shard's counter survives its swap. Dead or
    /// unreachable shards contribute their last known nothing (0), so a
    /// reading during a fault can transiently understate.
    pub fn total_drops(&self) -> u64 {
        let engine: u64 = self
            .gauge_snapshot()
            .iter()
            .map(|s| s.map(|(d, _)| d).unwrap_or(0))
            .sum();
        engine + self.faults.no_live_shard_drops + self.steer_drops.load(Ordering::Acquire)
    }

    // ---- checkpoint/restore ---------------------------------------------

    /// Cuts a consistent snapshot across the whole sharded runtime:
    /// every live shard is quiesced through the same control-plane
    /// machinery hot swaps use (its ring drains; nothing new is handed
    /// to it), each shard's engine state is captured non-destructively
    /// ([`Router::checkpoint_snapshot`]), and the per-shard records are
    /// merged by element name — counters sum, queued packets concatenate
    /// in shard order. Supervisor-held traffic (buffered injection
    /// bursts not yet handed to a shard, collected TX not yet drained by
    /// the harness, TX the engine's device driver parked for a blocked
    /// backend) is captured too, so the checkpoint holds every packet
    /// the runtime owns, and its drop ledger includes the driver's
    /// device losses. The reported `quiesce_ns` spans the
    /// whole cut — the pause the data plane experienced.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when no live shard exists, a shard fails to
    /// quiesce within the wedge timeout, or a control query fails; the
    /// runtime keeps forwarding either way.
    pub fn checkpoint_snapshot(&mut self) -> Result<EngineSnapshot> {
        let t0 = Instant::now();
        let live: Vec<usize> = (0..self.workers.len())
            .filter(|&s| !self.workers[s].dead && !self.workers[s].is_dead())
            .collect();
        if live.is_empty() {
            return Err(Error::runtime("checkpoint: no live shard"));
        }
        for &s in &live {
            self.quiesce_shard(s)?;
        }
        // A shard can publish its last TX burst after the quiesce loop's
        // final collect and before its idle check; every live shard is
        // idle now, so one more collect picks that burst up.
        self.collect();
        let mut elements: Vec<ElementRecord> = Vec::new();
        let mut devices: Vec<DeviceRecord> = self
            .devices
            .iter()
            .map(|n| DeviceRecord {
                name: n.clone(),
                ..DeviceRecord::default()
            })
            .collect();
        for &s in &live {
            let snap = match self.workers[s].query(Ctrl::Snapshot)? {
                CtrlReply::Snapshot(r) => (*r)?,
                _ => {
                    return Err(Error::runtime(format!(
                        "shard {s}: unexpected control reply to snapshot"
                    )))
                }
            };
            for rec in snap.elements {
                match elements.iter_mut().find(|e| e.name == rec.name) {
                    Some(merged) => merged.absorb(&rec),
                    None => elements.push(rec),
                }
            }
            for dev in snap.devices {
                if let Some(d) = devices.iter_mut().find(|d| d.name == dev.name) {
                    d.rx.extend(dev.rx);
                    d.tx.extend(dev.tx);
                }
            }
        }
        // Supervisor-held packets: injection bursts still buffered for a
        // shard or steerer count as received-but-unprocessed (RX), and
        // the collected TX banks as transmitted-but-undrained.
        let buffered = self.pending.iter().chain(self.pending_steer.iter());
        for (dev, batch) in buffered.flatten() {
            if let Some(d) = devices.get_mut(dev.0) {
                d.rx.extend(batch.iter().map(PacketRecord::from_packet));
            }
        }
        // TX the device driver parked for a blocked backend is older
        // than the collected banks, so it goes first.
        for (name, parked) in self.driver.parked() {
            if let Some(d) = devices.iter_mut().find(|d| d.name == name) {
                d.tx.extend(parked.iter().map(PacketRecord::from_packet));
            }
        }
        for (i, q) in self.tx.iter().enumerate() {
            if let Some(d) = devices.get_mut(i) {
                d.tx.extend(q.iter().map(PacketRecord::from_packet));
            }
        }
        Ok(EngineSnapshot {
            elements,
            devices,
            total_drops: self.total_drops() + self.driver.lost(),
            quiesce_ns: t0.elapsed().as_nanos() as u64,
        })
    }

    /// Applies a decoded checkpoint to this (freshly built) sharded
    /// runtime: the element records and drop-ledger target land on the
    /// lowest-index live shard (per-element and per-class statistics sum
    /// across shards, so aggregate counters resume exactly), pending RX
    /// packets re-enter through normal injection (steering re-places
    /// them), and pending TX lands in the supervisor's collected banks
    /// for the harness to drain.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when no live shard exists or the shard cannot
    /// quiesce; the caller should degrade to a cold start, not crash.
    pub fn checkpoint_restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats> {
        let Some(shard) =
            (0..self.workers.len()).find(|&s| !self.workers[s].dead && !self.workers[s].is_dead())
        else {
            return Err(Error::runtime("restore: no live shard"));
        };
        self.quiesce_shard(shard)?;
        let plan = Arc::new(RestorePlan {
            elements: ckpt.elements.clone(),
            target_drops: ckpt.ledger.drops,
        });
        let mut stats = match self.workers[shard].query(Ctrl::Restore(plan))? {
            CtrlReply::Restored(r) => (*r)?,
            _ => {
                return Err(Error::runtime(format!(
                    "shard {shard}: unexpected control reply to restore"
                )))
            }
        };
        for dev in &ckpt.devices {
            match self.device_id(&dev.name) {
                Some(id) => {
                    stats.packets_restored += (dev.rx.len() + dev.tx.len()) as u64;
                    for pr in &dev.rx {
                        self.inject(id, pr.to_packet());
                    }
                    for pr in &dev.tx {
                        self.tx[id.0].push(pr.to_packet());
                    }
                }
                None => {
                    // No such device in this configuration: recorded
                    // both in the stats and in the drop ledger, so the
                    // cross-incarnation books still balance.
                    let n = (dev.rx.len() + dev.tx.len()) as u64;
                    stats.packets_orphaned += n;
                    self.faults.no_live_shard_drops += n;
                }
            }
        }
        Ok(stats)
    }

    /// Warm restart: builds a sharded runtime from the checkpoint's
    /// installed configuration text (the *optimized* config if the reopt
    /// loop had swapped one in) and applies its records.
    ///
    /// # Errors
    ///
    /// Configuration parse/check/construction errors, or the
    /// [`ParallelRouter::checkpoint_restore`] failures; the caller
    /// should degrade to a cold start from its source configuration.
    pub fn restore_from<S: Slot + 'static>(
        ckpt: &Checkpoint,
        opts: ParallelOpts,
    ) -> Result<(ParallelRouter, RestoreStats)> {
        let graph = click_core::lang::read_config(&ckpt.config)?;
        let mut router = ParallelRouter::from_graph::<S>(&graph, opts)?;
        let stats = router.checkpoint_restore(ckpt)?;
        Ok((router, stats))
    }

    /// Rolls `new_graph` out across the shards behind a canary with the
    /// default [`SwapOpts`]. See [`ParallelRouter::hot_swap_with`].
    ///
    /// # Errors
    ///
    /// Same as [`ParallelRouter::hot_swap_with`].
    pub fn hot_swap(&mut self, new_graph: &RouterGraph) -> Result<SwapReport> {
        self.hot_swap_with(new_graph, SwapOpts::default())
    }

    /// Live reconfiguration: installs `new_graph` with a two-phase canary
    /// rollout, preserving element state ([`Router::hot_swap`]) on every
    /// swapped shard.
    ///
    /// 1. **Validate.** The candidate graph is checked and a prototype
    ///    engine is built on this thread; a config that fails
    ///    `click_core::check::check` is rejected here — counted in
    ///    [`SwapGauges::rejected_configs`] — and no worker ever sees it.
    /// 2. **Canary.** The lowest-index live shard is quiesced (its ring
    ///    drains; other shards keep forwarding, so per-flow order on
    ///    their flows is untouched) and swapped to the new graph with
    ///    full state transfer.
    /// 3. **Window.** Buffered traffic is pumped until the canary has
    ///    processed [`SwapOpts::canary_window`] packets (or the traffic
    ///    drains), then the canary's drops-per-packet delta is compared
    ///    against the surviving shards' aggregate delta.
    /// 4. **Roll or roll back.** Within margin: every remaining live
    ///    shard is quiesced and swapped in turn and the new graph becomes
    ///    the retained configuration (future restarts build it). Past
    ///    margin: the canary is quiesced and swapped *back* to the
    ///    retained old graph — again with state transfer, so its counters
    ///    survive the round trip — and the old configuration stays
    ///    installed everywhere.
    ///
    /// Loss is bounded exactly as in the fault path: a quiesced shard
    /// swap loses nothing (queue contents and device queues transfer);
    /// packets the canary *dropped* while running a regressing config are
    /// visible in its drop gauges and reported via
    /// [`SwapReport::canary_drops`].
    ///
    /// # Errors
    ///
    /// [`Error::Check`] for an invalid config (old config untouched);
    /// [`Error::Runtime`] when no live shard exists, a shard fails to
    /// quiesce within the wedge timeout, or a worker's swap fails. If a
    /// later shard of the rollout fails, earlier shards keep the new
    /// graph while the retained configuration stays old — a retry (or a
    /// rollback swap to the old graph) converges the fleet.
    pub fn hot_swap_with(&mut self, new_graph: &RouterGraph, opts: SwapOpts) -> Result<SwapReport> {
        if let Err(e) = (self.validate)(new_graph) {
            self.swap.rejected_configs += 1;
            return Err(e);
        }
        self.supervise();
        let canary = (0..self.workers.len())
            .find(|&i| !self.workers[i].dead && !self.workers[i].is_dead())
            .ok_or_else(|| Error::runtime("hot swap: no live shard to canary"))?;
        let new_arc = Arc::new(new_graph.clone());

        // Phase 1: quiesce and swap the canary.
        self.quiesce_shard(canary)?;
        let before = self.gauge_snapshot();
        let mut report = self.swap_shard(canary, &new_arc)?;
        report.canary_shard = Some(canary);

        // Phase 2: the canary window, over whatever traffic the caller
        // has buffered. Non-canary shards process their share under the
        // old configuration and serve as the comparison baseline.
        let start_pkts = before[canary].map_or(0, |(_, p)| p);
        self.pump_window(canary, opts.canary_window, start_pkts);
        let after = self.gauge_snapshot();

        let (canary_drops, canary_pkts) = match (before[canary], after[canary]) {
            (Some((bd, bp)), Some((ad, ap))) => (ad.saturating_sub(bd), ap.saturating_sub(bp)),
            _ => (0, 0),
        };
        let mut surv_drops = 0u64;
        let mut surv_pkts = 0u64;
        for i in 0..self.workers.len() {
            if i == canary {
                continue;
            }
            if let (Some((bd, bp)), Some((ad, ap))) = (before[i], after[i]) {
                surv_drops += ad.saturating_sub(bd);
                surv_pkts += ap.saturating_sub(bp);
            }
        }
        let canary_rate = if canary_pkts > 0 {
            canary_drops as f64 / canary_pkts as f64
        } else {
            0.0
        };
        let surv_rate = if surv_pkts > 0 {
            surv_drops as f64 / surv_pkts as f64
        } else {
            0.0
        };
        let regressed = canary_pkts > 0 && canary_rate > surv_rate + opts.drop_margin;

        if regressed {
            // Auto-rollback: drain what the canary still holds under the
            // regressing config, measure the full faulty-regime drop
            // delta, then swap it back to the retained old graph.
            self.swap.canary_failures += 1;
            self.quiesce_shard(canary)?;
            let final_snap = self.gauge_snapshot();
            let old = read_retained(&self.retained);
            let rb = self.swap_shard(canary, &old)?;
            report.packets_transferred += rb.packets_transferred;
            report.packets_dropped += rb.packets_dropped;
            report.swapped_shards = 0;
            report.rolled_back = true;
            if let (Some((bd, bp)), Some((fd, fp))) = (before[canary], final_snap[canary]) {
                report.canary_drops = fd.saturating_sub(bd);
                report.canary_packets = fp.saturating_sub(bp);
            }
            self.swap.rollbacks += 1;
            self.swap.packets_transferred += report.packets_transferred;
            return Ok(report);
        }

        // Phase 3: roll the remaining live shards and retain the new
        // graph (restarts now rebuild it).
        report.canary_drops = canary_drops;
        report.canary_packets = canary_pkts;
        for i in 0..self.workers.len() {
            if i == canary || self.workers[i].dead || self.workers[i].is_dead() {
                continue;
            }
            self.quiesce_shard(i)?;
            let r = self.swap_shard(i, &new_arc)?;
            report.packets_transferred += r.packets_transferred;
            report.packets_dropped += r.packets_dropped;
            report.swapped_shards += 1;
        }
        match self.retained.write() {
            Ok(mut g) => *g = Arc::clone(&new_arc),
            Err(mut p) => **p.get_mut() = Arc::clone(&new_arc),
        }
        self.swap.swaps += 1;
        self.swap.packets_transferred += report.packets_transferred;
        Ok(report)
    }

    /// Waits (bounded) for one live shard to finish everything handed to
    /// it, without handing it anything new; other shards' pending traffic
    /// stays buffered too, but TX keeps draining.
    fn quiesce_shard(&mut self, shard: usize) -> Result<()> {
        let deadline = Instant::now() + self.wedge_timeout;
        self.bell.register();
        let mut backoff = Backoff::new(self.backoff_spins);
        loop {
            self.collect();
            self.supervise();
            if self.workers[shard].dead || self.workers[shard].is_dead() {
                return Err(Error::runtime(format!(
                    "hot swap: shard {shard} died while quiescing"
                )));
            }
            if self.steering_idle() && self.worker_idle(shard) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(Error::runtime(format!(
                    "hot swap: shard {shard} did not quiesce within {:?}",
                    self.wedge_timeout
                )));
            }
            backoff.snooze();
        }
    }

    /// Asks one worker to hot-swap its engine (it must be quiesced).
    fn swap_shard(&mut self, shard: usize, graph: &Arc<RouterGraph>) -> Result<SwapReport> {
        match self.workers[shard].query(Ctrl::Swap(Arc::clone(graph)))? {
            CtrlReply::Swapped(r) => r,
            _ => Err(Error::runtime(format!(
                "shard {shard}: unexpected control reply to swap"
            ))),
        }
    }

    /// Per-shard `(total_drops, completed_packets)` snapshot; `None` for
    /// shards that are dead or unreachable.
    fn gauge_snapshot(&self) -> Vec<Option<(u64, u64)>> {
        self.workers
            .iter()
            .map(|w| {
                if w.dead || w.is_dead() {
                    return None;
                }
                match w.query(Ctrl::DropGauge) {
                    Ok(CtrlReply::Value(d)) => {
                        Some((d, w.shared.completed_pkts.load(Ordering::Acquire)))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// Hands buffered traffic to the shards and pumps until the canary
    /// has processed `window` packets beyond `start_pkts`, everything
    /// drains, or the wedge timeout passes.
    fn pump_window(&mut self, canary: usize, window: u64, start_pkts: u64) {
        let deadline = Instant::now() + self.wedge_timeout;
        self.bell.register();
        let mut backoff = Backoff::new(self.backoff_spins);
        loop {
            self.flush();
            self.collect();
            let canary_pkts = self.workers[canary]
                .shared
                .completed_pkts
                .load(Ordering::Acquire)
                .saturating_sub(start_pkts);
            let idle = self.steering_idle()
                && self.workers_idle()
                && self.pending.iter().all(Vec::is_empty);
            if canary_pkts >= window || idle || Instant::now() >= deadline {
                return;
            }
            backoff.snooze();
        }
    }

    /// Looks up a device id by name (same table every shard uses).
    pub fn device_id(&self, name: &str) -> Option<DeviceId> {
        self.devices.iter().position(|d| d == name).map(DeviceId)
    }

    /// Device names in id order.
    pub fn device_names(&self) -> &[String] {
        &self.devices
    }

    /// The shard a frame received on `dev` steers to when every shard is
    /// live (exposed for tests and the core-scaling benchmark, which
    /// pre-partitions traces with the very same function).
    pub fn shard_for(&self, frame: &[u8], dev: DeviceId) -> usize {
        self.steer.shard_for(frame, dev)
    }

    /// Steers a packet to its (live) shard and buffers it for injection
    /// on `dev`. Call [`ParallelRouter::flush`] (or
    /// [`ParallelRouter::run_until_idle`]) to hand buffered bursts to
    /// the workers. If no live shard remains the packet is dropped and
    /// counted in [`FaultGauges::no_live_shard_drops`].
    ///
    /// In parallel-steering mode the packet is *not* classified here:
    /// it is handed (in per-flow deterministic fashion) to one of the
    /// steerer threads, which classifies and delivers it concurrently
    /// with this thread injecting the rest of the trace.
    pub fn inject(&mut self, dev: DeviceId, p: Packet) {
        if !self.steerers.is_empty() {
            // Cheap pre-partition only: full classification happens on
            // the steerer threads.
            let st = steerer_for(p.data(), dev, self.steerers.len());
            let groups = &mut self.pending_steer[st];
            let open = &mut self.pending_steer_open[st];
            if open.len() <= dev.0 {
                open.resize(dev.0 + 1, None);
            }
            match open[dev.0] {
                Some(i) if groups[i].1.len() < self.burst => groups[i].1.push(p),
                _ => {
                    let mut batch = self.storage.pop().unwrap_or_default();
                    batch.push(p);
                    open[dev.0] = Some(groups.len());
                    groups.push((dev, batch));
                }
            }
            return;
        }
        let t0 = telemetry::ENABLED.then(Instant::now);
        let Some(shard) = self
            .steer
            .live_shard_for_cached(p.data(), dev, &mut self.steer_cache)
        else {
            self.faults.no_live_shard_drops += 1;
            p.recycle();
            return;
        };
        if let Some(t0) = t0 {
            self.serial_steer
                .steered(0, 1, t0.elapsed().as_nanos() as u64);
        }
        let burst = self.burst_ctl[shard].get();
        let groups = &mut self.pending[shard];
        let open = &mut self.pending_open[shard];
        if open.len() <= dev.0 {
            open.resize(dev.0 + 1, None);
        }
        match open[dev.0] {
            Some(i) if groups[i].1.len() < burst => groups[i].1.push(p),
            _ => {
                let mut batch = self.storage.pop().unwrap_or_default();
                batch.push(p);
                open[dev.0] = Some(groups.len());
                groups.push((dev, batch));
                self.serial_steer.steered(1, 0, 0);
            }
        }
    }

    /// Enqueues every buffered burst onto its shard's ring, spinning
    /// with backpressure (and draining TX output) while rings are full,
    /// and supervising worker health while blocked. Returns the number
    /// of packets collected into the TX banks while waiting for ring
    /// space.
    ///
    /// If a live worker wedges (zero progress for the configured
    /// `wedge_timeout`), this returns early with the packets collected
    /// so far; un-handed bursts stay buffered. Use
    /// [`ParallelRouter::try_flush`] to observe the timeout as an error.
    pub fn flush(&mut self) -> usize {
        self.pump(false).0
    }

    /// Like [`ParallelRouter::flush`], but reports a wedged router.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when injection made no progress for the
    /// configured `wedge_timeout` (a live worker stopped consuming and
    /// its ring is full — backpressure timeout).
    pub fn try_flush(&mut self) -> Result<usize> {
        let (collected, r) = self.pump(false);
        r.map(|()| collected)
    }

    /// Drains every worker's outbound ring into the merged TX banks;
    /// returns how many packets arrived.
    pub fn collect(&mut self) -> usize {
        let mut moved = 0;
        let mut items: Vec<ShardItem> = Vec::new();
        for w in &mut self.workers {
            w.from_worker.pop_batch(usize::MAX, &mut items);
            for (dev, mut batch) in items.drain(..) {
                moved += batch.len();
                self.tx[dev.0].extend(batch.drain());
                if self.storage.len() < 64 {
                    self.storage.push(batch);
                }
            }
        }
        moved
    }

    /// Flushes buffered injections and busy-polls (with backoff) until
    /// every live shard has processed everything handed to it and all TX
    /// output has been collected, supervising worker health along the
    /// way. Returns the number of packets that arrived in the TX banks
    /// during this call.
    ///
    /// This is the sharded counterpart of [`Router::run_until_idle`].
    /// If a live worker wedges, returns early with what was collected;
    /// use [`ParallelRouter::try_run_until_idle`] to observe the timeout
    /// as an error.
    pub fn run_until_idle(&mut self) -> usize {
        self.pump(true).0
    }

    /// Like [`ParallelRouter::run_until_idle`], but reports a wedged
    /// router.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when no progress was made for the configured
    /// `wedge_timeout` while work was still outstanding.
    pub fn try_run_until_idle(&mut self) -> Result<usize> {
        let (collected, r) = self.pump(true);
        r.map(|()| collected)
    }

    /// The shared injection/collection engine. Pushes pending bursts,
    /// drains TX, supervises health when unproductive, and (for
    /// `until_idle`) waits for every live worker to finish. Returns the
    /// packets collected plus `Err` if progress stalled past the wedge
    /// timeout.
    fn pump(&mut self, until_idle: bool) -> (usize, Result<()>) {
        let mut collected = 0;
        self.bell.register();
        let mut backoff = Backoff::new(self.backoff_spins);
        let mut last_progress = Instant::now();
        // One cheap health sweep per burst of work — faults that occurred
        // since the last call are handled before new packets commit to a
        // dead shard's ring.
        self.supervise();
        loop {
            let mut progressed = false;
            // Hand raw bursts to the steerer threads (parallel-steering
            // mode; no-op otherwise).
            let mut outstanding = 0usize;
            for st in 0..self.steerers.len() {
                if self.pending_steer[st].is_empty() {
                    continue;
                }
                if self.steerers[st].to_steerer.is_full() {
                    outstanding += self.pending_steer[st].len();
                    continue;
                }
                let mut groups = std::mem::take(&mut self.pending_steer[st]);
                // Flushing shifts group indices; close every open batch.
                self.pending_steer_open[st]
                    .iter_mut()
                    .for_each(|o| *o = None);
                let n = self.steerers[st].to_steerer.push_batch(&mut groups);
                self.steerers[st].enqueued_batches += n as u64;
                if n > 0 {
                    progressed = true;
                    self.steerers[st].wake();
                }
                outstanding += groups.len();
                self.pending_steer[st] = groups;
            }
            // Hand classified bursts to their shards' rings.
            for shard in 0..self.workers.len() {
                if self.pending[shard].is_empty() {
                    continue;
                }
                if self.workers[shard].dead {
                    // Death detected mid-loop; supervise() re-steers.
                    outstanding += self.pending[shard].len();
                    continue;
                }
                if self.workers[shard].to_worker.is_full() {
                    outstanding += self.pending[shard].len();
                    continue;
                }
                let mut groups = std::mem::take(&mut self.pending[shard]);
                // Flushing shifts group indices; close every open batch.
                self.pending_open[shard].iter_mut().for_each(|o| *o = None);
                let before_pkts: usize = groups.iter().map(|(_, b)| b.len()).sum();
                let n = self.workers[shard].to_worker.push_batch(&mut groups);
                let after_pkts: usize = groups.iter().map(|(_, b)| b.len()).sum();
                self.workers[shard].enqueued_batches += n as u64;
                self.workers[shard].enqueued_pkts += (before_pkts - after_pkts) as u64;
                if n > 0 {
                    progressed = true;
                    self.workers[shard].wake();
                    let ring = &self.workers[shard].to_worker;
                    self.burst_ctl[shard].observe(ring.len(), ring.capacity());
                }
                outstanding += groups.len();
                self.pending[shard] = groups;
            }
            let got = self.collect();
            collected += got;
            if got > 0 {
                progressed = true;
            }
            // Done? The steering stage must drain first: its idleness
            // freezes the steered counters that worker idleness is
            // judged against.
            if outstanding == 0 {
                if !until_idle {
                    return (collected, Ok(()));
                }
                if self.steering_idle() && self.workers_idle() {
                    // Workers are done; one final sweep picks up anything
                    // published between the last collect and the idle
                    // check.
                    collected += self.collect();
                    return (collected, Ok(()));
                }
            }
            if progressed {
                last_progress = Instant::now();
                backoff.reset();
                continue;
            }
            // Unproductive poll: the cheap per-burst health-word check.
            if self.supervise() {
                last_progress = Instant::now();
                continue;
            }
            if last_progress.elapsed() >= self.wedge_timeout {
                return (
                    collected,
                    Err(Error::runtime(format!(
                        "backpressure timeout: no progress for {:?} with work outstanding \
                         (a worker shard appears wedged)",
                        self.wedge_timeout
                    ))),
                );
            }
            backoff.snooze();
        }
    }

    /// Scans worker health words and handles any newly dead shard:
    /// salvage, account, recover (restart or degrade), re-steer.
    /// Returns `true` if a fault was handled.
    fn supervise(&mut self) -> bool {
        let mut handled = false;
        for i in 0..self.workers.len() {
            if !self.workers[i].dead && self.workers[i].is_dead() {
                self.handle_dead_shard(i);
                handled = true;
            }
        }
        handled
    }

    /// The supervisor's fault path for one dead shard.
    fn handle_dead_shard(&mut self, shard: usize) {
        self.faults.shard_deaths += 1;
        self.steer.mark_dead(shard);
        // Steerer threads must stop targeting the shard *before* they
        // are asked to reclaim their rings: receiving Reclaim proves a
        // steerer has observed the dead bit (the mask write
        // happens-before the channel send), so after its reply it can
        // never push to this shard again.
        self.live_mask.mark_dead(shard);
        self.workers[shard].dead = true;

        // Salvage: everything still in the inbound rings (the dead
        // consumer is inert; the supervisor reclaims its own direct
        // ring, each steerer reclaims its own — every ring through its
        // single producer), every published TX burst in the outbound
        // ring, and every not-yet-enqueued pending burst, in FIFO order.
        let mut salvaged: Vec<ShardItem> = Vec::new();
        self.workers[shard].to_worker.reclaim(&mut salvaged);
        for st in &self.steerers {
            if let Ok(SteerReply::Reclaimed(items)) = st.query(SteerCtrl::Reclaim(shard)) {
                // Per-flow order survives concatenation: a flow lives in
                // exactly one steerer's ring.
                salvaged.extend(items);
            }
        }
        let ring_pkts: u64 = salvaged.iter().map(|(_, b)| b.len() as u64).sum();
        let mut published: Vec<ShardItem> = Vec::new();
        self.workers[shard]
            .from_worker
            .pop_batch(usize::MAX, &mut published);
        for (dev, mut batch) in published {
            self.tx[dev.0].extend(batch.drain());
            if self.storage.len() < 64 {
                self.storage.push(batch);
            }
        }
        salvaged.append(&mut self.pending[shard]);
        self.pending_open[shard].iter_mut().for_each(|o| *o = None);
        let salvaged_pkts: u64 = salvaged.iter().map(|(_, b)| b.len() as u64).sum();

        // Account the irrecoverable loss: packets handed to the worker
        // that it neither completed nor left in the rings were inside
        // the engine when it died. The steered counters are stable here:
        // every steerer answered Reclaim, so none will deliver more.
        let steered_p = self.steered[shard]
            .pkts
            .load(Ordering::Acquire)
            .saturating_sub(self.workers[shard].steered_pkts_base);
        let w = &mut self.workers[shard];
        let completed_b = w.shared.completed_batches.load(Ordering::Acquire);
        let completed_p = w.shared.completed_pkts.load(Ordering::Acquire);
        let lost = (w.enqueued_pkts + steered_p)
            .saturating_sub(completed_p)
            .saturating_sub(ring_pkts);
        self.faults.lost_packets += lost;
        self.faults.reclaimed_packets += salvaged_pkts;
        // Reconcile the dead worker's books so it reads as idle.
        w.enqueued_batches = completed_b;
        w.enqueued_pkts = completed_p;
        w.steered_batches_base = self.steered[shard].batches.load(Ordering::Acquire);
        w.steered_pkts_base = self.steered[shard].pkts.load(Ordering::Acquire);

        // Recover.
        let restart_budget = match self.recovery {
            Recovery::Restart { max_per_shard } => max_per_shard,
            Recovery::Degrade => 0,
        };
        let mut restarted = false;
        if self.workers[shard].restarts < restart_budget {
            match (self.make_worker)(shard) {
                Ok((mut fresh, producers)) => {
                    fresh.restarts = self.workers[shard].restarts + 1;
                    // The fresh incarnation is charged only for steered
                    // traffic delivered from now on.
                    fresh.steered_batches_base =
                        self.steered[shard].batches.load(Ordering::Acquire);
                    fresh.steered_pkts_base = self.steered[shard].pkts.load(Ordering::Acquire);
                    let old = std::mem::replace(&mut self.workers[shard], fresh);
                    self.graveyard.push(old);
                    let fresh_thread = self.workers[shard]
                        .handle
                        .as_ref()
                        .expect("freshly spawned worker has a thread handle")
                        .thread()
                        .clone();
                    // Hand every steerer its fresh producer *before*
                    // reviving the shard in the shared mask, so no
                    // steerer can steer to the shard while still holding
                    // the dead incarnation's ring.
                    for (st, p) in self.steerers.iter().zip(producers) {
                        let _ = st.query(SteerCtrl::Replace(shard, p, fresh_thread.clone()));
                    }
                    self.steer.mark_live(shard);
                    self.live_mask.mark_live(shard);
                    self.faults.restarts += 1;
                    restarted = true;
                }
                Err(_) => {
                    // Could not spawn a replacement; degrade instead.
                }
            }
        }
        if !restarted {
            self.faults.degraded_entries += 1;
        }

        // Re-inject the salvaged packets through the updated steering:
        // back to the restarted shard, or re-homed across survivors.
        for (dev, mut batch) in salvaged {
            for p in batch.drain() {
                self.inject(dev, p);
            }
            if self.storage.len() < 64 {
                self.storage.push(batch);
            }
        }
    }

    /// Health snapshot of every worker shard: `(shard, live, heartbeat,
    /// restarts)`. A live worker's heartbeat advances on every poll, so
    /// two snapshots distinguish busy from wedged.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.workers
            .iter()
            .map(|w| ShardHealth {
                shard: w.shard,
                live: !w.dead && !w.is_dead(),
                heartbeat: w.shared.heartbeat.load(Ordering::Relaxed),
                restarts: w.restarts,
            })
            .collect()
    }

    /// Pings a worker over the control plane.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when the shard index is out of range or the
    /// worker is gone/wedged.
    pub fn ping(&self, shard: usize) -> Result<()> {
        let w = self
            .workers
            .get(shard)
            .ok_or_else(|| Error::runtime(format!("no shard {shard}")))?;
        match w.query(Ctrl::Ping)? {
            CtrlReply::Pong => Ok(()),
            _ => Err(Error::runtime(format!(
                "shard {shard}: unexpected control reply to ping"
            ))),
        }
    }

    /// Number of packets transmitted on a device and collected so far.
    pub fn tx_len(&self, dev: DeviceId) -> usize {
        self.tx[dev.0].len()
    }

    /// Takes all collected TX packets for a device.
    pub fn take_tx(&mut self, dev: DeviceId) -> Vec<Packet> {
        std::mem::take(&mut self.tx[dev.0])
    }

    /// Drains collected TX packets for a device into a batch (storage
    /// stays warm, mirroring [`crate::router::DeviceBank::drain_tx_into`]).
    ///
    /// Same contract as the serial version: packets are *appended* to
    /// `into` (which need not be empty), and the return value counts only
    /// the packets appended by this call, not `into.len()`.
    pub fn drain_tx_into(&mut self, dev: DeviceId, into: &mut PacketBatch) -> usize {
        let before = into.len();
        let q = &mut self.tx[dev.0];
        let n = q.len();
        into.extend(q.drain(..));
        debug_assert_eq!(
            into.len(),
            before + n,
            "drain_tx_into must append exactly the drained packets"
        );
        n
    }

    /// Every worker that can still answer a control query: the live
    /// shards, zombies, and the graveyard (dead predecessors of
    /// restarted shards) — so merged statistics keep counting packets
    /// the dead saw.
    fn respondents(&self) -> impl Iterator<Item = &Worker> {
        self.workers.iter().chain(self.graveyard.iter())
    }

    /// Reads a named statistic from an element, summed across shards —
    /// the merged view that makes a sharded router answer like a serial
    /// one. `None` if no shard knows the element/statistic. Shards that
    /// cannot answer (gone, wedged) are skipped; use
    /// [`ParallelRouter::try_stat`] to observe those as errors.
    pub fn stat(&self, element: &str, stat: &str) -> Option<u64> {
        let mut total = None;
        for w in self.respondents() {
            if let Ok(CtrlReply::Stat(Some(v))) =
                w.query(Ctrl::Stat(element.to_owned(), stat.to_owned()))
            {
                *total.get_or_insert(0) += v;
            }
        }
        total
    }

    /// Like [`ParallelRouter::stat`], but propagates control-plane
    /// failures instead of skipping unreachable shards.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] if any shard fails to answer within
    /// [`CTRL_TIMEOUT`].
    pub fn try_stat(&self, element: &str, stat: &str) -> Result<Option<u64>> {
        let mut total = None;
        for w in self.respondents() {
            if let CtrlReply::Stat(Some(v)) =
                w.query(Ctrl::Stat(element.to_owned(), stat.to_owned()))?
            {
                *total.get_or_insert(0) += v;
            }
        }
        Ok(total)
    }

    /// Sum of a statistic across all elements of a class, across all
    /// shards (unreachable shards skipped).
    pub fn class_stat(&self, class: &str, stat: &str) -> u64 {
        self.respondents()
            .map(
                |w| match w.query(Ctrl::ClassStat(class.to_owned(), stat.to_owned())) {
                    Ok(CtrlReply::Value(v)) => v,
                    _ => 0,
                },
            )
            .sum()
    }

    /// Like [`ParallelRouter::class_stat`], but propagates control-plane
    /// failures.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] if any shard fails to answer within
    /// [`CTRL_TIMEOUT`].
    pub fn try_class_stat(&self, class: &str, stat: &str) -> Result<u64> {
        let mut total = 0;
        for w in self.respondents() {
            if let CtrlReply::Value(v) =
                w.query(Ctrl::ClassStat(class.to_owned(), stat.to_owned()))?
            {
                total += v;
            }
        }
        Ok(total)
    }

    /// Packets dropped on unconnected ports, summed across shards.
    pub fn unconnected_drops(&self) -> u64 {
        self.engine_drops().0
    }

    /// Packets dropped breaking configuration loops, summed across
    /// shards.
    pub fn reentrant_drops(&self) -> u64 {
        self.engine_drops().1
    }

    fn engine_drops(&self) -> (u64, u64) {
        let mut u = 0;
        let mut r = 0;
        for w in self.respondents() {
            if let Ok(CtrlReply::Drops {
                unconnected,
                reentrant,
            }) = w.query(Ctrl::EngineDrops)
            {
                u += unconnected;
                r += reentrant;
            }
        }
        (u, r)
    }

    /// Merged packet-pool counters of every worker thread (each shard
    /// allocates from its own thread-local pool).
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for w in self.respondents() {
            if let Ok(CtrlReply::Pool(s)) = w.query(Ctrl::PoolStats) {
                total.hits += s.hits;
                total.misses += s.misses;
                total.recycled += s.recycled;
                total.dropped += s.dropped;
            }
        }
        total
    }

    /// Resets every worker thread's packet-pool counters (benchmark
    /// warmup).
    pub fn reset_pool_stats(&self) {
        for w in self.respondents() {
            let _ = w.query(Ctrl::ResetPoolStats);
        }
    }

    /// Per-element telemetry profiles merged across shards: each worker
    /// snapshots its own engine's counters
    /// ([`Router::telemetry_profiles`]) and the control plane sums
    /// records by element name, so the merged profile reads like a
    /// serial run of the same graph. Zeroed counters unless the crate
    /// was built with the `telemetry` feature.
    pub fn telemetry_profiles(&self) -> Vec<ElementProfile> {
        let shards: Vec<Vec<ElementProfile>> = self
            .respondents()
            .filter_map(|w| match w.query(Ctrl::Telemetry) {
                Ok(CtrlReply::Telemetry(v)) => Some(v),
                _ => None,
            })
            .collect();
        telemetry::merge_profiles(&shards)
    }

    /// Runtime gauges of every worker shard, in shard order: inbound-ring
    /// occupancy high-water, backoff snoozes, and batches/packets
    /// processed. Zeroed unless built with the `telemetry` feature.
    pub fn shard_gauges(&self) -> Vec<ShardGauges> {
        self.workers
            .iter()
            .filter_map(|w| match w.query(Ctrl::Gauges) {
                Ok(CtrlReply::Gauges(mut g)) => {
                    g.shard = w.shard;
                    Some(g)
                }
                _ => None,
            })
            .collect()
    }

    /// Ingress-steering gauges: classification self-time, batches and
    /// packets steered, and snoozes, per steering context. In
    /// parallel-steering mode one row per steerer thread; in serial
    /// mode a single row for the injection thread's inline steering.
    /// Zeroed unless built with the `telemetry` feature.
    pub fn steer_gauges(&self) -> Vec<SteerGauges> {
        if self.steerers.is_empty() {
            return vec![self.serial_steer.snapshot()];
        }
        self.steerers
            .iter()
            .filter_map(|s| match s.query(SteerCtrl::Gauges) {
                Ok(SteerReply::Gauges(mut g)) => {
                    g.steerer = s.index;
                    Some(g)
                }
                _ => None,
            })
            .collect()
    }

    /// Stops the workers and joins their threads. Equivalent to dropping
    /// the router, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Orderly, bounded teardown: signal stop, keep draining TX so no
    /// worker deadlocks against a full outbound ring, join every thread
    /// that exits within the wedge timeout (wedged threads are
    /// abandoned, never blocked on), then reclaim and recycle every
    /// packet still sitting in the rings of joined workers so pool
    /// accounting balances even after an abortive teardown.
    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        let deadline = Instant::now() + self.wedge_timeout;
        loop {
            self.collect();
            let all_finished = self
                .workers
                .iter()
                .chain(self.graveyard.iter())
                .all(|w| w.handle.as_ref().is_none_or(JoinHandle::is_finished))
                && self
                    .steerers
                    .iter()
                    .all(|s| s.handle.as_ref().is_none_or(JoinHandle::is_finished));
            if all_finished || Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        let mut leftovers: Vec<ShardItem> = Vec::new();
        // Steerer threads first: once joined, their input rings can be
        // reclaimed through the producer side the supervisor holds.
        for s in &mut self.steerers {
            if let Some(h) = s.handle.take() {
                if h.is_finished() {
                    let _ = h.join();
                    s.to_steerer.reclaim(&mut leftovers);
                } else {
                    s.handle = None; // wedged: abandon, leave its rings alone
                }
            }
        }
        for groups in &mut self.pending_steer {
            leftovers.append(groups);
        }
        for w in self.workers.iter_mut().chain(self.graveyard.iter_mut()) {
            if let Some(h) = w.handle.take() {
                if h.is_finished() {
                    let _ = h.join();
                    // The consumer is gone: reclaim the inbound ring.
                    w.to_worker.reclaim(&mut leftovers);
                } else {
                    // Wedged thread: abandon it (detached). Its rings may
                    // still be touched, so leave them alone.
                    w.handle = None;
                }
            }
            w.from_worker.pop_batch(usize::MAX, &mut leftovers);
        }
        // Buffered-but-never-handed bursts also recycle.
        for groups in &mut self.pending {
            leftovers.append(groups);
        }
        for (_, mut batch) in leftovers.drain(..) {
            batch.recycle_packets();
        }
        self.collect();
    }
}

impl Drop for ParallelRouter {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One row of [`ParallelRouter::shard_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Whether the worker is alive and processing.
    pub live: bool,
    /// Poll-loop heartbeat (advances while the worker is responsive).
    pub heartbeat: u64,
    /// Restarts spent on this shard slot.
    pub restarts: u32,
}

/// Per-worker configuration handed to the worker thread.
#[derive(Clone, Copy)]
struct WorkerCfg {
    shard: usize,
    batching: bool,
    burst: usize,
    backoff_spins: u32,
    ring_capacity: usize,
    /// Number of steerer threads (each gets its own inbound ring into
    /// this worker, on top of the supervisor's direct ring).
    steerers: usize,
    /// Adapt the dequeue burst to ring occupancy.
    adaptive: bool,
    /// Latency-biased backoff profile (see [`ParallelOpts::pin_cores`]).
    pin_cores: bool,
}

/// A [`Backoff`] honoring the `pin_cores` pacing profile.
fn make_backoff(spins: u32, pin_cores: bool) -> Backoff {
    if pin_cores {
        Backoff::with_max_nap(spins, PINNED_NAP_CAP)
    } else {
        Backoff::new(spins)
    }
}

/// Creates the rings, channels, and thread for one worker shard. Also
/// returns the producer endpoints of the steerer inbound rings (in
/// steerer order) for the caller to distribute to the steerer threads.
fn spawn_worker<S: Slot + 'static>(
    graph: &Arc<RouterGraph>,
    cfg: WorkerCfg,
    stop: &Arc<AtomicBool>,
    bell: &Arc<Doorbell>,
) -> Result<(Worker, Vec<RingProducer<ShardItem>>)> {
    let (to_worker, worker_in) = spsc::<ShardItem>(cfg.ring_capacity);
    let mut inputs = vec![worker_in];
    let mut steer_producers = Vec::with_capacity(cfg.steerers);
    for _ in 0..cfg.steerers {
        let (p, c) = spsc::<ShardItem>(cfg.ring_capacity);
        steer_producers.push(p);
        inputs.push(c);
    }
    let (worker_out, from_worker) = spsc::<ShardItem>(cfg.ring_capacity);
    let (ctrl_tx, ctrl_rx) = mpsc::channel::<Ctrl>();
    let (reply_tx, reply_rx) = mpsc::channel::<CtrlReply>();
    let shared = Arc::new(WorkerShared::default());
    let g = Arc::clone(graph);
    let stop_w = Arc::clone(stop);
    let shared_w = Arc::clone(&shared);
    let bell_w = Arc::clone(bell);
    let handle = std::thread::Builder::new()
        .name(format!("click-shard-{}", cfg.shard))
        .spawn(move || {
            worker_main::<S>(
                &g, cfg, inputs, worker_out, ctrl_rx, reply_tx, stop_w, shared_w, bell_w,
            );
        })
        .map_err(|e| Error::runtime(format!("spawning shard {}: {e}", cfg.shard)))?;
    Ok((
        Worker {
            shard: cfg.shard,
            to_worker,
            from_worker,
            ctrl: ctrl_tx,
            reply: reply_rx,
            enqueued_batches: 0,
            enqueued_pkts: 0,
            shared,
            restarts: 0,
            dead: false,
            steered_batches_base: 0,
            steered_pkts_base: 0,
            handle: Some(handle),
        },
        steer_producers,
    ))
}

/// Per-steerer configuration handed to the steerer thread.
#[derive(Clone, Copy)]
struct SteererCfg {
    index: usize,
    shards: usize,
    backoff_spins: u32,
    ring_capacity: usize,
    adaptive: bool,
    pin_cores: bool,
}

/// Creates the input ring, control channels, and thread for one steerer.
/// `wakers[s]` is shard `s`'s worker thread: the steerer unparks it
/// after pushing into that worker's ring.
#[allow(clippy::too_many_arguments)]
fn spawn_steerer(
    cfg: SteererCfg,
    outputs: Vec<RingProducer<ShardItem>>,
    wakers: Vec<Thread>,
    mask: Arc<SharedLiveMask>,
    steered: Arc<Vec<SteeredCounters>>,
    drops: Arc<AtomicU64>,
    stop: &Arc<AtomicBool>,
    bell: &Arc<Doorbell>,
) -> Result<Steerer> {
    let (to_steerer, input) = spsc::<ShardItem>(cfg.ring_capacity);
    let (ctrl_tx, ctrl_rx) = mpsc::channel::<SteerCtrl>();
    let (reply_tx, reply_rx) = mpsc::channel::<SteerReply>();
    let shared = Arc::new(SteererShared::default());
    let stop_s = Arc::clone(stop);
    let shared_s = Arc::clone(&shared);
    let bell_s = Arc::clone(bell);
    let handle = std::thread::Builder::new()
        .name(format!("click-steer-{}", cfg.index))
        .spawn(move || {
            steerer_main(
                cfg, input, outputs, wakers, &mask, &steered, &drops, &ctrl_rx, &reply_tx, &stop_s,
                &shared_s, &bell_s,
            );
        })
        .map_err(|e| Error::runtime(format!("spawning steerer {}: {e}", cfg.index)))?;
    Ok(Steerer {
        index: cfg.index,
        to_steerer,
        ctrl: ctrl_tx,
        reply: reply_rx,
        enqueued_batches: 0,
        shared,
        handle: Some(handle),
    })
}

/// The steerer thread: pops raw injection bursts from its input ring,
/// classifies each packet against a fresh snapshot of the shared
/// live-shard mask, and pushes per-shard batches straight into the
/// worker rings it owns producers for. Per-flow order holds because the
/// injection thread partitions flows deterministically across steerers
/// ([`steerer_for`]) and one steerer processes its input FIFO.
#[allow(clippy::too_many_arguments)]
fn steerer_main(
    cfg: SteererCfg,
    input: RingConsumer<ShardItem>,
    mut outputs: Vec<RingProducer<ShardItem>>,
    mut wakers: Vec<Thread>,
    mask: &SharedLiveMask,
    steered: &[SteeredCounters],
    drops: &AtomicU64,
    ctrl: &mpsc::Receiver<SteerCtrl>,
    reply: &mpsc::Sender<SteerReply>,
    stop: &AtomicBool,
    shared: &SteererShared,
    bell: &Doorbell,
) {
    let mut backoff = make_backoff(cfg.backoff_spins, cfg.pin_cores);
    let mut inbox: Vec<ShardItem> = Vec::new();
    let mut scratch: Vec<PacketBatch> = (0..cfg.shards).map(|_| PacketBatch::default()).collect();
    let mut free: Vec<PacketBatch> = Vec::new();
    let mut hash_cache = FlowHashCache::default();
    let capacity = input.capacity();
    let mut deq = if cfg.adaptive {
        AdaptiveBurst::new(DEQUEUE_BURST, DEQUEUE_BURST, capacity.max(DEQUEUE_BURST))
    } else {
        AdaptiveBurst::fixed(DEQUEUE_BURST)
    };
    let gauges = SteerGaugeTracker::new(cfg.index);
    loop {
        shared.heartbeat.fetch_add(1, Ordering::Relaxed);
        answer_steer_ctrl(&mut outputs, &mut wakers, &gauges, ctrl, reply);
        let popped = input.pop_batch(deq.get(), &mut inbox);
        deq.observe(input.len(), capacity);
        if popped > 0 {
            backoff.reset();
            let t0 = telemetry::ENABLED.then(Instant::now);
            let mut pkts = 0u64;
            // Shards delivered to during this burst; each gets one
            // doorbell unpark at the end (per-batch unparks are futex
            // traffic that swamps small batches).
            let mut touched = 0u128;
            for (dev, mut batch) in inbox.drain(..) {
                pkts += batch.len() as u64;
                // One mask snapshot per burst: cheap, and any staleness
                // is recovered by the dead-target recheck in `deliver`
                // plus the supervisor's ring reclaim.
                let steering = RssSteering::with_live_mask(cfg.shards, mask.snapshot());
                for p in batch.drain() {
                    match steering.live_shard_for_cached(p.data(), dev, &mut hash_cache) {
                        Some(s) => scratch[s].push(p),
                        None => {
                            drops.fetch_add(1, Ordering::Relaxed);
                            p.recycle();
                        }
                    }
                }
                if free.len() < 64 {
                    free.push(batch);
                }
                for (s, slot) in scratch.iter_mut().enumerate() {
                    if slot.is_empty() {
                        continue;
                    }
                    let out = std::mem::replace(slot, free.pop().unwrap_or_default());
                    deliver(
                        dev,
                        s,
                        out,
                        &mut outputs,
                        &mut wakers,
                        mask,
                        steered,
                        drops,
                        &mut free,
                        &gauges,
                        ctrl,
                        reply,
                        stop,
                        &cfg,
                        &mut touched,
                    );
                }
            }
            for (s, w) in wakers.iter().enumerate() {
                if touched & (1u128 << s) != 0 {
                    w.unpark();
                }
            }
            gauges.steered(
                popped as u64,
                pkts,
                t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
            );
            // Release-publish completion *after* the steered counters,
            // so a supervisor that reads this steerer as idle also sees
            // every per-shard delivery it made.
            shared
                .processed_batches
                .fetch_add(popped as u64, Ordering::Release);
            bell.ring();
        } else if stop.load(Ordering::Acquire) && input.is_empty() {
            return;
        } else {
            gauges.snoozed();
            backoff.snooze();
        }
    }
}

/// Pushes one classified batch into a shard ring, spinning under
/// backpressure. Re-checks the shared live mask on every attempt: a
/// target that died mid-push is re-steered across the survivors (which
/// may fan the batch out to several shards), exactly like the
/// supervisor's salvage path — so a steerer can never wedge against a
/// dead consumer. Keeps answering steerer control messages while
/// blocked, so a supervisor Reclaim can never deadlock against a full
/// ring.
#[allow(clippy::too_many_arguments)]
fn deliver(
    dev: DeviceId,
    shard: usize,
    batch: PacketBatch,
    outputs: &mut [RingProducer<ShardItem>],
    wakers: &mut [Thread],
    mask: &SharedLiveMask,
    steered: &[SteeredCounters],
    drops: &AtomicU64,
    free: &mut Vec<PacketBatch>,
    gauges: &SteerGaugeTracker,
    ctrl: &mpsc::Receiver<SteerCtrl>,
    reply: &mpsc::Sender<SteerReply>,
    stop: &AtomicBool,
    cfg: &SteererCfg,
    touched: &mut u128,
) {
    let mut worklist: Vec<(usize, PacketBatch)> = vec![(shard, batch)];
    let mut backoff = make_backoff(cfg.backoff_spins, cfg.pin_cores);
    while let Some((s, mut batch)) = worklist.pop() {
        backoff.reset();
        loop {
            let m = mask.snapshot();
            if m & (1u128 << s) == 0 {
                // The target died since classification: re-steer the
                // whole batch under the fresh mask.
                let steering = RssSteering::with_live_mask(cfg.shards, m);
                let mut rerouted: Vec<(usize, PacketBatch)> = Vec::new();
                for p in batch.drain() {
                    match steering.live_shard_for(p.data(), dev) {
                        Some(t) => match rerouted.iter_mut().find(|(k, _)| *k == t) {
                            Some((_, b)) => b.push(p),
                            None => {
                                let mut b = free.pop().unwrap_or_default();
                                b.push(p);
                                rerouted.push((t, b));
                            }
                        },
                        None => {
                            drops.fetch_add(1, Ordering::Relaxed);
                            p.recycle();
                        }
                    }
                }
                if free.len() < 64 {
                    free.push(batch);
                }
                worklist.extend(rerouted);
                break;
            }
            let n = batch.len() as u64;
            match outputs[s].try_push((dev, batch)) {
                Ok(()) => {
                    steered[s].pkts.fetch_add(n, Ordering::Release);
                    steered[s].batches.fetch_add(1, Ordering::Release);
                    // Defer the worker's doorbell to the caller: one
                    // unpark per popped burst per shard, not per batch.
                    *touched |= 1u128 << s;
                    break;
                }
                Err((_, back)) => batch = back,
            }
            if stop.load(Ordering::Acquire) {
                batch.recycle_packets();
                break;
            }
            // The target may be napping on a full ring's far side only
            // if the *worker* stalled; wake it so it drains.
            wakers[s].unpark();
            answer_steer_ctrl(outputs, wakers, gauges, ctrl, reply);
            gauges.snoozed();
            backoff.snooze();
        }
    }
}

/// Answers every pending steerer control message. `Reclaim` drains this
/// steerer's producer ring for a dead shard (race-free: the steerer is
/// that ring's single producer, and the dead worker no longer pops);
/// `Replace` installs the restarted shard's fresh ring.
fn answer_steer_ctrl(
    outputs: &mut [RingProducer<ShardItem>],
    wakers: &mut [Thread],
    gauges: &SteerGaugeTracker,
    ctrl: &mpsc::Receiver<SteerCtrl>,
    reply: &mpsc::Sender<SteerReply>,
) {
    while let Ok(q) = ctrl.try_recv() {
        let r = match q {
            SteerCtrl::Gauges => SteerReply::Gauges(gauges.snapshot()),
            SteerCtrl::Reclaim(shard) => {
                let mut items = Vec::new();
                outputs[shard].reclaim(&mut items);
                SteerReply::Reclaimed(items)
            }
            SteerCtrl::Replace(shard, p, waker) => {
                outputs[shard] = p;
                wakers[shard] = waker;
                SteerReply::Done
            }
        };
        if reply.send(r).is_err() {
            return; // main side gone; shutdown is imminent
        }
    }
}

/// The worker thread: builds its shard's router clone and busy-polls the
/// inbound ring, forwarding each burst to quiescence and publishing TX
/// output. The packet loop runs under `catch_unwind`; on a panic the
/// worker publishes [`HEALTH_PANICKED`] and parks as a zombie that keeps
/// answering control queries (so the dead shard's statistics survive)
/// until shutdown.
#[allow(clippy::too_many_arguments)]
fn worker_main<S: Slot>(
    graph: &RouterGraph,
    cfg: WorkerCfg,
    inputs: Vec<RingConsumer<ShardItem>>,
    output: RingProducer<ShardItem>,
    ctrl: mpsc::Receiver<Ctrl>,
    reply: mpsc::Sender<CtrlReply>,
    stop: Arc<AtomicBool>,
    shared: Arc<WorkerShared>,
    bell: Arc<Doorbell>,
) {
    // The graph was validated on the main thread; a failure here is a
    // bug, surfaced as a health-word state rather than a panic.
    shared.health.store(HEALTH_RUNNING, Ordering::Release);
    let Ok(mut router) = Router::<S>::from_graph_in_shard(graph, &Library::standard(), cfg.shard)
    else {
        shared.health.store(HEALTH_BUILD_FAILED, Ordering::Release);
        bell.ring();
        zombie_loop::<S>(
            None,
            &ShardGaugeTracker::new(cfg.shard),
            &ctrl,
            &reply,
            &stop,
            &shared,
        );
        return;
    };
    router.set_batching(cfg.batching);
    router.set_batch_burst(cfg.burst);
    let mut n_dev = router.devices.len();

    let mut backoff = make_backoff(cfg.backoff_spins, cfg.pin_cores);
    let mut inbox: Vec<ShardItem> = Vec::new();
    let mut free: Vec<PacketBatch> = Vec::new();
    let mut gauges = ShardGaugeTracker::new(cfg.shard);
    // Dequeue burst: fixed floor, or occupancy-adapted per poll.
    let total_capacity: usize = inputs.iter().map(RingConsumer::capacity).sum();
    let mut deq = if cfg.adaptive {
        AdaptiveBurst::new(
            DEQUEUE_BURST,
            DEQUEUE_BURST,
            total_capacity.max(DEQUEUE_BURST),
        )
    } else {
        AdaptiveBurst::fixed(DEQUEUE_BURST)
    };
    loop {
        shared.heartbeat.fetch_add(1, Ordering::Relaxed);
        // Control drain. `Ctrl::Swap` is handled only here — the one
        // point with `&mut router` — so every other answer path can stay
        // read-only and simply report the shard as busy.
        while let Ok(q) = ctrl.try_recv() {
            let r = match q {
                Ctrl::Swap(g) => {
                    let outcome = router.hot_swap(&g, &Library::standard());
                    n_dev = router.devices.len();
                    CtrlReply::Swapped(outcome)
                }
                // Like `Swap`, the checkpoint paths need `&mut Router`
                // and a quiesced shard; only this loop has both.
                Ctrl::Snapshot => CtrlReply::Snapshot(Box::new(Ok(router.checkpoint_snapshot()))),
                Ctrl::Restore(plan) => CtrlReply::Restored(Box::new(Ok(router.restore_records(
                    &plan.elements,
                    &[],
                    plan.target_drops,
                )))),
                other => answer_one(&router, &gauges, other),
            };
            if reply.send(r).is_err() {
                break; // main side gone; shutdown is imminent
            }
        }
        // The gauge reads are const-folded away when telemetry is off
        // (`ENABLED` is false at compile time), keeping the poll loop
        // untouched.
        let depth = if telemetry::ENABLED {
            inputs.iter().map(RingConsumer::len).sum()
        } else {
            0
        };
        // Round-robin over the inbound rings (the supervisor's direct
        // ring plus one per steerer): up to the adaptive burst from
        // each, so no single producer starves the others.
        let burst = deq.get();
        let mut popped = 0;
        let mut occupancy = 0;
        for input in &inputs {
            popped += input.pop_batch(burst, &mut inbox);
            occupancy += input.len();
        }
        deq.observe(occupancy, total_capacity);
        if popped > 0 {
            backoff.reset();
            if telemetry::ENABLED {
                let packets = inbox.iter().map(|(_, b)| b.len() as u64).sum();
                gauges.polled(depth, popped as u64, packets);
            }
            // Fault isolation: a panic anywhere in the element graph is
            // confined to this shard. The router lives outside the catch
            // so its statistics remain readable afterwards.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for (dev, mut batch) in inbox.drain(..) {
                    let batch_pkts = batch.len() as u64;
                    for p in batch.drain() {
                        router.devices.inject(dev, p);
                    }
                    if free.len() < 64 {
                        free.push(batch);
                    }
                    router.run_until_idle(WORKER_ROUNDS);
                    for d in 0..n_dev {
                        let dev = DeviceId(d);
                        if router.devices.tx_len(dev) == 0 {
                            continue;
                        }
                        let mut out = free.pop().unwrap_or_default();
                        router.devices.drain_tx_into(dev, &mut out);
                        push_with_backpressure(
                            &output,
                            (dev, out),
                            &router,
                            &mut gauges,
                            &ctrl,
                            &reply,
                            &stop,
                            cfg.backoff_spins,
                            &bell,
                        );
                    }
                    shared.completed_batches.fetch_add(1, Ordering::Release);
                    shared
                        .completed_pkts
                        .fetch_add(batch_pkts, Ordering::Release);
                }
            }));
            // One doorbell ring per productive poll: the supervisor sees
            // the output batches and completion counters published above
            // without waiting out its own nap.
            bell.ring();
            if outcome.is_err() {
                // Unprocessed inbox items are part of the in-flight loss
                // the supervisor accounts; drop their buffers here.
                inbox.clear();
                shared.health.store(HEALTH_PANICKED, Ordering::Release);
                bell.ring();
                zombie_loop(Some(&router), &gauges, &ctrl, &reply, &stop, &shared);
                return;
            }
        } else if stop.load(Ordering::Acquire) && inputs.iter().all(RingConsumer::is_empty) {
            shared.health.store(HEALTH_EXITED, Ordering::Release);
            bell.ring();
            return;
        } else {
            gauges.snoozed();
            backoff.snooze();
        }
    }
}

/// The parked state of a dead worker: never touches packets again, but
/// keeps the control plane honest — statistics queries against the dead
/// shard's router still answer (stats salvage), and a build-failure
/// zombie answers [`CtrlReply::Gone`]. Exits when the runtime shuts
/// down or the main side drops the control channel.
fn zombie_loop<S: Slot>(
    router: Option<&Router<S>>,
    gauges: &ShardGaugeTracker,
    ctrl: &mpsc::Receiver<Ctrl>,
    reply: &mpsc::Sender<CtrlReply>,
    stop: &AtomicBool,
    shared: &WorkerShared,
) {
    loop {
        shared.heartbeat.fetch_add(1, Ordering::Relaxed);
        match router {
            Some(r) => answer_ctrl(r, gauges, ctrl, reply),
            None => {
                while let Ok(_q) = ctrl.try_recv() {
                    if reply.send(CtrlReply::Gone).is_err() {
                        break;
                    }
                }
            }
        }
        if stop.load(Ordering::Acquire) {
            shared.health.store(HEALTH_EXITED, Ordering::Release);
            return;
        }
        // Nothing to do but answer queries; sleep instead of spinning.
        match ctrl.recv_timeout(Duration::from_millis(1)) {
            Ok(q) => {
                let r = match router {
                    Some(rt) => answer_one(rt, gauges, q),
                    None => CtrlReply::Gone,
                };
                if reply.send(r).is_err() {
                    shared.health.store(HEALTH_EXITED, Ordering::Release);
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                shared.health.store(HEALTH_EXITED, Ordering::Release);
                return;
            }
        }
    }
}

/// Publishes one TX burst, spinning under backpressure. Keeps answering
/// control queries while blocked (so a stat query can never deadlock
/// against a full ring), and abandons the burst if the runtime is
/// shutting down.
#[allow(clippy::too_many_arguments)]
fn push_with_backpressure<S: Slot>(
    output: &RingProducer<ShardItem>,
    mut item: ShardItem,
    router: &Router<S>,
    gauges: &mut ShardGaugeTracker,
    ctrl: &mpsc::Receiver<Ctrl>,
    reply: &mpsc::Sender<CtrlReply>,
    stop: &AtomicBool,
    backoff_spins: u32,
    bell: &Doorbell,
) {
    let mut backoff = Backoff::new(backoff_spins);
    loop {
        match output.try_push(item) {
            Ok(()) => return,
            Err(back) => item = back,
        }
        if stop.load(Ordering::Acquire) {
            item.1.recycle_packets();
            return;
        }
        answer_ctrl(router, gauges, ctrl, reply);
        gauges.snoozed();
        // A full output ring means the supervisor fell behind on
        // collection; wake it before napping.
        bell.ring();
        backoff.snooze();
    }
}

/// Answers one control query against this shard's router.
fn answer_one<S: Slot>(router: &Router<S>, gauges: &ShardGaugeTracker, q: Ctrl) -> CtrlReply {
    match q {
        Ctrl::Ping => CtrlReply::Pong,
        Ctrl::Stat(elem, stat) => CtrlReply::Stat(router.stat(&elem, &stat)),
        Ctrl::ClassStat(class, stat) => CtrlReply::Value(router.class_stat(&class, &stat)),
        Ctrl::EngineDrops => CtrlReply::Drops {
            unconnected: router.unconnected_drops(),
            reentrant: router.reentrant_drops(),
        },
        Ctrl::PoolStats => CtrlReply::Pool(crate::packet::pool_stats()),
        Ctrl::ResetPoolStats => {
            crate::packet::reset_pool_stats();
            CtrlReply::Value(0)
        }
        Ctrl::Telemetry => CtrlReply::Telemetry(router.telemetry_profiles()),
        Ctrl::Gauges => CtrlReply::Gauges(gauges.snapshot()),
        Ctrl::DropGauge => CtrlReply::Value(router.total_drops()),
        // A swap needs `&mut Router`; only the worker's top-of-loop has
        // it. Anywhere else (zombies, backpressure stalls) the shard is
        // by definition not quiesced, so refuse.
        Ctrl::Swap(_) => CtrlReply::Swapped(Err(Error::runtime(
            "shard busy: hot swap requires a quiesced worker",
        ))),
        // The checkpoint paths share the swap discipline.
        Ctrl::Snapshot => CtrlReply::Snapshot(Box::new(Err(Error::runtime(
            "shard busy: checkpoint requires a quiesced worker",
        )))),
        Ctrl::Restore(_) => CtrlReply::Restored(Box::new(Err(Error::runtime(
            "shard busy: restore requires a quiesced worker",
        )))),
    }
}

/// Answers every pending control query against this shard's router.
fn answer_ctrl<S: Slot>(
    router: &Router<S>,
    gauges: &ShardGaugeTracker,
    ctrl: &mpsc::Receiver<Ctrl>,
    reply: &mpsc::Sender<CtrlReply>,
) {
    while let Ok(q) = ctrl.try_recv() {
        if reply.send(answer_one(router, gauges, q)).is_err() {
            return; // main side gone; shutdown is imminent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::headers::build_udp_packet;
    use click_core::lang::read_config;

    fn counter_graph() -> RouterGraph {
        read_config("FromDevice(in0) -> c :: Counter -> Queue(4096) -> ToDevice(out0);").unwrap()
    }

    fn udp(sport: u16, seq: u8) -> Packet {
        let mut p = build_udp_packet([1; 6], [2; 6], 0x0A000002, 0x0A000102, sport, 9, 18, 64);
        let n = p.len();
        p.data_mut()[n - 1] = seq;
        p
    }

    #[test]
    fn single_shard_forwards_everything() {
        let g = counter_graph();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(1)).unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        for i in 0..40u8 {
            r.inject(in0, udp(1000 + u16::from(i % 8), i));
        }
        let got = r.run_until_idle();
        assert_eq!(got, 40);
        assert_eq!(r.tx_len(out0), 40);
        assert_eq!(r.stat("c", "count"), Some(40));
        assert_eq!(r.class_stat("Counter", "count"), 40);
        assert_eq!(
            r.fault_gauges(),
            FaultGauges {
                live_shards: 1,
                shards: 1,
                ..FaultGauges::default()
            }
        );
        r.shutdown();
    }

    #[test]
    fn shards_preserve_per_flow_order() {
        let g = counter_graph();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(4).batched(8))
                .unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        // 8 flows × 16 packets, interleaved.
        for seq in 0..16u8 {
            for flow in 0..8u16 {
                r.inject(in0, udp(2000 + flow, seq));
            }
        }
        assert_eq!(r.run_until_idle(), 128);
        let tx = r.take_tx(out0);
        assert_eq!(tx.len(), 128);
        // Within each flow (source port), sequence numbers stay ordered.
        for flow in 0..8u16 {
            let seqs: Vec<u8> = tx
                .iter()
                .filter(|p| crate::steer::flow_key(p.data()).unwrap().3 == 2000 + flow)
                .map(|p| p.data()[p.len() - 1])
                .collect();
            assert_eq!(seqs, (0..16u8).collect::<Vec<_>>(), "flow {flow} reordered");
        }
        assert_eq!(r.class_stat("Counter", "count"), 128);
        assert_eq!(r.unconnected_drops(), 0);
    }

    #[test]
    fn workers_use_their_own_packet_pools() {
        let g = counter_graph();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2).batched(8))
                .unwrap();
        let in0 = r.device_id("in0").unwrap();
        r.reset_pool_stats();
        for i in 0..32u8 {
            r.inject(in0, udp(3000 + u16::from(i), 0));
        }
        r.run_until_idle();
        // The workers did the forwarding, so their (merged) pools saw the
        // traffic; exact counts depend on engine internals, but the
        // counters must be alive and shard-local.
        let _ = r.pool_stats();
        r.shutdown();
    }

    #[test]
    fn backpressure_survives_tiny_rings() {
        let g = counter_graph();
        let mut opts = ParallelOpts::new(2).batched(4);
        opts.ring_capacity = 2; // force both rings to fill repeatedly
        let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        for i in 0..200u16 {
            r.inject(in0, udp(4000 + (i % 16), (i / 16) as u8));
        }
        assert_eq!(r.run_until_idle(), 200, "no drops under backpressure");
        assert_eq!(r.tx_len(out0), 200);
    }

    #[test]
    fn invalid_config_errors_before_spawning() {
        let g = read_config("FromDevice(a) -> ToDevice(b);").unwrap();
        assert!(ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2)).is_err());
    }

    #[test]
    fn absurd_shard_counts_error() {
        let g = counter_graph();
        assert!(ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(0)).is_err());
        assert!(
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(129)).is_err()
        );
    }

    #[test]
    fn drop_joins_worker_threads() {
        let g = counter_graph();
        let r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(3)).unwrap();
        drop(r); // must not hang or leak spinning threads
    }

    #[test]
    fn steerer_mode_preserves_per_flow_order() {
        let g = counter_graph();
        let opts = ParallelOpts::new(4).batched(8).with_steerers(2);
        let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        for seq in 0..16u8 {
            for flow in 0..8u16 {
                r.inject(in0, udp(2000 + flow, seq));
            }
        }
        assert_eq!(r.run_until_idle(), 128);
        let tx = r.take_tx(out0);
        assert_eq!(tx.len(), 128);
        for flow in 0..8u16 {
            let seqs: Vec<u8> = tx
                .iter()
                .filter(|p| crate::steer::flow_key(p.data()).unwrap().3 == 2000 + flow)
                .map(|p| p.data()[p.len() - 1])
                .collect();
            assert_eq!(seqs, (0..16u8).collect::<Vec<_>>(), "flow {flow} reordered");
        }
        assert_eq!(r.class_stat("Counter", "count"), 128);
        r.shutdown();
    }

    #[test]
    fn steerer_mode_survives_tiny_rings() {
        let g = counter_graph();
        let mut opts = ParallelOpts::new(2).batched(4).with_steerers(3);
        opts.ring_capacity = 2; // steerer input + every shard ring tiny
        let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        for i in 0..200u16 {
            r.inject(in0, udp(4000 + (i % 16), (i / 16) as u8));
        }
        assert_eq!(r.run_until_idle(), 200, "no drops under backpressure");
        assert_eq!(r.tx_len(out0), 200);
    }

    #[test]
    fn steerer_mode_with_fixed_burst_and_pinning_forwards_everything() {
        let g = counter_graph();
        let opts = ParallelOpts::new(2)
            .batched(8)
            .with_steerers(2)
            .fixed_burst()
            .pin_cores();
        let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).unwrap();
        let in0 = r.device_id("in0").unwrap();
        for i in 0..64u8 {
            r.inject(in0, udp(5000 + u16::from(i % 8), i / 8));
        }
        assert_eq!(r.run_until_idle(), 64);
        r.shutdown();
    }

    #[test]
    fn steer_gauges_cover_every_steering_stage() {
        let g = counter_graph();
        // Serial steering: one record for the inject path.
        let r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2)).unwrap();
        let gauges = r.steer_gauges();
        assert_eq!(gauges.len(), 1);
        assert_eq!(gauges[0].steerer, 0);
        drop(r);
        // Parallel steering: one record per steerer, indexed.
        let opts = ParallelOpts::new(2).with_steerers(3);
        let r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).unwrap();
        let gauges = r.steer_gauges();
        assert_eq!(gauges.len(), 3);
        for (i, g) in gauges.iter().enumerate() {
            assert_eq!(g.steerer, i);
        }
        r.shutdown();
    }

    #[test]
    fn absurd_steerer_counts_error() {
        let g = counter_graph();
        let opts = ParallelOpts::new(2).with_steerers(MAX_STEERERS + 1);
        assert!(ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).is_err());
    }

    #[test]
    fn drop_joins_steerer_threads() {
        let g = counter_graph();
        let opts = ParallelOpts::new(2).with_steerers(4);
        let r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).unwrap();
        drop(r); // must not hang or leak spinning steerers
    }

    #[test]
    fn ping_and_health_report_live_workers() {
        let g = counter_graph();
        let r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2)).unwrap();
        r.ping(0).unwrap();
        r.ping(1).unwrap();
        assert!(r.ping(2).is_err(), "no such shard");
        let health = r.shard_health();
        assert_eq!(health.len(), 2);
        assert!(health.iter().all(|h| h.live && h.restarts == 0));
        r.shutdown();
    }
}

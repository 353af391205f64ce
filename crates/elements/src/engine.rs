//! One interface over both execution engines.
//!
//! The paper's optimizers are configuration-to-configuration filters,
//! so whatever runs their output runs it the same way. The serial
//! [`Router`] and the sharded [`ParallelRouter`] both implement
//! [`Engine`], and every tool, drill and test that drives a live router
//! is written against the trait once. [`build_engine`] maps the tools'
//! engine flags (compiled or dyn, shard count, batch burst) to a boxed
//! engine; [`restore_engine`] is its warm-restart twin.
//!
//! Both engines own their device layer — the serial router its
//! `DeviceBank`, the sharded router a [`crate::driver::DeviceDriver`] —
//! so one ledger holds on both at every quiescent point:
//!
//! ```text
//! offered == tx + drops()
//! ```

use crate::element::{DeviceId, Element};
use crate::fast::FastElement;
use crate::iodev::{PumpStats, SupervisedDevice};
use crate::packet::Packet;
use crate::parallel::{ParallelOpts, ParallelRouter};
use crate::persist::{Checkpoint, EngineSnapshot, RestoreStats};
use crate::router::{Router, Slot};
use crate::swap::SwapReport;
use crate::telemetry::{DeviceGauges, ElementProfile, FaultGauges, ShardGauges, SteerGauges};
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::registry::Library;

/// Frames moved per device per pump round by the sharded engine's
/// device driver.
const DRIVER_BURST: usize = 64;

/// A live router: inject and drain traffic, read its ledger and
/// telemetry, install a new configuration, cut and restore checkpoints,
/// and pump real device backends.
pub trait Engine {
    /// Resolves a device by configuration name.
    fn device(&self, name: &str) -> Option<DeviceId>;
    /// Configuration names of every device, in id order.
    fn device_names(&self) -> Vec<String>;
    /// Buffers a packet on a device's RX path. [`Engine::settle`] runs
    /// it, or, on the sharded engine, an install's canary window.
    fn inject(&mut self, dev: DeviceId, p: Packet);
    /// Runs until all injected traffic has drained.
    fn settle(&mut self);
    /// Takes the packets transmitted on a device so far.
    fn take_tx(&mut self, dev: DeviceId) -> Vec<Packet>;
    /// Takes every device's transmitted packets, in device order.
    fn drain_tx(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        for i in 0..self.device_names().len() {
            out.extend(self.take_tx(DeviceId(i)));
        }
        out
    }
    /// Every frame that left without being transmitted: element and
    /// engine drops plus device-layer losses. Monotonic across installs,
    /// so `offered == tx + drops()` at every quiescent point.
    fn drops(&self) -> u64;
    /// Cumulative per-element telemetry (merged across shards).
    fn profiles(&self) -> Vec<ElementProfile>;
    /// Hot-installs `graph` with state transfer. The sharded engine
    /// judges the install with a canary and may roll it back
    /// ([`SwapReport::rolled_back`]); a report with no
    /// [`SwapReport::canary_shard`] was installed unjudged, and the
    /// caller runs its own probation.
    ///
    /// # Errors
    ///
    /// The validation error of a rejected configuration (the old one
    /// keeps running), or a runtime error from the sharded rollout.
    fn install(&mut self, graph: &RouterGraph) -> Result<SwapReport>;
    /// Cuts a consistent snapshot of every packet the engine holds, its
    /// element state and its drop ledger, without disturbing forwarding.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] if the sharded engine cannot quiesce.
    fn snapshot(&mut self) -> Result<EngineSnapshot>;
    /// Applies a decoded checkpoint to this (freshly built) engine.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] if the sharded engine cannot reach a live
    /// shard.
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats>;
    /// Puts a supervised backend beneath device `name`.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when the configuration has no such device.
    fn attach(&mut self, name: &str, dev: SupervisedDevice) -> Result<()>;
    /// Opens a backend for every device whose name carries a backend
    /// scheme; returns how many were opened.
    ///
    /// # Errors
    ///
    /// Fails on the first spec that cannot be opened.
    fn open_backends(&mut self) -> Result<usize>;
    /// Pumps the attached backends and the graph until a round moves
    /// nothing and the sources are exhausted, or `max_rounds` passes.
    /// Returns the cumulative pump totals.
    ///
    /// # Errors
    ///
    /// The sharded engine's wedge timeouts.
    fn run_with_devices(&mut self, max_rounds: usize) -> Result<PumpStats>;
    /// Supervision gauges of every attached backend.
    fn device_gauges(&self) -> Vec<DeviceGauges>;
    /// Per-shard runtime gauges (none on the serial engine).
    fn shard_gauges(&self) -> Vec<ShardGauges> {
        Vec::new()
    }
    /// Steering-stage gauges (none on the serial engine).
    fn steer_gauges(&self) -> Vec<SteerGauges> {
        Vec::new()
    }
    /// Shard-supervisor fault gauges (`None` on the serial engine).
    fn fault_gauges(&self) -> Option<FaultGauges> {
        None
    }
}

/// Builds the engine the tools' flags select. `compiled` picks
/// devirtualized [`FastElement`] slots over `Box<dyn Element>`; more
/// than one shard in `opts` picks the sharded [`ParallelRouter`];
/// `opts.batching` and `opts.burst` set the serial engine's batch mode
/// as they set each shard's.
///
/// # Errors
///
/// Configuration check and element construction errors, or the sharded
/// runtime's start-up errors.
pub fn build_engine(
    graph: &RouterGraph,
    compiled: bool,
    opts: ParallelOpts,
) -> Result<Box<dyn Engine>> {
    Ok(match (compiled, opts.shards > 1) {
        (true, true) => Box::new(ParallelRouter::from_graph::<FastElement>(graph, opts)?),
        (false, true) => Box::new(ParallelRouter::from_graph::<Box<dyn Element>>(graph, opts)?),
        (true, false) => Box::new(serial::<FastElement>(graph, &opts)?),
        (false, false) => Box::new(serial::<Box<dyn Element>>(graph, &opts)?),
    })
}

/// Warm restart: builds the engine [`build_engine`] would from the
/// checkpoint's installed configuration text (the *optimized* config if
/// the reopt loop had swapped one in) and applies its records.
///
/// # Errors
///
/// Configuration parse, check and construction errors, or the
/// [`Engine::restore`] failures; the caller should degrade to a cold
/// start from its source configuration.
pub fn restore_engine(
    ckpt: &Checkpoint,
    compiled: bool,
    opts: ParallelOpts,
) -> Result<(Box<dyn Engine>, RestoreStats)> {
    let graph = click_core::lang::read_config(&ckpt.config)?;
    let mut engine = build_engine(&graph, compiled, opts)?;
    let stats = engine.restore(ckpt)?;
    Ok((engine, stats))
}

fn serial<S: Slot>(graph: &RouterGraph, opts: &ParallelOpts) -> Result<Router<S>> {
    let mut router: Router<S> = Router::from_graph(graph, &Library::standard())?;
    router.set_batching(opts.batching);
    router.set_batch_burst(opts.burst);
    Ok(router)
}

fn no_device(name: &str) -> Error {
    Error::runtime(format!("no device `{name}` in the configuration"))
}

impl<S: Slot> Engine for Router<S> {
    fn device(&self, name: &str) -> Option<DeviceId> {
        self.devices.id(name)
    }
    fn device_names(&self) -> Vec<String> {
        self.devices
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect()
    }
    fn inject(&mut self, dev: DeviceId, p: Packet) {
        self.devices.inject(dev, p);
    }
    fn settle(&mut self) {
        self.run_until_idle(1_000_000);
    }
    fn take_tx(&mut self, dev: DeviceId) -> Vec<Packet> {
        self.devices.take_tx(dev)
    }
    fn drops(&self) -> u64 {
        self.total_drops()
    }
    fn profiles(&self) -> Vec<ElementProfile> {
        self.telemetry_profiles()
    }
    fn install(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        self.hot_swap(graph, &Library::standard())
    }
    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        Ok(self.checkpoint_snapshot())
    }
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats> {
        Ok(self.restore_records(&ckpt.elements, &ckpt.devices, ckpt.ledger.drops))
    }
    fn attach(&mut self, name: &str, dev: SupervisedDevice) -> Result<()> {
        let id = self.devices.id(name).ok_or_else(|| no_device(name))?;
        self.devices.attach_supervised(id, dev);
        Ok(())
    }
    fn open_backends(&mut self) -> Result<usize> {
        self.devices.open_backends()
    }
    fn run_with_devices(&mut self, max_rounds: usize) -> Result<PumpStats> {
        Ok(Router::run_with_devices(self, max_rounds))
    }
    fn device_gauges(&self) -> Vec<DeviceGauges> {
        self.devices.device_gauges()
    }
}

impl Engine for ParallelRouter {
    fn device(&self, name: &str) -> Option<DeviceId> {
        self.device_id(name)
    }
    fn device_names(&self) -> Vec<String> {
        ParallelRouter::device_names(self).to_vec()
    }
    fn inject(&mut self, dev: DeviceId, p: Packet) {
        ParallelRouter::inject(self, dev, p);
    }
    fn settle(&mut self) {
        self.run_until_idle();
    }
    fn take_tx(&mut self, dev: DeviceId) -> Vec<Packet> {
        ParallelRouter::take_tx(self, dev)
    }
    fn drops(&self) -> u64 {
        self.total_drops() + self.driver.lost()
    }
    fn profiles(&self) -> Vec<ElementProfile> {
        self.telemetry_profiles()
    }
    fn install(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        self.hot_swap(graph)
    }
    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        self.checkpoint_snapshot()
    }
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats> {
        self.checkpoint_restore(ckpt)
    }
    fn attach(&mut self, name: &str, dev: SupervisedDevice) -> Result<()> {
        self.device_id(name).ok_or_else(|| no_device(name))?;
        self.driver.attach_supervised(name, dev);
        Ok(())
    }
    fn open_backends(&mut self) -> Result<usize> {
        let names = ParallelRouter::device_names(self).to_vec();
        self.driver.open_scheme_devices(&names)
    }
    fn run_with_devices(&mut self, max_rounds: usize) -> Result<PumpStats> {
        // The driver pumps the router it belongs to: lend it out for the
        // run so both can be borrowed mutably.
        let mut driver = std::mem::take(&mut self.driver);
        let stats = driver.run(self, DRIVER_BURST, max_rounds);
        self.driver = driver;
        stats
    }
    fn device_gauges(&self) -> Vec<DeviceGauges> {
        self.driver.gauges()
    }
    fn shard_gauges(&self) -> Vec<ShardGauges> {
        ParallelRouter::shard_gauges(self)
    }
    fn steer_gauges(&self) -> Vec<SteerGauges> {
        ParallelRouter::steer_gauges(self)
    }
    fn fault_gauges(&self) -> Option<FaultGauges> {
        Some(ParallelRouter::fault_gauges(self))
    }
}

impl<E: Engine + ?Sized> Engine for Box<E> {
    fn device(&self, name: &str) -> Option<DeviceId> {
        (**self).device(name)
    }
    fn device_names(&self) -> Vec<String> {
        (**self).device_names()
    }
    fn inject(&mut self, dev: DeviceId, p: Packet) {
        (**self).inject(dev, p);
    }
    fn settle(&mut self) {
        (**self).settle();
    }
    fn take_tx(&mut self, dev: DeviceId) -> Vec<Packet> {
        (**self).take_tx(dev)
    }
    fn drops(&self) -> u64 {
        (**self).drops()
    }
    fn profiles(&self) -> Vec<ElementProfile> {
        (**self).profiles()
    }
    fn install(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        (**self).install(graph)
    }
    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        (**self).snapshot()
    }
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats> {
        (**self).restore(ckpt)
    }
    fn attach(&mut self, name: &str, dev: SupervisedDevice) -> Result<()> {
        (**self).attach(name, dev)
    }
    fn open_backends(&mut self) -> Result<usize> {
        (**self).open_backends()
    }
    fn run_with_devices(&mut self, max_rounds: usize) -> Result<PumpStats> {
        (**self).run_with_devices(max_rounds)
    }
    fn device_gauges(&self) -> Vec<DeviceGauges> {
        (**self).device_gauges()
    }
    fn shard_gauges(&self) -> Vec<ShardGauges> {
        (**self).shard_gauges()
    }
    fn steer_gauges(&self) -> Vec<SteerGauges> {
        (**self).steer_gauges()
    }
    fn fault_gauges(&self) -> Option<FaultGauges> {
        (**self).fault_gauges()
    }
}

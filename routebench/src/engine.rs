//! The one adapter through which the benchmark calls the engines:
//!
//! * serial: [`Router`] pumped with `DeviceBank::pump`;
//! * sharded: [`ParallelRouter`] pumped with [`DeviceDriver`].
//!
//! Workload definitions never name an engine type; a common engine
//! interface in the program replaces this file and nothing else.

use crate::device::Port;
use crate::trace::Tracer;
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::registry::Library;
use click_elements::driver::DeviceDriver;
use click_elements::fast::FastElement;
use click_elements::packet::{pool_stats, reset_pool_stats};
use click_elements::parallel::{ParallelOpts, ParallelRouter};
use click_elements::persist::EngineSnapshot;
use click_elements::router::{Router, Slot};
use click_elements::swap::SwapReport;
use click_elements::telemetry::DeviceGauges;
use click_elements::{Element, SupervisedDevice};

/// Packets moved per device per pump round, and the engines' transfer
/// batch size.
pub const BURST: usize = 64;

/// Which engine runs the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The unoptimized reference: dyn dispatch, serial, unbatched.
    DynSerial,
    /// Compiled (devirtualized) serial engine, batched.
    Serial,
    /// Compiled engine on one worker shard behind the device driver.
    Sharded,
}

/// What one pump round moved.
#[derive(Debug, Default, Clone, Copy)]
pub struct Round {
    /// Frames received from backends.
    pub rx: u64,
    /// Frames handed to backends.
    pub tx: u64,
    /// Packets the graph moved.
    pub moved: u64,
}

impl Round {
    /// True when the round moved nothing.
    pub fn idle(&self) -> bool {
        self.rx == 0 && self.tx == 0 && self.moved == 0
    }
}

/// The engine surface the benchmark drives.
pub trait Engine {
    /// Puts a supervised backend beneath device `name`.
    fn attach(&mut self, name: &str, dev: SupervisedDevice) -> Result<()>;
    /// One pump round: backends to RX queues, the graph until idle, TX
    /// queues to backends. Records one span per call when tracing.
    fn round(&mut self, tr: &mut Tracer, rx: &Port, tx: &Port) -> Result<Round>;
    /// Frames dropped by the configuration (element and engine drops).
    fn policy_drops(&mut self) -> u64;
    /// Frames the device layer declared lost.
    fn device_lost(&mut self) -> u64;
    /// Installs a new configuration with state transfer.
    fn hot_swap(&mut self, graph: &RouterGraph) -> Result<SwapReport>;
    /// Cuts a consistent snapshot for a checkpoint. Its `total_drops`
    /// counts every frame that left without being transmitted: policy
    /// drops plus device losses.
    fn snapshot(&mut self) -> Result<EngineSnapshot>;
    /// Supervision gauges of every attached backend.
    fn device_gauges(&self) -> Vec<DeviceGauges>;
    /// Packet-pool hit rate since the last reset.
    fn pool_hit_rate(&self) -> f64;
    /// Resets the packet-pool counters.
    fn reset_pool(&self);
    /// Stops worker threads, waiting for them.
    fn shutdown(self: Box<Self>);
}

/// Builds an engine of `kind` from a configuration graph.
pub fn build(kind: EngineKind, graph: &RouterGraph) -> Result<Box<dyn Engine>> {
    Ok(match kind {
        EngineKind::DynSerial => Box::new(Serial::<Box<dyn Element>>::new(graph, false)?),
        EngineKind::Serial => Box::new(Serial::<FastElement>::new(graph, true)?),
        EngineKind::Sharded => Box::new(Sharded::new(graph)?),
    })
}

/// A serial router pumping its own device bank.
struct Serial<S: Slot> {
    router: Router<S>,
}

impl<S: Slot> Serial<S> {
    fn new(graph: &RouterGraph, batched: bool) -> Result<Serial<S>> {
        let mut router: Router<S> = Router::from_graph(graph, &Library::standard())?;
        if batched {
            router.set_batching(true);
            router.set_batch_burst(BURST);
        }
        Ok(Serial { router })
    }
}

impl<S: Slot> Engine for Serial<S> {
    fn attach(&mut self, name: &str, dev: SupervisedDevice) -> Result<()> {
        let id = self
            .router
            .devices
            .id(name)
            .ok_or_else(|| Error::runtime(format!("no device `{name}`")))?;
        self.router.devices.attach_supervised(id, dev);
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer, rx: &Port, tx: &Port) -> Result<Round> {
        let t = tr.start();
        let a = self.router.devices.pump(BURST);
        tr.pump_span("router.pump", t, (a.rx + a.tx) as u64, rx, tx);
        let t = tr.start();
        let moved = self.router.run_until_idle(usize::MAX) as u64;
        if tr.on() {
            tr.span("router.graph", t, moved);
        }
        let t = tr.start();
        let b = self.router.devices.pump(BURST);
        tr.pump_span("router.pump", t, (b.rx + b.tx) as u64, rx, tx);
        Ok(Round {
            rx: (a.rx + b.rx) as u64,
            tx: (a.tx + b.tx) as u64,
            moved,
        })
    }

    fn policy_drops(&mut self) -> u64 {
        self.router.total_drops() - self.router.devices.lost_packets()
    }

    fn device_lost(&mut self) -> u64 {
        self.router.devices.lost_packets()
    }

    fn hot_swap(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        self.router.hot_swap(graph, &Library::standard())
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        // The bank's device losses are part of `Router::total_drops`.
        Ok(self.router.checkpoint_snapshot())
    }

    fn device_gauges(&self) -> Vec<DeviceGauges> {
        self.router.devices.device_gauges()
    }

    fn pool_hit_rate(&self) -> f64 {
        pool_stats().hit_rate()
    }

    fn reset_pool(&self) {
        reset_pool_stats();
    }

    fn shutdown(self: Box<Self>) {}
}

/// One worker shard fed and drained by the device driver on the calling
/// thread.
struct Sharded {
    router: Option<ParallelRouter>,
    driver: DeviceDriver,
}

impl Sharded {
    fn new(graph: &RouterGraph) -> Result<Sharded> {
        let router =
            ParallelRouter::from_graph::<FastElement>(graph, ParallelOpts::new(1).batched(BURST))?;
        Ok(Sharded {
            router: Some(router),
            driver: DeviceDriver::new(),
        })
    }

    fn router(&mut self) -> &mut ParallelRouter {
        self.router.as_mut().expect("router lives until shutdown")
    }
}

impl Engine for Sharded {
    fn attach(&mut self, name: &str, dev: SupervisedDevice) -> Result<()> {
        if self.router().device_id(name).is_none() {
            return Err(Error::runtime(format!("no device `{name}`")));
        }
        self.driver.attach_supervised(name, dev);
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer, rx: &Port, tx: &Port) -> Result<Round> {
        let router = self.router.as_mut().expect("router lives until shutdown");
        let t = tr.start();
        let a = self.driver.pump(router, BURST)?;
        tr.pump_span("driver.pump", t, (a.rx + a.tx) as u64, rx, tx);
        let t = tr.start();
        let moved = router.try_run_until_idle()? as u64;
        if tr.on() {
            tr.span("parallel.idle_wait", t, moved);
        }
        let t = tr.start();
        let b = self.driver.pump(router, BURST)?;
        tr.pump_span("driver.pump", t, (b.rx + b.tx) as u64, rx, tx);
        Ok(Round {
            rx: (a.rx + b.rx) as u64,
            tx: (a.tx + b.tx) as u64,
            moved,
        })
    }

    fn policy_drops(&mut self) -> u64 {
        self.router().total_drops()
    }

    fn device_lost(&mut self) -> u64 {
        self.driver.lost()
    }

    fn hot_swap(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        self.router().hot_swap(graph)
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        let mut snap = self.router().checkpoint_snapshot()?;
        snap.total_drops += self.driver.lost();
        Ok(snap)
    }

    fn device_gauges(&self) -> Vec<DeviceGauges> {
        self.driver.gauges()
    }

    fn pool_hit_rate(&self) -> f64 {
        self.router
            .as_ref()
            .map_or(1.0, |r| r.pool_stats().hit_rate())
    }

    fn reset_pool(&self) {
        if let Some(r) = &self.router {
            r.reset_pool_stats();
        }
    }

    fn shutdown(mut self: Box<Self>) {
        if let Some(r) = self.router.take() {
            r.shutdown();
        }
    }
}

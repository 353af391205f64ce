//! Bridges real device backends to the sharded runtime.
//!
//! A [`crate::router::Router`] owns its `DeviceBank` and pumps backends
//! in place ([`crate::router::Router::run_with_devices`]); the sharded
//! [`ParallelRouter`] cannot, because each worker shard owns a private
//! bank on its own thread. [`DeviceDriver`] fills the gap: it owns the
//! supervised backends on the control thread, feeds received frames into
//! [`ParallelRouter::inject`] (which steers them across shards), and
//! drains the collected TX banks back out to the backends — with the same
//! supervision rules (retry, backoff, health, drain deadline) and the
//! same exact accounting: `injected == sent + router drops + device
//! losses` at every quiescent point. Every `ParallelRouter` owns one,
//! which the [`crate::engine::Engine`] surface attaches backends to and
//! pumps, so the sharded engine's `drops()` and checkpoint cuts cover
//! the device layer too.

use crate::batch::PacketBatch;
use crate::iodev::{open_backend, DeviceBackend, PumpStats, SendOutcome, SupervisedDevice};
use crate::packet::Packet;
use crate::parallel::ParallelRouter;
use crate::telemetry::DeviceGauges;
use click_core::error::{Error, Result};
use std::collections::VecDeque;

/// One driven device: its router-side name, its supervised backend, and
/// the TX frames the backend could not take yet (drain deadline running).
#[derive(Debug)]
struct DriverDev {
    name: String,
    sup: SupervisedDevice,
    pending: VecDeque<Packet>,
}

/// Pumps frames between supervised backends and a [`ParallelRouter`].
#[derive(Debug, Default)]
pub struct DeviceDriver {
    devs: Vec<DriverDev>,
    scratch: PacketBatch,
    injected: u64,
    sent: u64,
}

impl DeviceDriver {
    /// An empty driver; attach backends before pumping.
    pub fn new() -> DeviceDriver {
        DeviceDriver::default()
    }

    /// Attaches a backend (default supervision) under router device
    /// `name`.
    pub fn attach(&mut self, name: &str, backend: Box<dyn DeviceBackend>) {
        self.attach_supervised(name, SupervisedDevice::new(backend));
    }

    /// Attaches an already-supervised backend under router device `name`.
    pub fn attach_supervised(&mut self, name: &str, sup: SupervisedDevice) {
        self.devs.push(DriverDev {
            name: name.to_string(),
            sup,
            pending: VecDeque::new(),
        });
    }

    /// Opens a backend for every scheme-bearing name in `names`
    /// (typically [`ParallelRouter::device_names`]); scheme-less names
    /// are skipped. Returns how many backends were opened.
    ///
    /// # Errors
    ///
    /// Fails on the first spec that cannot be opened.
    pub fn open_scheme_devices(&mut self, names: &[String]) -> Result<usize> {
        let mut opened = 0;
        for name in names {
            if crate::iodev::backend_scheme(name).is_none() {
                continue;
            }
            if self.devs.iter().any(|d| d.name == *name) {
                continue;
            }
            self.attach(name, open_backend(name)?);
            opened += 1;
        }
        Ok(opened)
    }

    /// Frames injected into the router so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Frames delivered to backends so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Frames declared lost by the supervision layer (drain deadline,
    /// abandoned devices).
    pub fn lost(&self) -> u64 {
        self.devs.iter().map(|d| d.sup.lost()).sum()
    }

    /// TX frames parked at the driver waiting for sick backends.
    pub fn pending(&self) -> usize {
        self.devs.iter().map(|d| d.pending.len()).sum()
    }

    /// TX frames parked for each device, by router device name.
    pub(crate) fn parked(&self) -> impl Iterator<Item = (&str, &VecDeque<Packet>)> {
        self.devs.iter().map(|d| (d.name.as_str(), &d.pending))
    }

    /// True once every attached RX source is exhausted.
    pub fn all_exhausted(&self) -> bool {
        self.devs.iter().all(|d| d.sup.exhausted())
    }

    /// Always-live per-device gauges, in attach order.
    pub fn gauges(&self) -> Vec<DeviceGauges> {
        self.devs
            .iter()
            .map(|d| {
                let mut g = d.sup.gauges();
                g.device = d.name.clone();
                g
            })
            .collect()
    }

    /// One pump round: RX up to `burst` frames per device into the
    /// router, flush the steering, collect worker TX, and drain it back
    /// to the backends under supervision. Returns what moved.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Runtime`] from a device name the router does
    /// not know.
    pub fn pump(&mut self, r: &mut ParallelRouter, burst: usize) -> Result<PumpStats> {
        let mut stats = PumpStats::default();
        // RX: backends -> router.
        for d in &mut self.devs {
            let dev = r.device_id(&d.name).ok_or_else(|| {
                Error::runtime(format!("driver device `{}` not in the router", d.name))
            })?;
            d.sup.tick();
            for _ in 0..burst.max(1) {
                let Some(p) = d.sup.recv() else { break };
                r.inject(dev, p);
                self.injected += 1;
                stats.rx += 1;
            }
        }
        r.flush();
        r.collect();
        // TX: router banks -> backends; pending (blocked) frames first so
        // order per device is preserved.
        for d in &mut self.devs {
            let dev = r.device_id(&d.name).ok_or_else(|| {
                Error::runtime(format!("driver device `{}` not in the router", d.name))
            })?;
            // `scratch` is empty here: `take_all` below empties it and
            // keeps its storage warm for the next round.
            r.drain_tx_into(dev, &mut self.scratch);
            d.pending.extend(self.scratch.take_all());
            if d.pending.is_empty() {
                continue;
            }
            if d.sup.should_drop_pending() {
                let n = d.pending.len() as u64;
                for p in d.pending.drain(..) {
                    p.recycle();
                }
                d.sup.count_drain_lost(n);
                stats.lost += n;
                continue;
            }
            while let Some(p) = d.pending.pop_front() {
                match d.sup.send_pkt(p) {
                    SendOutcome::Sent => {
                        self.sent += 1;
                        stats.tx += 1;
                    }
                    SendOutcome::Lost => stats.lost += 1,
                    SendOutcome::Pending(p) => {
                        d.pending.push_front(p);
                        break;
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Pumps until a full round moves nothing, the workers are idle, and
    /// every backend is exhausted with no pending TX — or `max_rounds`
    /// passes (live sockets never exhaust; loop [`DeviceDriver::pump`]
    /// yourself for those). Returns cumulative totals.
    ///
    /// # Errors
    ///
    /// Propagates pump errors and worker wedge timeouts.
    pub fn run(
        &mut self,
        r: &mut ParallelRouter,
        burst: usize,
        max_rounds: usize,
    ) -> Result<PumpStats> {
        let mut totals = PumpStats::default();
        for _ in 0..max_rounds {
            let round = self.pump(r, burst)?;
            let moved = r.try_run_until_idle()?;
            // Collect what the idle run produced before judging quiescence.
            let drain = self.pump(r, burst)?;
            totals.absorb(round);
            totals.absorb(drain);
            if round.idle() && drain.idle() && moved == 0 {
                if self.all_exhausted() && self.pending() == 0 {
                    break;
                }
                // Blocked TX with the deadline still running: give the
                // supervision clock a moment to progress.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        Ok(totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iodev::MemBackend;
    use crate::parallel::ParallelOpts;
    use click_core::lang::read_config;

    fn udp_frame(seq: u8) -> Vec<u8> {
        // Minimal Ethernet + IPv4 + UDP frame the steerer can hash.
        let mut f = vec![0u8; 60];
        f[12] = 0x08; // ethertype IPv4
        f[23] = 17; // protocol UDP
        f[30] = 10; // dst ip 10.0.0.x
        f[33] = seq;
        f
    }

    #[test]
    fn driver_pumps_parallel_router() {
        let g =
            read_config("FromDevice(in0) -> c :: Counter -> q :: Queue(256) -> ToDevice(out0);")
                .unwrap();
        let mut r = ParallelRouter::from_graph::<Box<dyn crate::element::Element>>(
            &g,
            ParallelOpts::new(2).batched(8),
        )
        .unwrap();
        let mut drv = DeviceDriver::new();
        let (in_be, in_q) = MemBackend::with_handles();
        let (out_be, out_q) = MemBackend::with_handles();
        drv.attach("in0", Box::new(in_be));
        drv.attach("out0", Box::new(out_be));
        for i in 0..20 {
            in_q.push_rx(&udp_frame(i));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while drv.sent() < 20 && std::time::Instant::now() < deadline {
            drv.pump(&mut r, 8).unwrap();
            r.run_until_idle();
        }
        drv.pump(&mut r, 8).unwrap();
        assert_eq!(drv.injected(), 20);
        assert_eq!(drv.sent(), 20);
        assert_eq!(drv.lost(), 0);
        assert_eq!(out_q.tx_len(), 20);
        let gauges = drv.gauges();
        assert_eq!(gauges[0].rx_packets, 20);
        assert_eq!(gauges[1].tx_packets, 20);
        r.shutdown();
    }

    #[test]
    fn driver_rejects_unknown_device() {
        let g = read_config("FromDevice(in0) -> Discard;").unwrap();
        let mut r = ParallelRouter::from_graph::<Box<dyn crate::element::Element>>(
            &g,
            ParallelOpts::new(1),
        )
        .unwrap();
        let mut drv = DeviceDriver::new();
        drv.attach("nosuch", Box::new(MemBackend::echo()));
        assert!(drv.pump(&mut r, 8).is_err());
        r.shutdown();
    }
}

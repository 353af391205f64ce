//! The benchmark's side of the device layer: pacing and timing wrappers
//! around the repository's own backends.
//!
//! Both wrappers sit *under* `SupervisedDevice` (the engine owns them),
//! so they talk to the benchmark loop through a shared [`Port`] of
//! atomics. Everything runs on the driving thread; the atomics only make
//! the sharing `Send`.

use crate::workload::read_seq;
use click_elements::iodev::{DeviceBackend, IoFault, IoResult, PcapBackend};
use click_elements::packet::Packet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock for due
/// times, release times and send times.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Counters one wrapper shares with the benchmark loop.
#[derive(Debug, Default)]
pub struct Port {
    /// Time backend calls while set (traced runs only).
    pub trace: AtomicBool,
    /// Nanoseconds spent inside the wrapped backend since the last take.
    pub busy_ns: AtomicU64,
    /// Frames moved since the last take (traced runs only).
    pub frames: AtomicU64,
    /// Backend calls (traced runs only).
    pub calls: AtomicU64,
    /// Calls answered `WouldBlock` (traced runs only).
    pub would_block: AtomicU64,
}

impl Port {
    /// Takes and resets the busy time and frame count of a round.
    pub fn take_round(&self) -> (u64, u64) {
        (self.busy_ns.swap(0, Relaxed), self.frames.swap(0, Relaxed))
    }

    /// Runs one backend call, timing it and counting the frame when
    /// tracing. Untraced runs pay one relaxed load.
    fn timed<T>(&self, moved: impl Fn(&T) -> bool, f: impl FnOnce() -> T) -> T {
        if !self.trace.load(Relaxed) {
            return f();
        }
        let t0 = now_ns();
        let r = f();
        self.busy_ns.fetch_add(now_ns() - t0, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        if moved(&r) {
            self.frames.fetch_add(1, Relaxed);
        }
        r
    }

    fn count_would_block(&self) {
        if self.trace.load(Relaxed) {
            self.calls.fetch_add(1, Relaxed);
            self.would_block.fetch_add(1, Relaxed);
        }
    }
}

/// The release schedule of the ingress frames, set by the benchmark
/// loop and obeyed by [`RxGate`].
#[derive(Debug)]
pub struct Schedule {
    /// Frames released so far (cumulative over the run).
    pub released: AtomicU64,
    /// Release no frame past this cumulative count.
    pub limit: AtomicU64,
    /// Paced phase: frame `k` of the phase is due at
    /// `epoch_ns + (k - first) * period_ps / 1000`. Zero period means
    /// closed loop (release as fast as the router pulls).
    pub period_ps: AtomicU64,
    /// Start of the paced phase on the [`now_ns`] clock.
    pub epoch_ns: AtomicU64,
    /// Cumulative release count at the start of the paced phase.
    pub first: AtomicU64,
    /// Due time of the frame last released with each sequence number.
    pub due_ns: Vec<AtomicU64>,
    /// Send time of the frame last transmitted with each sequence number.
    pub sent_ns: Vec<AtomicU64>,
    /// Release lateness in the paced phase, log-linear histogram.
    pub lag: Histogram,
    /// Start the source over at its first frame before the next release.
    pub rewind: AtomicBool,
}

impl Schedule {
    /// A closed-loop schedule for a trace of `n` frames.
    pub fn new(n: usize) -> Schedule {
        Schedule {
            released: AtomicU64::new(0),
            limit: AtomicU64::new(0),
            period_ps: AtomicU64::new(0),
            epoch_ns: AtomicU64::new(0),
            first: AtomicU64::new(0),
            due_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sent_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lag: Histogram::default(),
            rewind: AtomicBool::new(false),
        }
    }

    fn slot(&self, seq: u32) -> usize {
        seq as usize % self.due_ns.len()
    }

    /// Due time of the next frame, or `None` when it may go now.
    fn next_due(&self, k: u64) -> Option<u64> {
        let period = self.period_ps.load(Relaxed);
        if period == 0 {
            return None;
        }
        let idx = k - self.first.load(Relaxed);
        Some(self.epoch_ns.load(Relaxed) + (u128::from(idx) * u128::from(period) / 1000) as u64)
    }

    /// Latency of a transmitted frame: its send time minus its due time.
    pub fn latency_ns(&self, frame: &[u8]) -> Option<u64> {
        let s = self.slot(read_seq(frame)?);
        let sent = self.sent_ns[s].load(Relaxed);
        Some(sent.saturating_sub(self.due_ns[s].load(Relaxed)))
    }
}

/// Where the gated frames come from.
#[derive(Debug)]
enum Inner {
    /// A pcap file, re-opened from the start whenever it runs out while
    /// the schedule still wants frames.
    Pcap { path: String, backend: PcapBackend },
    /// Any other backend (the in-memory one).
    Other(Box<dyn DeviceBackend>),
}

/// RX wrapper: releases frames from the real backend on the
/// [`Schedule`], stamps their due times, and times the backend.
#[derive(Debug)]
pub struct RxGate {
    inner: Inner,
    port: Arc<Port>,
    sched: Arc<Schedule>,
}

impl RxGate {
    /// Gates a pcap replay of `path`.
    pub fn pcap(path: &str, port: Arc<Port>, sched: Arc<Schedule>) -> click_core::Result<RxGate> {
        Ok(RxGate {
            inner: Inner::Pcap {
                path: path.to_string(),
                backend: PcapBackend::open(path, None)?,
            },
            port,
            sched,
        })
    }

    /// Gates another backend.
    pub fn new(inner: Box<dyn DeviceBackend>, port: Arc<Port>, sched: Arc<Schedule>) -> RxGate {
        RxGate {
            inner: Inner::Other(inner),
            port,
            sched,
        }
    }
}

impl Inner {
    /// Re-opens a pcap source at its first frame (a no-op for sources the
    /// benchmark refills itself).
    fn rewind(&mut self) -> IoResult<()> {
        if let Inner::Pcap { path, backend } = self {
            *backend =
                PcapBackend::open(path.as_str(), None).map_err(|e| IoFault::Down(e.to_string()))?;
        }
        Ok(())
    }

    fn recv(&mut self) -> IoResult<Option<Packet>> {
        match self {
            Inner::Other(b) => b.recv(),
            Inner::Pcap { path, backend } => {
                if backend.exhausted() {
                    *backend = PcapBackend::open(path.as_str(), None)
                        .map_err(|e| IoFault::Down(e.to_string()))?;
                }
                match backend.recv()? {
                    Some(p) => Ok(Some(p)),
                    // End of file: the next call starts the file over.
                    None => Err(IoFault::WouldBlock),
                }
            }
        }
    }
}

impl DeviceBackend for RxGate {
    fn kind(&self) -> &'static str {
        match self.inner {
            Inner::Pcap { .. } => "pcap",
            Inner::Other(ref b) => b.kind(),
        }
    }

    fn recv(&mut self) -> IoResult<Option<Packet>> {
        let RxGate { inner, port, sched } = self;
        let k = sched.released.load(Relaxed);
        let mut due = None;
        let blocked = k >= sched.limit.load(Relaxed)
            || match sched.next_due(k) {
                Some(d) => {
                    due = Some(d);
                    now_ns() < d
                }
                None => false,
            };
        if blocked {
            port.count_would_block();
            return Err(IoFault::WouldBlock);
        }
        if sched.rewind.load(Relaxed) {
            sched.rewind.store(false, Relaxed);
            inner.rewind()?;
        }
        let r = port.timed(|r| matches!(r, Ok(Some(_))), || inner.recv());
        if let Ok(Some(p)) = &r {
            sched.released.store(k + 1, Relaxed);
            if let (Some(d), Some(seq)) = (due, read_seq(p.data())) {
                sched.due_ns[sched.slot(seq)].store(d, Relaxed);
                sched.lag.record(now_ns().saturating_sub(d));
            }
        } else if matches!(r, Err(IoFault::WouldBlock)) && port.trace.load(Relaxed) {
            port.would_block.fetch_add(1, Relaxed);
        }
        r
    }

    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        // Nothing in these workloads transmits back out of the ingress
        // device; a frame that does would fail the reference digest.
        match &mut self.inner {
            Inner::Other(b) => b.send(frame),
            Inner::Pcap { backend, .. } => backend.send(frame),
        }
    }

    fn reopen(&mut self) -> IoResult<()> {
        match &mut self.inner {
            Inner::Other(b) => b.reopen(),
            Inner::Pcap { backend, .. } => backend.reopen(),
        }
    }

    // Never exhausted: the schedule, not the file, ends a phase.
}

/// TX wrapper: the repository's in-memory backend as the device, timed,
/// with each frame's send time recorded by sequence number in paced
/// phases. The benchmark drains the backend's queue after every round:
/// that drain is the wire, and its cost is kept out of the router's
/// spans.
#[derive(Debug)]
pub struct TxTap {
    inner: Box<dyn DeviceBackend>,
    port: Arc<Port>,
    sched: Arc<Schedule>,
}

impl TxTap {
    /// Wraps a TX backend.
    pub fn new(inner: Box<dyn DeviceBackend>, port: Arc<Port>, sched: Arc<Schedule>) -> TxTap {
        TxTap { inner, port, sched }
    }
}

impl DeviceBackend for TxTap {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        Err(IoFault::WouldBlock)
    }
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        let TxTap { inner, port, sched } = self;
        let r = port.timed(Result::is_ok, || inner.send(frame));
        if r.is_ok() && sched.period_ps.load(Relaxed) != 0 {
            if let Some(seq) = read_seq(frame) {
                sched.sent_ns[sched.slot(seq)].store(now_ns(), Relaxed);
            }
        }
        r
    }
    fn reopen(&mut self) -> IoResult<()> {
        self.inner.reopen()
    }
}

/// A log-linear histogram (16 sub-buckets per power of two, ~6%
/// resolution) of nanosecond values, lock-free so a backend wrapper can
/// record into it.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..64 * 16).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < 16 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - 4)) & 15) as usize;
        (exp - 3) * 16 + sub
    }

    fn lower(b: usize) -> u64 {
        if b < 16 {
            return b as u64;
        }
        let exp = b / 16 + 3;
        ((16 + (b % 16)) as u64) << (exp - 4)
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket(v)].fetch_add(1, Relaxed);
    }

    /// Clears every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }

    /// The value at quantile `q` (lower bucket bound), and the count.
    pub fn quantile(&self, q: f64) -> (u64, u64) {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return (0, 0);
        }
        let rank = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (Self::lower(i), n);
            }
        }
        (Self::lower(counts.len() - 1), n)
    }
}

#[cfg(test)]
mod tests {
    use super::Histogram;

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1_000, 123_456, 1 << 40] {
            let b = Histogram::bucket(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let lo = Histogram::lower(b);
            assert!(lo <= v && v - lo <= v / 16 + 1, "{v} -> [{lo}..]");
        }
    }
}

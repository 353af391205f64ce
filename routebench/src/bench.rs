//! One run of one workload: set-up, output checks, the saturation phase,
//! and, in traced runs, the paced phase and the per-layer split.

use crate::alloc;
use crate::check::{digests_match, frame_hash, Digest, Ledger, PassHashes};
use crate::device::{now_ns, Port, RxGate, Schedule, TxTap};
use crate::engine::{self, Engine, EngineKind};
use crate::trace::{LayerTotal, Tracer};
use crate::workload::{read_seq, Kind, Source, Workload, N_IFACES, RX_DEV};
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::lang::{read_config, write_config};
use click_core::registry::{devirt_base, Library};
use click_elements::iodev::{write_pcap, MemBackend, MemQueues};
use click_elements::persist::{config_hash, Checkpoint, CheckpointLedger, CheckpointStore};
use click_elements::SupervisedDevice;
use click_opt::devirtualize::devirtualize;
use click_opt::fastclassifier::fastclassifier;
use click_opt::xform::{apply_patterns, ip_combo_patterns};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// A deliberately broken run, for the benchmark's self-test: the output
/// checks must catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt the reference digest.
    Digest,
    /// Count one frame more as offered than was released.
    Ledger,
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Self-test fault.
    pub fault: Option<Fault>,
}

/// A named metric with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The outcome of a run whose output checks all passed.
#[derive(Debug, Default)]
pub struct Report {
    /// Frames offered in the measured phases.
    pub attempted: u64,
    /// Offered frames neither transmitted nor dropped by policy.
    pub failed: u64,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out by the caller.
    pub spans: Option<String>,
}

/// Untraced runs set up at least 3 and at most this many times;
/// `setup_s` is their lower decile.
const MAX_SETUPS: usize = 100;
/// Fewest checkpoint cuts, each with two hot swaps, that the serial
/// workloads take between passes.
const MIN_CONTROL: usize = 5;
/// Most such cuts per run.
const MAX_CONTROL: usize = 100;
/// Frames queued ahead of the paced release schedule (in-memory source).
const FEED_AHEAD: u64 = 512;
/// How long a phase may stay unbalanced after its last frame left the
/// source before the run fails.
const SETTLE_NS: u64 = 5_000_000_000;

/// An engine with the benchmark's devices attached.
struct Rig {
    engine: Box<dyn Engine>,
    /// This engine's closed phases, summed: the benchmark's own count.
    closed: Ledger,
    /// The open phase: frames released before it, and the engine's
    /// drop-and-loss gauge when it began.
    open: Option<(u64, u64)>,
    /// Feed handle of the in-memory ingress backend.
    feed: Option<MemQueues>,
    /// Drain handle per device, in device order (`eth0` first).
    sinks: Vec<Option<MemQueues>>,
}

impl Rig {
    fn shutdown(self) {
        self.engine.shutdown();
    }
}

/// How one phase offers its frames and checks them.
#[derive(Debug, Clone, Copy)]
struct PhaseSpec {
    /// Frames to offer: whole passes over the trace, except warm-up.
    offer: u64,
    /// Paced rate in frames per second; `None` is the closed loop.
    rate: Option<f64>,
    /// Hash whole frames of sequence numbers below this.
    full_below: u32,
    /// Keep the per-device frame hashes (the check pass).
    record: bool,
    /// Run the control-plane schedule during the phase.
    churn: bool,
}

impl PhaseSpec {
    fn closed(offer: u64) -> PhaseSpec {
        PhaseSpec {
            offer,
            rate: None,
            full_below: 0,
            record: false,
            churn: false,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
struct PhaseOut {
    ledger: Ledger,
    wall_ns: u64,
    quick: Vec<Digest>,
    full: Vec<Digest>,
    hashes: PassHashes,
    rounds: u64,
    idle_rounds: u64,
    rx_frames: u64,
    latencies: Vec<u64>,
}

impl PhaseOut {
    fn new() -> PhaseOut {
        PhaseOut {
            quick: vec![Digest::default(); N_IFACES],
            full: vec![Digest::default(); N_IFACES],
            hashes: PassHashes(vec![Vec::new(); N_IFACES]),
            ..PhaseOut::default()
        }
    }
}

/// Timings of one checkpoint cut.
#[derive(Debug, Clone, Copy, Default)]
struct Cut {
    total_ns: u64,
    snapshot_ns: u64,
    quiesce_ns: u64,
    encode_ns: u64,
    save_ns: u64,
    bytes: u64,
}

/// The two behaviourally equivalent optimized configurations hot swaps
/// alternate between, and the checkpoint store cuts go to.
struct Control {
    configs: [(RouterGraph, String, u64); 2],
    installed: usize,
    store: CheckpointStore,
    generation: u64,
    next_swap: u64,
    next_cut: u64,
    swaps_ns: Vec<u64>,
    transferred: u64,
    rollbacks: u64,
    cuts: Vec<Cut>,
    /// Most drops the engine's gauge has been behind the benchmark's count
    /// at a cut.
    gauge_loss: u64,
    /// Generation, ledger and packets held, as the benchmark counted them.
    expected: Vec<(u64, CheckpointLedger, u64)>,
}

/// The optimizer chain's outputs and timings.
struct Setup {
    graph: RouterGraph,
    rig: Rig,
    seconds: f64,
}

struct Bench<'a> {
    o: &'a Opts,
    w: Workload,
    engine: EngineKind,
    sched: Arc<Schedule>,
    rx: Arc<Port>,
    tx: Arc<Port>,
    pcap: Option<String>,
    tr: Tracer,
    /// Set-up times of the untraced run.
    setup_s: Vec<f64>,
    control: Option<Control>,
}

/// Runs one workload; `scratch` holds its generated trace and
/// checkpoints.
pub fn run(o: &Opts, scratch: &Path) -> Result<Report> {
    let w = Workload::generate(o.kind, o.seed);
    let pcap = match w.source {
        Source::Pcap => {
            let path = scratch.join("trace.pcap");
            write_pcap(&path, &w.frames)?;
            Some(path.to_string_lossy().into_owned())
        }
        Source::Mem => None,
    };
    let engine = if o.kind == Kind::ShardedChurn {
        EngineKind::Sharded
    } else {
        EngineKind::Serial
    };
    let mut b = Bench {
        o,
        sched: Arc::new(Schedule::new(w.frames.len())),
        rx: Arc::new(Port::default()),
        tx: Arc::new(Port::default()),
        pcap,
        tr: Tracer::new(o.trace),
        setup_s: Vec::new(),
        control: None,
        engine,
        w,
    };
    b.run(scratch)
}

/// The lower decile: the value a tenth of the samples are at or below.
/// Interference from other tenants of a shared host only ever slows a
/// pass or a set-up down, so the fastest decile tracks the program's own
/// cost, while the median moves with how long a neighbour kept the host
/// busy during the run.
fn lower_decile(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.1)
}

/// The value at rank `ceil(q * n)` of sorted samples (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_u64(v: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<f64> = v.map(|x| x as f64).collect();
    median(&mut v)
}

/// Process high-water resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f` over the workload's frames until `budget_ns` has passed;
/// returns ns per frame.
fn per_frame_ns(frames: &[Vec<u8>], budget_ns: u64, mut f: impl FnMut(&[u8]) -> usize) -> f64 {
    let t0 = now_ns();
    let mut n = 0u64;
    let mut sink = 0usize;
    while now_ns() - t0 < budget_ns {
        for fr in frames {
            sink = sink.wrapping_add(f(std::hint::black_box(fr)));
        }
        n += frames.len() as u64;
    }
    std::hint::black_box(sink);
    (now_ns() - t0) as f64 / n as f64
}

impl Bench<'_> {
    fn run(&mut self, scratch: &Path) -> Result<Report> {
        let o = self.o;
        let mut report = Report::default();
        let seconds = o.seconds.max(0.5);

        // The reference: the unoptimized configuration on the dyn serial
        // engine, over the same frames. Never produced by the optimizers.
        self.set_trace(false);
        let reference = self.reference()?;

        // Set-up, measured from configuration text to ready-to-forward.
        // More set-ups are sampled between saturation passes, so that
        // `setup_s` spans the run as `ns_per_pkt` does.
        self.set_trace(o.trace);
        let from = self.tr.mark();
        let Setup {
            graph,
            mut rig,
            seconds: first_setup,
        } = self.setup(self.engine)?;
        self.setup_s.push(first_setup);
        self.set_trace(false);
        let setup_layers = self.tr.totals(from);
        let elements_after = graph.element_count();

        // The check pass: the optimized engine over one whole pass.
        let check = self.phase(
            &mut rig,
            PhaseSpec {
                full_below: self.w.reference_frames as u32,
                record: true,
                ..PhaseSpec::closed(self.w.frames.len() as u64)
            },
        )?;
        digests_match(
            "optimized engine vs unoptimized reference",
            &check.full,
            &reference,
        )?;
        let pass = check.hashes;
        let one_pass = pass.expected(1);

        self.control = Some(self.control_plane(&graph, scratch)?);
        let n = self.w.frames.len() as u64;

        let budget = |share: f64| (seconds * share * 1e9) as u64;
        let mut acc = Ledger::default();

        // Saturation, untraced: the whole measurement of `--trace 0`, and
        // the traced run's baseline for tracing overhead and allocations.
        if o.trace {
            rig.engine.reset_pool();
            alloc::start();
        }
        let (mut sat, sat_frames) = self.saturate(
            &mut rig,
            budget(if o.trace { 0.2 } else { 1.0 }),
            &pass,
            &mut acc,
        )?;
        let allocs = if o.trace { alloc::stop() } else { (0, 0) };
        let alloc_frames = sat_frames.max(1) as f64;
        let pool_hit = rig.engine.pool_hit_rate();
        let ns_per_pkt = lower_decile(&mut sat);
        report.notes.push(quantile_note("saturation ns/pkt", &sat));

        if !o.trace {
            let control = self.finish_control(&mut rig)?;
            rig.shutdown();
            let m = &mut report.metrics;
            let mut setup_s = std::mem::take(&mut self.setup_s);
            let mut swap_ms = ms(control.swaps_ns.iter().copied());
            let mut ckpt_ms = ms(control.cuts.iter().map(|c| c.total_ns));
            report.notes.push(quantile_note("set-up s", &setup_s));
            report.notes.push(quantile_note("hot swap ms", &swap_ms));
            report
                .notes
                .push(quantile_note("checkpoint cut ms", &ckpt_ms));
            m.insert("setup_s", (lower_decile(&mut setup_s), "s"));
            m.insert("ns_per_pkt", (ns_per_pkt, "ns"));
            m.insert("swap_ms", (lower_decile(&mut swap_ms), "ms"));
            m.insert("ckpt_ms", (lower_decile(&mut ckpt_ms), "ms"));
            m.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
            report.notes.extend(control.defect_note());
            report.attempted = acc.offered;
            report.failed = acc.lost;
            return Ok(report);
        }

        // Saturation, traced: the per-layer split.
        self.set_trace(true);
        let from = self.tr.mark();
        let (mut traced, traced_frames) = self.saturate(&mut rig, budget(0.3), &pass, &mut acc)?;
        let sat_layers = self.tr.totals(from);
        self.set_trace(false);
        let traced_frames = traced_frames as f64;
        let traced_wall: f64 = traced.iter().sum::<f64>() * traced_frames / traced.len() as f64;
        let coverage = sat_layers.values().map(|t| t.self_ns).sum::<u64>() as f64 / traced_wall;
        let overhead = lower_decile(&mut traced) / ns_per_pkt - 1.0;

        // Paced, untraced: latency. Then paced, traced: the round split.
        let paced = self.pace(&mut rig, budget(0.25), &pass, &mut acc)?;
        let (lat_p50, lat_p99, windows) = window_percentiles(&paced.latencies, n as usize);
        report.notes.push(format!(
            "paced at {:.0} frames/s: {} latency samples in {windows} windows of {n} frames",
            self.w.paced_pps,
            paced.latencies.len()
        ));
        let (lag_p99, _) = self.sched.lag.quantile(0.99);
        let gauges0 = rig.engine.device_gauges();
        let (calls0, would_block0) = (
            self.rx.calls.load(Relaxed),
            self.rx.would_block.load(Relaxed),
        );
        self.set_trace(true);
        let rounds = self.pace(&mut rig, budget(0.25), &pass, &mut acc)?;
        let calls = self.rx.calls.load(Relaxed) - calls0;
        let would_block = self.rx.would_block.load(Relaxed) - would_block0;
        self.set_trace(false);
        let retries: u64 = rig
            .engine
            .device_gauges()
            .iter()
            .map(|g| g.retries)
            .sum::<u64>()
            - gauges0.iter().map(|g| g.retries).sum::<u64>();
        let control = self.finish_control(&mut rig)?;
        rig.shutdown();

        // The other engine over the same frames, so both engines' layers
        // report on every workload.
        let other = if self.engine == EngineKind::Sharded {
            EngineKind::Serial
        } else {
            EngineKind::Sharded
        };
        let mut r = self.attach(engine::build(other, &graph)?)?;
        self.warm_up(&mut r)?;
        self.set_trace(true);
        let from = self.tr.mark();
        for _ in 0..2 {
            let out = self.phase(&mut r, PhaseSpec::closed(n))?;
            digests_match("other-engine pass", &out.quick, &one_pass)?;
        }
        let cross = self.tr.totals(from);
        self.set_trace(false);
        r.shutdown();

        let self_ns = |name: &str| match (sat_layers.get(name), cross.get(name)) {
            (Some(t), _) => t.self_ns as f64 / traced_frames,
            (None, Some(t)) => t.self_ns as f64 / (2 * n) as f64,
            (None, None) => 0.0,
        };
        let secs = |name: &str| {
            setup_layers
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e9)
        };
        let (nodes, match_ns) = self.classifier_probe(&graph)?;
        let (build_s, lookup_ns) = self.routing_probe();
        let cut_ms = |f: fn(&Cut) -> u64| median_u64(control.cuts.iter().map(f)) / 1e6;
        let per_round = |a: u64| a as f64 / rounds.rounds.max(1) as f64;
        let m = &mut report.metrics;
        m.insert("core.parse_s", (secs("core.parse"), "s"));
        m.insert("opt.xform_s", (secs("opt.xform"), "s"));
        m.insert("opt.fastclassifier_s", (secs("opt.fastclassifier"), "s"));
        m.insert("opt.devirtualize_s", (secs("opt.devirtualize"), "s"));
        m.insert("opt.elements_after", (elements_after as f64, "count"));
        m.insert("router.build_s", (secs("router.build"), "s"));
        m.insert("classifier.diagram_nodes", (nodes as f64, "count"));
        m.insert("classifier.match_ns_per_pkt", (match_ns, "ns"));
        m.insert("routing.build_s", (build_s, "s"));
        m.insert("routing.lookup_ns_per_pkt", (lookup_ns, "ns"));
        m.insert("router.graph_ns_per_pkt", (self_ns("router.graph"), "ns"));
        m.insert(
            "router.pump_self_ns_per_pkt",
            (self_ns("router.pump"), "ns"),
        );
        m.insert(
            "router.frames_per_round",
            (per_round(rounds.rx_frames), "count"),
        );
        m.insert(
            "router.idle_rounds_frac",
            (per_round(rounds.idle_rounds), "ratio"),
        );
        m.insert(
            "driver.pump_self_ns_per_pkt",
            (self_ns("driver.pump"), "ns"),
        );
        m.insert(
            "parallel.idle_wait_ns_per_pkt",
            (self_ns("parallel.idle_wait"), "ns"),
        );
        m.insert("iodev.rx_ns_per_pkt", (self_ns("iodev.rx"), "ns"));
        m.insert("iodev.tx_ns_per_pkt", (self_ns("iodev.tx"), "ns"));
        m.insert(
            "iodev.would_block_frac",
            (would_block as f64 / calls.max(1) as f64, "ratio"),
        );
        m.insert("iodev.retries", (retries as f64, "count"));
        m.insert("wire.tx_ns_per_pkt", (self_ns("wire.tx"), "ns"));
        m.insert("packet.pool_hit_rate", (pool_hit, "ratio"));
        m.insert("alloc.per_pkt", (allocs.0 as f64 / alloc_frames, "count"));
        m.insert("alloc.bytes_per_pkt", (allocs.1 as f64 / alloc_frames, "B"));
        m.insert("steer.hash_ns_per_pkt", (self.steer_probe(), "ns"));
        m.insert(
            "swap.packets_transferred",
            (control.transferred as f64, "count"),
        );
        m.insert("swap.rollbacks", (control.rollbacks as f64, "count"));
        m.insert("swap.drop_gauge_loss", (control.gauge_loss as f64, "count"));
        m.insert("persist.snapshot_ms", (cut_ms(|c| c.snapshot_ns), "ms"));
        m.insert("persist.quiesce_ms", (cut_ms(|c| c.quiesce_ns), "ms"));
        m.insert("persist.encode_ms", (cut_ms(|c| c.encode_ns), "ms"));
        m.insert("persist.save_ms", (cut_ms(|c| c.save_ns), "ms"));
        m.insert(
            "persist.bytes",
            (median_u64(control.cuts.iter().map(|c| c.bytes)), "B"),
        );
        m.insert("lat_p50_us", (lat_p50 / 1e3, "us"));
        m.insert("lat_p99_us", (lat_p99 / 1e3, "us"));
        m.insert("gen.lag_p99_us", (lag_p99 as f64 / 1e3, "us"));
        m.insert("trace.overhead_frac", (overhead, "ratio"));
        m.insert("trace.coverage", (coverage, "ratio"));
        report.notes.extend(layer_table(&sat_layers, traced_frames));
        if o.kind == Kind::Fig1Pcap {
            report
                .notes
                .extend(self.figure8(&graph, &sat_layers, traced_frames)?);
        }
        report.notes.extend(control.defect_note());
        report.spans = Some(self.tr.dump(65_536));
        report.attempted = acc.offered;
        report.failed = acc.lost;
        Ok(report)
    }

    /// Closed-loop samples for `budget_ns` (at least three); returns each
    /// sample's wall time per frame, and the frames offered. A sample is
    /// one pass over the trace, or on `fig1-sharded-churn` the passes of
    /// one swap period, so that every sample holds one hot swap and one
    /// checkpoint cut.
    fn saturate(
        &mut self,
        rig: &mut Rig,
        budget_ns: u64,
        pass: &PassHashes,
        acc: &mut Ledger,
    ) -> Result<(Vec<f64>, u64)> {
        let churn = self.w.churn.is_some();
        let passes = self
            .w
            .churn
            .map_or(1, |c| c.swap_every / self.w.frames.len() as u64);
        let expect = pass.expected(passes);
        let n = passes * self.w.frames.len() as u64;
        let t0 = now_ns();
        let mut per = Vec::new();
        let (mut control_ns, mut setup_ns) = (0, 0);
        while per.len() < 3 || now_ns() - t0 < budget_ns {
            // Between passes and outside their time, each spread evenly
            // over the phase (`due`) and kept to a share of it: on the
            // serial workloads (the sharded one runs its own schedule inside
            // its samples), a hot swap out and back, so every pass runs the
            // same configuration, and a checkpoint cut, within a tenth; in
            // untraced runs, one more set-up, within a third (so that the
            // slow set-up of `acl-bgp` gets its samples inside the budget).
            let traced = self.tr.on();
            self.set_trace(false);
            let elapsed = now_ns() - t0;
            let due = |max: usize| 1 + (max as u64 * elapsed / budget_ns.max(1)) as usize;
            let cuts = self.cuts();
            if !churn
                && !per.is_empty()
                && control_ns < elapsed / 10
                && cuts < MAX_CONTROL.min(due(MAX_CONTROL))
            {
                let t = now_ns();
                self.control_sample(rig)?;
                control_ns += now_ns() - t;
            }
            if !self.o.trace
                && !per.is_empty()
                && setup_ns < elapsed / 3
                && self.setup_s.len() < MAX_SETUPS.min(due(MAX_SETUPS))
            {
                let t = now_ns();
                self.extra_setup()?;
                setup_ns += now_ns() - t;
            }
            self.set_trace(traced);
            let out = self.phase(
                rig,
                PhaseSpec {
                    churn,
                    ..PhaseSpec::closed(n)
                },
            )?;
            digests_match("saturation pass", &out.quick, &expect)?;
            acc.absorb(&out.ledger);
            per.push(out.wall_ns as f64 / n as f64);
        }
        let frames = per.len() as u64 * n;
        Ok((per, frames))
    }

    /// An open loop of whole passes at the workload's paced rate, for
    /// about `budget_ns`.
    fn pace(
        &mut self,
        rig: &mut Rig,
        budget_ns: u64,
        pass: &PassHashes,
        acc: &mut Ledger,
    ) -> Result<PhaseOut> {
        let n = self.w.frames.len() as f64;
        let pps = self.w.paced_pps;
        let passes = (pps * budget_ns as f64 / 1e9 / n).round().max(1.0) as u64;
        let out = self.phase(
            rig,
            PhaseSpec {
                rate: Some(pps),
                churn: self.w.churn.is_some(),
                ..PhaseSpec::closed(passes * n as u64)
            },
        )?;
        digests_match("paced phase", &out.quick, &pass.expected(passes))?;
        acc.absorb(&out.ledger);
        Ok(out)
    }

    /// One more `setup_s` sample: a whole set-up, then the engine is
    /// shut down.
    fn extra_setup(&mut self) -> Result<()> {
        let s = self.setup(self.engine)?;
        self.setup_s.push(s.seconds);
        s.rig.shutdown();
        Ok(())
    }

    /// Two hot swaps (out to the alternate configuration and back) and a
    /// checkpoint cut, between passes.
    fn control_sample(&mut self, rig: &mut Rig) -> Result<()> {
        self.swap(rig)?;
        self.swap(rig)?;
        self.cut(rig, &PhaseSpec::closed(0), &mut PhaseOut::new())
    }

    fn cuts(&self) -> usize {
        self.control.as_ref().map_or(0, |c| c.cuts.len())
    }

    /// Tops the serial workloads up to `MIN_CONTROL` control-plane
    /// samples and untraced runs up to three set-ups, then checks every
    /// checkpoint and swap.
    fn finish_control(&mut self, rig: &mut Rig) -> Result<Control> {
        while self.w.churn.is_none() && self.cuts() < MIN_CONTROL {
            self.control_sample(rig)?;
        }
        while !self.o.trace && self.setup_s.len() < 3 {
            self.extra_setup()?;
        }
        let control = self.control.take().expect("control plane set up");
        verify_checkpoints(&control)?;
        if control.rollbacks > 0 {
            return Err(Error::runtime(format!(
                "{} hot swap(s) rolled back",
                control.rollbacks
            )));
        }
        Ok(control)
    }

    fn set_trace(&mut self, on: bool) {
        self.tr.set_on(on);
        self.rx.trace.store(on, Relaxed);
        self.tx.trace.store(on, Relaxed);
        self.rx.take_round();
        self.tx.take_round();
    }

    /// Per-device full digests of the unoptimized reference run.
    fn reference(&mut self) -> Result<Vec<Digest>> {
        let graph = read_config(&self.w.base)?;
        let mut rig =
            self.attach_source(engine::build(EngineKind::DynSerial, &graph)?, Source::Mem)?;
        let k = self.w.reference_frames as u64;
        let out = self.phase(
            &mut rig,
            PhaseSpec {
                full_below: k as u32,
                ..PhaseSpec::closed(k)
            },
        )?;
        rig.shutdown();
        let mut digests = out.full;
        if self.o.fault == Some(Fault::Digest) {
            digests[1].state ^= 1;
        }
        Ok(digests)
    }

    /// Configuration text to ready-to-forward: parse, the optimizer chain
    /// (xform, fastclassifier, devirtualize), engine build, backend
    /// attach, and one warm-up frame (which builds lazy tables).
    fn setup(&mut self, kind: EngineKind) -> Result<Setup> {
        let t0 = now_ns();
        let t = self.tr.start();
        let mut graph = read_config(&self.w.base)?;
        self.span("core.parse", t);
        let t = self.tr.start();
        apply_patterns(&mut graph, &ip_combo_patterns()?)?;
        self.span("opt.xform", t);
        let t = self.tr.start();
        fastclassifier(&mut graph)?;
        self.span("opt.fastclassifier", t);
        let t = self.tr.start();
        devirtualize(&mut graph, &Library::standard(), &HashSet::new())?;
        self.span("opt.devirtualize", t);
        let t = self.tr.start();
        let engine = engine::build(kind, &graph)?;
        self.span("router.build", t);
        let t = self.tr.start();
        let mut rig = self.attach(engine)?;
        self.span("setup.attach", t);
        let t = self.tr.start();
        self.warm_up(&mut rig)?;
        self.span("setup.warm_up", t);
        Ok(Setup {
            graph,
            rig,
            seconds: (now_ns() - t0) as f64 / 1e9,
        })
    }

    fn span(&mut self, layer: &'static str, start: u64) {
        if self.tr.on() {
            self.tr.span(layer, start, 0);
        }
    }

    fn warm_up(&mut self, rig: &mut Rig) -> Result<()> {
        let out = self.phase(rig, PhaseSpec::closed(1))?;
        out.ledger.check("warm-up frame")
    }

    fn attach(&mut self, engine: Box<dyn Engine>) -> Result<Rig> {
        self.attach_source(engine, self.w.source)
    }

    /// Puts the gated ingress backend under `eth0` and a drained
    /// in-memory sink under every other device.
    fn attach_source(&mut self, mut engine: Box<dyn Engine>, source: Source) -> Result<Rig> {
        let sup = |b: Box<dyn click_elements::DeviceBackend>| SupervisedDevice::new(b);
        let mut sinks = Vec::with_capacity(N_IFACES);
        let feed = match (source, &self.pcap) {
            (Source::Pcap, Some(path)) => {
                let gate = RxGate::pcap(path, Arc::clone(&self.rx), Arc::clone(&self.sched))?;
                engine.attach(RX_DEV, sup(Box::new(gate)))?;
                None
            }
            _ => {
                let (b, q) = MemBackend::with_handles();
                let gate = RxGate::new(Box::new(b), Arc::clone(&self.rx), Arc::clone(&self.sched));
                engine.attach(RX_DEV, sup(Box::new(gate)))?;
                Some(q)
            }
        };
        sinks.push(feed.clone());
        for i in 1..N_IFACES {
            let (b, q) = MemBackend::with_handles();
            let tap = TxTap::new(Box::new(b), Arc::clone(&self.tx), Arc::clone(&self.sched));
            engine.attach(&format!("eth{i}"), sup(Box::new(tap)))?;
            sinks.push(Some(q));
        }
        Ok(Rig {
            engine,
            closed: Ledger::default(),
            open: None,
            feed,
            sinks,
        })
    }

    /// Offers frames, pumps rounds until every frame is accounted for,
    /// and checks what the sinks received.
    fn phase(&mut self, rig: &mut Rig, spec: PhaseSpec) -> Result<PhaseOut> {
        let n = self.w.frames.len() as u64;
        let sched = Arc::clone(&self.sched);
        let start = sched.released.load(Relaxed);
        let target = start + spec.offer;
        let mut pushed = 0u64;
        match &rig.feed {
            Some(q) if spec.rate.is_none() => {
                for k in 0..spec.offer {
                    q.push_rx(&self.w.frames[(k % n) as usize]);
                }
                pushed = spec.offer;
            }
            Some(_) => {}
            None => sched.rewind.store(true, Relaxed),
        }
        let drops0 = rig.engine.policy_drops();
        let lost0 = rig.engine.device_lost();
        rig.open = Some((start, drops0 + lost0));
        let mut out = PhaseOut::new();
        if spec.rate.is_some() {
            out.latencies.reserve(spec.offer as usize);
        }
        let deadline = match spec.rate {
            Some(pps) => {
                sched.lag.reset();
                sched.first.store(start, Relaxed);
                sched.period_ps.store((1e12 / pps).round() as u64, Relaxed);
                sched.epoch_ns.store(now_ns() + 100_000, Relaxed);
                (spec.offer as f64 / pps * 1e9) as u64 + SETTLE_NS
            }
            None => {
                sched.period_ps.store(0, Relaxed);
                spec.offer * 100_000 + SETTLE_NS
            }
        };
        sched.limit.store(target, Relaxed);
        let t0 = now_ns();
        let mut settle_from = None;
        loop {
            if let (Some(q), Some(_)) = (&rig.feed, spec.rate) {
                let consumed = sched.released.load(Relaxed) - start;
                if pushed < spec.offer && pushed - consumed < FEED_AHEAD / 2 {
                    let t = self.tr.start();
                    let upto = (consumed + FEED_AHEAD).min(spec.offer);
                    for k in pushed..upto {
                        q.push_rx(&self.w.frames[(k % n) as usize]);
                    }
                    if self.tr.on() {
                        self.tr.span("gen.feed", t, upto - pushed);
                    }
                    pushed = upto;
                }
            }
            let r = rig.engine.round(&mut self.tr, &self.rx, &self.tx)?;
            out.rounds += 1;
            out.rx_frames += r.rx;
            if r.rx == 0 {
                out.idle_rounds += 1;
            }
            self.drain(rig, &spec, &mut out);
            if spec.churn {
                self.control_step(rig, &spec, &mut out)?;
            }
            let now = now_ns();
            if r.idle() && sched.released.load(Relaxed) == target {
                let mut l = Ledger {
                    offered: spec.offer,
                    tx: out.ledger.tx,
                    drops: rig.engine.policy_drops().saturating_sub(drops0),
                    lost: rig.engine.device_lost().saturating_sub(lost0),
                };
                if self.o.fault == Some(Fault::Ledger) {
                    l.offered += 1;
                }
                if l.closed() {
                    out.ledger = l;
                    rig.closed.absorb(&l);
                    rig.open = None;
                    break;
                }
                if l.tx + l.drops + l.lost > l.offered
                    || now - *settle_from.get_or_insert(now) > SETTLE_NS
                {
                    l.check("phase")?;
                }
            }
            if now - t0 > deadline {
                return Err(Error::runtime(format!(
                    "phase of {} frames did not finish: {} released, {} transmitted",
                    spec.offer,
                    sched.released.load(Relaxed) - start,
                    out.ledger.tx
                )));
            }
        }
        out.wall_ns = now_ns() - t0;
        sched.period_ps.store(0, Relaxed);
        Ok(out)
    }

    /// The wire: takes what every sink received this round, hashes it,
    /// and reads each frame's latency in paced phases.
    fn drain(&mut self, rig: &Rig, spec: &PhaseSpec, out: &mut PhaseOut) {
        let t = self.tr.start();
        let mut frames = 0u64;
        for (dev, sink) in rig.sinks.iter().enumerate() {
            let Some(q) = sink else { continue };
            for f in q.take_tx() {
                let h = frame_hash(&f, false);
                out.quick[dev].absorb(h);
                if spec.record {
                    out.hashes.0[dev].push(h);
                }
                if read_seq(&f).is_some_and(|s| s < spec.full_below) {
                    out.full[dev].absorb(frame_hash(&f, true));
                }
                if spec.rate.is_some() {
                    if let Some(l) = self.sched.latency_ns(&f) {
                        out.latencies.push(l);
                    }
                }
                frames += 1;
            }
        }
        out.ledger.tx += frames;
        if self.tr.on() && frames > 0 {
            self.tr.span("wire.tx", t, frames);
        }
    }

    /// Builds the two swap configurations and the checkpoint store.
    fn control_plane(&self, graph: &RouterGraph, scratch: &Path) -> Result<Control> {
        // The alternate: identical except that the route table keeps its
        // generic class, as if devirtualize had excluded it.
        let mut alt = graph.clone();
        if let Some(rt) = alt.find("rt") {
            let class = alt.element(rt).class().to_string();
            alt.set_class(rt, devirt_base(&class).unwrap_or(&class).to_string());
        }
        let (every_swap, every_cut) = self
            .w
            .churn
            .map_or((u64::MAX, u64::MAX), |c| (c.swap_every, c.ckpt_every));
        let released = self.sched.released.load(Relaxed);
        let config = |g: RouterGraph| {
            let text = write_config(&g);
            let hash = config_hash(&text);
            (g, text, hash)
        };
        Ok(Control {
            configs: [config(graph.clone()), config(alt)],
            installed: 0,
            store: CheckpointStore::open(scratch.join("checkpoints"), usize::MAX)?,
            generation: 0,
            next_swap: released.saturating_add(every_swap),
            next_cut: released.saturating_add(every_cut / 2),
            swaps_ns: Vec::new(),
            transferred: 0,
            rollbacks: 0,
            cuts: Vec::new(),
            gauge_loss: 0,
            expected: Vec::new(),
        })
    }

    /// The fixed control-plane schedule: a hot swap every `swap_every`
    /// frames, a checkpoint cut every `ckpt_every` frames (offset by
    /// half a period so the two never coincide).
    fn control_step(&mut self, rig: &mut Rig, spec: &PhaseSpec, out: &mut PhaseOut) -> Result<()> {
        let Some(churn) = self.w.churn else {
            return Ok(());
        };
        let released = self.sched.released.load(Relaxed);
        let (swap_due, cut_due) = {
            let c = self.control.as_ref().expect("control plane set up");
            (released >= c.next_swap, released >= c.next_cut)
        };
        if swap_due {
            self.swap(rig)?;
            let c = self.control.as_mut().expect("control plane set up");
            c.next_swap += churn.swap_every;
        }
        if cut_due {
            self.cut(rig, spec, out)?;
            let c = self.control.as_mut().expect("control plane set up");
            c.next_cut += churn.ckpt_every;
        }
        Ok(())
    }

    fn swap(&mut self, rig: &mut Rig) -> Result<()> {
        let c = self.control.as_mut().expect("control plane set up");
        c.installed ^= 1;
        let t = self.tr.start();
        let t0 = now_ns();
        let report = rig.engine.hot_swap(&c.configs[c.installed].0)?;
        c.swaps_ns.push(now_ns() - t0);
        c.transferred += report.packets_transferred;
        c.rollbacks += u64::from(report.rolled_back);
        if self.tr.on() {
            self.tr.span("swap.hot_swap", t, report.packets_transferred);
        }
        Ok(())
    }

    /// One checkpoint cut: snapshot, `Checkpoint::encode`, then
    /// `CheckpointStore::save` into the run's scratch directory.
    ///
    /// Like `click-pcap`'s crash drill, the harness first settles the
    /// router (no new frames until every released one is processed and
    /// drained), so the cut sees no frame in flight between threads.
    fn cut(&mut self, rig: &mut Rig, spec: &PhaseSpec, out: &mut PhaseOut) -> Result<()> {
        let limit = self
            .sched
            .limit
            .swap(self.sched.released.load(Relaxed), Relaxed);
        while !rig.engine.round(&mut self.tr, &self.rx, &self.tx)?.idle() {
            self.drain(rig, spec, out);
        }
        self.sched.limit.store(limit, Relaxed);
        let (released, dropped) = match rig.open {
            Some((start, gauge0)) => (
                self.sched.released.load(Relaxed) - start,
                (rig.engine.policy_drops() + rig.engine.device_lost()).saturating_sub(gauge0),
            ),
            None => (0, 0),
        };
        let injected = rig.closed.offered + released;
        let tx = rig.closed.tx + out.ledger.tx;
        let drops = rig.closed.drops + rig.closed.lost + dropped;
        let c = self.control.as_mut().expect("control plane set up");
        let t0 = now_ns();
        let snap = rig.engine.snapshot()?;
        let t1 = now_ns();
        c.gauge_loss = c.gauge_loss.max(drops.saturating_sub(snap.total_drops));
        c.generation += 1;
        let (_, text, hash) = &c.configs[c.installed];
        let ckpt = Checkpoint {
            generation: c.generation,
            config: text.clone(),
            config_hash: *hash,
            ledger: CheckpointLedger {
                injected,
                tx,
                drops,
            },
            quiesce_ns: snap.quiesce_ns,
            elements: snap.elements,
            devices: snap.devices,
        };
        let bytes = ckpt.encode().len() as u64;
        let t2 = now_ns();
        c.store.save(&ckpt)?;
        let t3 = now_ns();
        c.expected
            .push((ckpt.generation, ckpt.ledger, ckpt.packet_count()));
        c.cuts.push(Cut {
            total_ns: t3 - t0,
            snapshot_ns: t1 - t0,
            quiesce_ns: ckpt.quiesce_ns,
            encode_ns: t2 - t1,
            save_ns: t3 - t2,
            bytes,
        });
        if self.tr.on() {
            let p = self.tr.span("persist.cut", t0, ckpt.packet_count());
            self.tr.child("persist.snapshot", p, t1 - t0, 0);
            self.tr.child("persist.encode", p, t2 - t1, 0);
            self.tr.child("persist.save", p, t3 - t2, 0);
        }
        Ok(())
    }

    /// The installed ingress classifiers, alone over the workload's
    /// frames: `c0` (eth0's Ethernet classifier) on every frame, plus
    /// the ACL on the IP header where the workload has one. Returns the
    /// decision-diagram node count and ns per frame.
    fn classifier_probe(&self, graph: &RouterGraph) -> Result<(usize, f64)> {
        let mut matchers = Vec::new();
        for (name, offset) in [("c0", 0usize), ("acl", 14)] {
            let Some(id) = graph.find(name) else { continue };
            let m: click_classifier::FastMatcher = graph.element(id).config().trim().parse()?;
            matchers.push((m, offset));
        }
        let nodes = matchers
            .iter()
            .map(|(m, _)| match m {
                click_classifier::FastMatcher::Diagram(d) => d.nodes.len(),
                _ => 0,
            })
            .sum();
        let ns = per_frame_ns(&self.w.frames, 200_000_000, |f| {
            matchers
                .iter()
                .map(|(m, off)| m.classify(&f[*off..]).unwrap_or(usize::MAX))
                .fold(0, usize::wrapping_add)
        });
        Ok((nodes, ns))
    }

    /// `MultibitTrie` build from the workload's routes, and lookups alone
    /// over its frames' destinations.
    fn routing_probe(&self) -> (f64, f64) {
        use click_elements::routing::MultibitTrie;
        let t0 = now_ns();
        let mut trie = MultibitTrie::new();
        for (i, &(addr, plen)) in self.w.routes.iter().enumerate() {
            trie.insert(addr, plen, i);
        }
        let build_s = (now_ns() - t0) as f64 / 1e9;
        let ns = per_frame_ns(&self.w.frames, 200_000_000, |f| {
            let dst = u32::from_be_bytes([f[30], f[31], f[32], f[33]]);
            trie.lookup(dst).copied().unwrap_or(0)
        });
        (build_s, ns)
    }

    /// `RssSteering::shard_for` at two shards (one shard skips hashing).
    fn steer_probe(&self) -> f64 {
        let steering = click_elements::RssSteering::new(2);
        let dev = click_elements::element::DeviceId(0);
        per_frame_ns(&self.w.frames, 200_000_000, |f| steering.shard_for(f, dev))
    }

    /// The modeled Figure-8 split of the optimized configuration beside
    /// the measured layers. Printed context, not a metric.
    fn figure8(
        &self,
        graph: &RouterGraph,
        layers: &BTreeMap<&'static str, LayerTotal>,
        frames: f64,
    ) -> Result<Vec<String>> {
        let traffic: click_sim::TrafficSpec = self.w.frames[..64]
            .iter()
            .map(|f| (RX_DEV.to_string(), f.clone()))
            .collect();
        let cost = click_sim::router_cpu_cost(graph, &click_sim::Platform::p0(), &traffic)?;
        let per = |name: &str| layers.get(name).map_or(0.0, |t| t.self_ns as f64 / frames);
        Ok(vec![
            "Figure 8 split, fig1-pcap config (ns/pkt): modeled P0 700 MHz | measured here".into(),
            format!(
                "  receive device   {:>8.0} | iodev.rx {:>8.1}",
                cost.rx_device_ns,
                per("iodev.rx")
            ),
            format!(
                "  forwarding path  {:>8.0} | router.graph {:>8.1} (+ router.pump self {:.1})",
                cost.forwarding_ns,
                per("router.graph"),
                per("router.pump")
            ),
            format!(
                "  transmit device  {:>8.0} | iodev.tx {:>8.1}",
                cost.tx_device_ns,
                per("iodev.tx")
            ),
        ])
    }
}

/// Every saved checkpoint decodes, and its ledger is the benchmark's
/// count: frames injected equal frames transmitted, dropped, or held in
/// the checkpoint.
fn verify_checkpoints(c: &Control) -> Result<()> {
    for &(generation, ledger, held) in &c.expected {
        let ckpt = c.store.load(generation)?;
        if ckpt.generation != generation || ckpt.ledger != ledger {
            return Err(Error::runtime(format!(
                "checkpoint {generation}: ledger {:?} differs from the benchmark's {ledger:?}",
                ckpt.ledger
            )));
        }
        if ledger.injected != ledger.tx + ledger.drops + held || ckpt.packet_count() != held {
            return Err(Error::runtime(format!(
                "checkpoint {generation}: injected {} != tx {} + drops {} + held {held}",
                ledger.injected, ledger.tx, ledger.drops
            )));
        }
    }
    Ok(())
}

impl Control {
    fn defect_note(&self) -> Option<String> {
        (self.gauge_loss > 0).then(|| {
            format!(
                "known defect: the engine's drop gauge fell {} drops behind the benchmark's count \
                 across {} hot swaps",
                self.gauge_loss,
                self.swaps_ns.len()
            )
        })
    }
}

/// Latency percentiles within each window of `n` frames, then their
/// median, so that a rare host stall moves one window rather than the
/// reported figure. Returns (p50, p99, windows).
fn window_percentiles(lat: &[u64], n: usize) -> (f64, f64, usize) {
    let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = lat
        .chunks(n)
        .map(|c| {
            let mut c: Vec<f64> = c.iter().map(|&ns| ns as f64).collect();
            c.sort_by(f64::total_cmp);
            (quantile(&c, 0.50), quantile(&c, 0.99))
        })
        .unzip();
    let windows = p50.len();
    (median(&mut p50), median(&mut p99), windows)
}

/// Nanosecond samples in milliseconds.
fn ms(v: impl Iterator<Item = u64>) -> Vec<f64> {
    v.map(|ns| ns as f64 / 1e6).collect()
}

/// The spread of one kind of sample within a run.
fn quantile_note(what: &str, v: &[f64]) -> String {
    let mut q = v.to_vec();
    q.sort_by(f64::total_cmp);
    let qs: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&f| format!("p{} {:.4}", (f * 100.0) as u32, quantile(&q, f)))
        .collect();
    format!("{what} over {} samples: {}", q.len(), qs.join(" "))
}

fn layer_table(layers: &BTreeMap<&'static str, LayerTotal>, frames: f64) -> Vec<String> {
    let mut out = vec!["traced saturation, self time per layer (ns/pkt):".to_string()];
    for (name, t) in layers {
        out.push(format!(
            "  {name:<20} {:>9.1}  ({} spans, {} frames)",
            t.self_ns as f64 / frames,
            t.spans,
            t.frames
        ));
    }
    out
}

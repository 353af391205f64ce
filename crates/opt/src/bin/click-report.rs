//! `click-report`: run a router under the telemetry layer and export a
//! merged per-element JSON profile (the input of `click-profile`).
//!
//! Usage:
//!
//! ```text
//! click-report [--ifaces N] [--shards K] [--packets P] [--batched BURST]
//!              [--source LABEL] [--out FILE] [--emit-config] [--faults]
//!              [--swap NEW.click] [CONFIG.click]
//! ```
//!
//! Without a positional configuration file the tool profiles the paper's
//! `N`-interface IP router (`click_elements::ip_router`) under its
//! standard cross-interface UDP workload; with one, it loads the
//! configuration and injects a generic UDP trace on every device. With
//! `--shards K > 1` the trace runs on the sharded runtime and the
//! per-shard counters are merged by the control plane — packet totals
//! equal the serial run, so a profile is engine-independent.
//!
//! The binary must be built with `--features telemetry` for live
//! counters; without it the profile structure is emitted with zeros (and
//! a warning on stderr).
//!
//! `--faults` includes the sharded runtime's supervisor gauges (shard
//! deaths, restarts, degraded-mode entries, in-flight loss — see
//! [`click_elements::telemetry::FaultGauges`]) in the exported JSON, so
//! `click-profile` consumers can see the run's fault history. The gauges
//! are always live (not feature-gated): a configuration carrying a
//! `FaultInject(PANIC …)` element profiles its own chaos run.
//!
//! `--devices` opens a real I/O backend for every device name that
//! carries a backend scheme (`pcap:trace.pcap`, `udp:ADDR>PEER`,
//! `tap:NAME`, `fault:…` — see [`click_elements::iodev`]), pumps them
//! under supervision for the duration of the run, and exports the
//! per-device [`click_elements::telemetry::DeviceGauges`] in the
//! profile's `"devices"` section. Scheme-bearing devices are fed by
//! their backends; the synthetic trace only reaches scheme-less ones.
//!
//! `--swap NEW.click` exercises live reconfiguration: the first half of
//! the trace runs under the starting configuration, the router is
//! hot-swapped to `NEW.click` (validated, state-transferring, canary +
//! rollback on the sharded runtime — see
//! [`click_elements::parallel::ParallelRouter::hot_swap`]), and the
//! second half runs under whichever configuration survived. The
//! resulting [`click_elements::telemetry::SwapGauges`] are exported in
//! the profile's `"swap"` section and summarized on stderr. A `NEW.click`
//! that fails `click-check` is rejected; the run continues (and the
//! profile records it) under the old configuration.
//!
//! `--checkpoints DIR` inspects a checkpoint directory (as written by
//! `click-pcap --ckpt-dir` or the reopt daemon): generations on disk,
//! the newest valid one, how many torn files sit above it, and the
//! recovered ledger. The resulting
//! [`click_elements::telemetry::CheckpointGauges`] land in the profile's
//! `"checkpoints"` section and on stderr.
//!
//! `--emit-config` prints the generated IP-router configuration to
//! stdout instead of profiling, so the profile-guided pipeline is
//! self-contained:
//!
//! ```text
//! click-report --emit-config > ip.click
//! click-report --out p.json
//! click-profile --profile p.json < ip.click | click-fastclassifier | ...
//! ```

use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_elements::engine::{build_engine, Engine};
use click_elements::headers::build_udp_packet;
use click_elements::iodev::backend_scheme;
use click_elements::ip_router::{test_packet_flow, IpRouterSpec};
use click_elements::packet::Packet;
use click_elements::parallel::ParallelOpts;
use click_elements::persist::CheckpointStore;
use click_elements::swap::SwapReport;
use click_elements::telemetry::{self, CheckpointGauges, ElementProfile, SwapGauges};
use click_opt::profile::Profile;
use click_opt::tool::parse_args;

/// Distinct UDP source ports in the generated trace (distinct flows for
/// RSS steering).
const FLOWS: u16 = 64;

fn usage() -> ! {
    eprintln!(
        "usage: click-report [--ifaces N] [--shards K] [--steerers J] \
         [--packets P] [--batched BURST] [--source LABEL] [--out FILE] \
         [--emit-config] [--faults] [--devices] [--swap NEW.click] \
         [--checkpoints DIR] [CONFIG.click]"
    );
    std::process::exit(2);
}

/// One frame of the trace: (receiving device name, packet).
type Frame = (String, Packet);

/// What `--checkpoints DIR` reports: the directory's state mapped onto
/// the always-live gauge structure, plus a stderr ledger line for the
/// newest recoverable generation. A missing or empty directory is not
/// an error — it reports as zero generations.
fn inspect_checkpoints(dir: &str) -> CheckpointGauges {
    let mut g = CheckpointGauges::default();
    let store = match CheckpointStore::open(dir, 1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("click-report: checkpoints: {e}");
            return g;
        }
    };
    let generations = store.generations();
    let (latest, torn) = store.latest_valid();
    g.checkpoints_written = generations.len() as u64;
    g.torn_discarded = torn;
    match latest {
        Some(ckpt) => {
            g.last_generation = ckpt.generation;
            g.quiesce_ns_last = ckpt.quiesce_ns;
            g.packets_persisted = ckpt.packet_count();
            eprintln!(
                "click-report: checkpoints: {} generation(s) in {dir}, newest valid {} \
                 ({} torn above it), config hash {:016x}",
                generations.len(),
                ckpt.generation,
                torn,
                ckpt.config_hash
            );
            eprintln!(
                "click-report: checkpoints: ledger at generation {}: injected {} == tx {} \
                 + drops {} (+ in-flight {} packet(s) persisted), quiesce {} ns",
                ckpt.generation,
                ckpt.ledger.injected,
                ckpt.ledger.tx,
                ckpt.ledger.drops,
                ckpt.packet_count(),
                ckpt.quiesce_ns
            );
        }
        None => {
            g.cold_starts = 1;
            eprintln!(
                "click-report: checkpoints: no valid generation in {dir} \
                 ({} file(s), {} torn) — a restart here cold-starts",
                generations.len(),
                torn
            );
        }
    }
    g
}

/// The IP-router workload: cross-interface UDP flows, as in the benches.
fn ip_router_frames(spec: &IpRouterSpec, n: usize, packets: usize) -> Vec<Frame> {
    (0..packets)
        .map(|i| {
            let src = i % (n / 2);
            let dst = src + n / 2;
            let sport = 2000 + (i as u16 % FLOWS);
            (
                format!("eth{src}"),
                test_packet_flow(spec, src, dst, sport, 7000),
            )
        })
        .collect()
}

/// A generic workload for arbitrary configurations: UDP frames injected
/// round-robin across the configuration's devices.
fn generic_frames(devices: &[String], packets: usize) -> Vec<Frame> {
    (0..packets)
        .map(|i| {
            let dev = devices[i % devices.len()].clone();
            let sport = 2000 + (i as u16 % FLOWS);
            let p = build_udp_packet([2; 6], [1; 6], 0x0A00_0002, 0x0A00_0102, sport, 9, 18, 64);
            (dev, p)
        })
        .collect()
}

/// The swap gauges of a one-swap run.
fn swap_gauges(outcome: &Result<SwapReport>) -> SwapGauges {
    let mut g = SwapGauges::default();
    match outcome {
        Ok(rep) => {
            if rep.rolled_back {
                g.rollbacks = 1;
                g.canary_failures = 1;
            } else {
                g.swaps = 1;
            }
            g.packets_transferred = rep.packets_transferred;
        }
        Err(e) => {
            g.rejected_configs = 1;
            eprintln!("click-report: hot swap rejected: {e}");
        }
    }
    g
}

/// Runs the trace through `engine`; returns the swap gauges (with
/// `--swap`) and the packets transmitted.
fn run(
    engine: &mut dyn Engine,
    swap_to: Option<&RouterGraph>,
    frames: &[Frame],
    devices_flag: bool,
) -> Result<(Option<SwapGauges>, u64)> {
    if devices_flag {
        let opened = engine.open_backends()?;
        eprintln!("click-report: opened {opened} device backend(s)");
    }
    // Scheme-bearing devices are fed by their backends, not the
    // synthetic trace.
    let inject = |engine: &mut dyn Engine, frames: &[Frame]| {
        for (dev, p) in frames {
            if devices_flag && backend_scheme(dev).is_some() {
                continue;
            }
            if let Some(id) = engine.device(dev) {
                engine.inject(id, p.clone());
            }
        }
    };
    // With --swap, the first half of the trace runs on the old
    // configuration and the second half on the new one.
    let split = if swap_to.is_some() {
        frames.len() / 2
    } else {
        frames.len()
    };
    inject(engine, &frames[..split]);
    engine.settle();
    if devices_flag {
        engine.run_with_devices(1_000_000)?;
    }
    let mut swap = None;
    if let Some(new_graph) = swap_to {
        // Buffer the second half first: on the sharded engine it is the
        // canary-window traffic the rollout judges the new configuration
        // against.
        inject(engine, &frames[split..]);
        swap = Some(swap_gauges(&engine.install(new_graph)));
        engine.settle();
        if devices_flag {
            // Drain whatever the post-swap traffic produced on the
            // backend-bound devices.
            engine.run_with_devices(1_000_000)?;
        }
    }
    let mut tx = 0u64;
    for p in engine.drain_tx() {
        p.recycle();
        tx += 1;
    }
    Ok((swap, tx))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = parse_args(
        &args,
        &[
            "ifaces",
            "shards",
            "steerers",
            "packets",
            "batched",
            "source",
            "out",
            "swap",
            "checkpoints",
        ],
    );
    let mut ifaces = 4usize;
    let mut shards = 1usize;
    let mut steerers = 0usize;
    let mut packets = 2048usize;
    let mut batched = 0usize;
    let mut source: Option<String> = None;
    let mut out: Option<String> = None;
    let mut swap_path: Option<String> = None;
    let mut checkpoints_dir: Option<String> = None;
    let mut emit_config = false;
    let mut faults_flag = false;
    let mut devices_flag = false;
    for (flag, value) in &flags {
        let num = || -> usize {
            value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "ifaces" => ifaces = num().max(2),
            "shards" => shards = num().max(1),
            "steerers" => steerers = num(),
            "packets" => packets = num().max(1),
            "batched" => batched = num(),
            "source" => source = value.clone(),
            "out" => out = value.clone(),
            "swap" => swap_path = value.clone(),
            "checkpoints" => checkpoints_dir = value.clone(),
            "emit-config" => emit_config = true,
            "faults" => faults_flag = true,
            "devices" => devices_flag = true,
            "help" => usage(),
            other => {
                eprintln!("click-report: unknown flag --{other}");
                usage();
            }
        }
    }
    if positional.len() > 1 {
        usage();
    }
    if emit_config {
        print!("{}", IpRouterSpec::standard(ifaces).config());
        return;
    }

    if !telemetry::ENABLED {
        eprintln!(
            "click-report: warning: built without `--features telemetry`; \
             all counters in the profile will read zero"
        );
    }

    // Build the graph; the trace comes after the engine, which names
    // the devices a generic trace is injected on.
    let (graph, spec, label) = match positional.first() {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("click-report: reading {path}: {e}");
                std::process::exit(1);
            });
            let graph = read_config(&text).unwrap_or_else(|e| {
                eprintln!("click-report: parsing {path}: {e}");
                std::process::exit(1);
            });
            (graph, None, path.clone())
        }
        None => {
            let spec = IpRouterSpec::standard(ifaces);
            let graph = read_config(&spec.config()).expect("generated config parses");
            (graph, Some(spec), format!("ip-router-{ifaces}"))
        }
    };

    let swap_graph: Option<RouterGraph> = swap_path.as_deref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("click-report: reading {path}: {e}");
            std::process::exit(1);
        });
        read_config(&text).unwrap_or_else(|e| {
            eprintln!("click-report: parsing {path}: {e}");
            std::process::exit(1);
        })
    });

    // Engine selection must cover both sides of a swap: a devirtualized
    // graph on either end runs the whole drill on the compiled engine.
    let devirt = graph.has_requirement("devirtualize")
        || swap_graph
            .as_ref()
            .is_some_and(|g| g.has_requirement("devirtualize"));
    if shards == 1 && steerers > 0 {
        eprintln!(
            "click-report: warning: --steerers with a serial run (--shards 1); \
             steering happens inline, ignoring"
        );
    }
    let mut opts = ParallelOpts::new(shards).with_steerers(steerers);
    if batched > 0 {
        opts = opts.batched(batched);
    }
    let fail = |e: click_core::error::Error| -> ! {
        eprintln!("click-report: {e}");
        std::process::exit(1);
    };
    let mut engine = build_engine(&graph, devirt, opts).unwrap_or_else(|e| fail(e));
    let frames = match &spec {
        Some(spec) => ip_router_frames(spec, ifaces, packets),
        None => {
            let devices = engine.device_names();
            if devices.is_empty() {
                eprintln!("click-report: configuration has no devices to inject on");
                std::process::exit(1);
            }
            generic_frames(&devices, packets)
        }
    };
    let (swap_gauges, tx) = run(engine.as_mut(), swap_graph.as_ref(), &frames, devices_flag)
        .unwrap_or_else(|e| fail(e));
    let fault_gauges = engine.fault_gauges();
    if faults_flag && fault_gauges.is_none() {
        eprintln!(
            "click-report: warning: --faults with a serial run (--shards 1); \
             no supervisor gauges to export"
        );
    }

    let profile = Profile {
        source: source.unwrap_or(label),
        shards,
        telemetry: telemetry::ENABLED,
        elements: engine.profiles(),
        gauges: engine.shard_gauges(),
        steering: engine.steer_gauges(),
        faults: if faults_flag { fault_gauges } else { None },
        swap: swap_gauges,
        devices: engine.device_gauges(),
        checkpoints: checkpoints_dir.as_deref().map(inspect_checkpoints),
        ..Profile::default()
    };
    let json = profile.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("click-report: writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("click-report: wrote {path}");
        }
        None => print!("{json}"),
    }

    if let Some(f) = profile.faults {
        eprintln!(
            "click-report: faults: {} death(s), {} restart(s), {} degraded, \
             {} lost, {}/{} shards live",
            f.shard_deaths, f.restarts, f.degraded_entries, f.lost_packets, f.live_shards, f.shards
        );
    }
    if let Some(w) = profile.swap {
        eprintln!(
            "click-report: swap: {} swap(s), {} rollback(s), {} canary failure(s), \
             {} packet(s) transferred",
            w.swaps, w.rollbacks, w.canary_failures, w.packets_transferred
        );
    }
    for d in &profile.devices {
        eprintln!(
            "click-report: device {} ({}, {}): {} rx, {} tx, {} flap(s), \
             {} reopen(s), {} lost",
            d.device,
            d.backend,
            d.health,
            d.rx_packets,
            d.tx_packets,
            d.flaps,
            d.reopens,
            d.drain_lost
        );
    }

    // Human summary: where the cycles went.
    eprintln!(
        "click-report: {} packets in, {tx} out, {} shard(s), {} element(s)",
        frames.len(),
        profile.shards,
        profile.elements.len()
    );
    if telemetry::ENABLED {
        let mut by_cost: Vec<&ElementProfile> = profile.elements.iter().collect();
        by_cost.sort_by_key(|e| std::cmp::Reverse(e.self_ns));
        for e in by_cost.iter().take(5) {
            eprintln!(
                "click-report:   {:<12} {:<16} {:>8} pkts  {:>8.1} ns/pkt",
                e.name,
                e.class,
                e.packets,
                e.ns_per_packet()
            );
        }
        // Where ingress time goes: the steering stage(s) sit in front of
        // every element above, so their self time is the hand-off tax.
        for g in &profile.steering {
            let ns_per_pkt = if g.packets == 0 {
                0.0
            } else {
                g.steer_ns as f64 / g.packets as f64
            };
            eprintln!(
                "click-report:   steerer {:<4} ingress          {:>8} pkts  {:>8.1} ns/pkt  \
                 ({} snoozes)",
                g.steerer, g.packets, ns_per_pkt, g.snoozes
            );
        }
    }
}

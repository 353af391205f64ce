//! Device-chaos suite: kill, storm, and wedge the real-I/O backends
//! mid-stream and prove the supervision layer degrades gracefully with
//! an exact loss ledger.
//!
//! The contracts under test (see `crates/elements/src/iodev.rs`):
//!
//! * a device that goes hard `Down` mid-run (injected `DOWN-AFTER`) must
//!   not stop forwarding: RX keeps flowing, pending TX is flushed within
//!   the drain deadline or *counted* lost, and the accounting is exact —
//!   `injected == tx + drain_lost + router drops`;
//! * an `EAGAIN` storm is absorbed by bounded retry/backoff inside the
//!   op deadline; nothing is lost, and the gauges record every block,
//!   retry, and backoff;
//! * a killed RX source is re-opened automatically within the recovery
//!   budget (`Down -> Recovering -> Up`) and the trace completes;
//! * a device whose re-opens are refused past the budget is *abandoned*:
//!   it stays `Down`, everything queued for it becomes counted loss, and
//!   the rest of the router keeps running.

use click::core::lang::read_config;
use click::core::RouterGraph;
use click::elements::driver::DeviceDriver;
use click::elements::element::Element;
use click::elements::engine::{build_engine, Engine};
use click::elements::headers::build_udp_packet;
use click::elements::iodev::{
    write_pcap, FaultInjectBackend, HealthPolicy, MemBackend, MemQueues, PcapBackend, PumpStats,
    RetryPolicy, SupervisedDevice,
};
use click::elements::parallel::{ParallelOpts, ParallelRouter};
use std::time::{Duration, Instant};

const FRAMES: usize = 400;

fn chaos_graph() -> RouterGraph {
    read_config("FromDevice(in0) -> Counter -> Queue(8192) -> ToDevice(out0);")
        .expect("chaos graph parses")
}

fn router_4shard(graph: &RouterGraph) -> ParallelRouter {
    ParallelRouter::from_graph::<Box<dyn Element>>(graph, ParallelOpts::new(4).batched(8))
        .expect("4-shard router builds")
}

/// A UDP frame of flow `sport` so the 4-shard steerer spreads the trace.
fn frame(i: usize) -> Vec<u8> {
    let sport = 2000 + (i as u16 % 32);
    let mut p = build_udp_packet([1; 6], [2; 6], 0x0A00_0002, 0x0A00_0102, sport, 9, 18, 64);
    let len = p.len();
    p.data_mut()[len - 1] = i as u8;
    let bytes = p.data().to_vec();
    p.recycle();
    bytes
}

/// Test-speed supervision: microsecond backoffs, a drain deadline short
/// enough to expire inside the test, default-shaped thresholds.
fn fast_policies(drain_deadline_us: u64, reopen_budget: u32) -> (RetryPolicy, HealthPolicy) {
    (
        RetryPolicy {
            max_retries: 3,
            backoff_base_us: 1,
            backoff_max_us: 20,
            op_deadline_us: 500,
        },
        HealthPolicy {
            flap_threshold: 3,
            window: 16,
            down_errors: 6,
            recovery_ops: 2,
            reopen_budget,
            drain_deadline_us,
            reopen_backoff_us: 200,
        },
    )
}

/// Pumps driver and router until the ledger balances at a quiescent
/// point (source drained, no pending TX) or the deadline passes.
fn pump_to_quiescence(
    drv: &mut DeviceDriver,
    r: &mut ParallelRouter,
    source: &MemQueues,
    total: u64,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        drv.pump(r, 16).expect("pump");
        r.run_until_idle();
        let accounted = drv.sent() + drv.lost() + r.total_drops();
        if drv.injected() == total
            && drv.pending() == 0
            && source.rx_len() == 0
            && accounted == total
        {
            return;
        }
    }
    panic!(
        "no quiescence: injected {} sent {} lost {} drops {} pending {}",
        drv.injected(),
        drv.sent(),
        drv.lost(),
        r.total_drops(),
        drv.pending()
    );
}

#[test]
fn tx_device_killed_mid_run_keeps_exact_ledger() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);
    let mut drv = DeviceDriver::new();

    let (in_be, in_q) = MemBackend::with_handles();
    drv.attach("in0", Box::new(in_be));

    // The TX device dies mid-run and refuses its first three re-opens:
    // with 200 µs re-open backoff doubling per refusal, the outage
    // outlives the 300 µs drain deadline, so some pending TX *must*
    // become counted loss before the device comes back.
    let (out_be, out_q) = MemBackend::with_handles();
    let fault = FaultInjectBackend::new(Box::new(out_be))
        .down_after(120)
        .down_for(3);
    let (retry, health) = fast_policies(300, 16);
    drv.attach_supervised(
        "out0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    for i in 0..FRAMES {
        in_q.push_rx(&frame(i));
    }
    pump_to_quiescence(&mut drv, &mut r, &in_q, FRAMES as u64);

    // Exact ledger: every injected frame is transmitted, counted lost,
    // or a counted router drop — nothing vanishes.
    assert_eq!(drv.injected(), FRAMES as u64);
    assert_eq!(
        drv.injected(),
        drv.sent() + drv.lost() + r.total_drops(),
        "ledger must balance exactly"
    );
    assert_eq!(out_q.tx_len() as u64, drv.sent());

    // The outage is visible in the gauges, and the device recovered.
    let g = &drv.gauges()[1];
    assert_eq!(g.device, "out0");
    assert!(g.flaps >= 1, "flap gauge: {g:?}");
    assert!(g.down_events >= 1, "down gauge: {g:?}");
    assert!(g.reopens >= 1, "reopen gauge: {g:?}");
    assert!(g.drain_lost >= 1, "loss gauge: {g:?}");
    assert!(drv.lost() >= 1);
    assert!(
        g.health == "up" || g.health == "recovering",
        "device must be back after the flap: {g:?}"
    );
    // Forwarding continued after the flap: more frames were delivered
    // than could have been before the kill at op 120.
    assert!(drv.sent() > 120, "forwarding must survive the outage");
    r.shutdown();
}

#[test]
fn eagain_storm_is_absorbed_without_loss() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);
    let mut drv = DeviceDriver::new();

    let (in_be, in_q) = MemBackend::with_handles();
    drv.attach("in0", Box::new(in_be));

    // A bursty TX device: 25% of ops start a 4-op EAGAIN storm. With a
    // generous drain deadline every frame must still get through.
    let (out_be, out_q) = MemBackend::with_handles();
    let fault = FaultInjectBackend::new(Box::new(out_be))
        .eagain(0.25)
        .storm(4)
        .seed(9);
    let (retry, health) = fast_policies(1_000_000, 8);
    drv.attach_supervised(
        "out0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    for i in 0..FRAMES {
        in_q.push_rx(&frame(i));
    }
    pump_to_quiescence(&mut drv, &mut r, &in_q, FRAMES as u64);

    assert_eq!(drv.injected(), FRAMES as u64);
    assert_eq!(drv.sent(), FRAMES as u64, "a storm must not lose frames");
    assert_eq!(drv.lost(), 0);
    assert_eq!(r.total_drops(), 0);
    assert_eq!(out_q.tx_len(), FRAMES);

    let g = &drv.gauges()[1];
    assert!(g.would_blocks > 0, "storm must be visible: {g:?}");
    assert!(g.retries > 0, "retries must be counted: {g:?}");
    assert!(g.backoffs > 0, "backoffs must be counted: {g:?}");
    r.shutdown();
}

#[test]
fn rx_device_killed_mid_run_replugs_within_budget() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);
    let mut drv = DeviceDriver::new();

    // The RX source dies after 150 ops and refuses two re-opens; the
    // supervision layer must re-plug it within the budget and finish the
    // trace with zero loss (the kill consumes no frame).
    let (in_be, in_q) = MemBackend::with_handles();
    let fault = FaultInjectBackend::new(Box::new(in_be))
        .down_after(150)
        .down_for(2);
    let (retry, health) = fast_policies(1_000_000, 16);
    drv.attach_supervised(
        "in0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    let (out_be, out_q) = MemBackend::with_handles();
    drv.attach("out0", Box::new(out_be));

    for i in 0..FRAMES {
        in_q.push_rx(&frame(i));
    }
    pump_to_quiescence(&mut drv, &mut r, &in_q, FRAMES as u64);

    assert_eq!(drv.injected(), FRAMES as u64, "the whole trace must arrive");
    assert_eq!(drv.sent(), FRAMES as u64);
    assert_eq!(drv.lost(), 0);
    assert_eq!(out_q.tx_len(), FRAMES);

    let g = &drv.gauges()[0];
    assert_eq!(g.device, "in0");
    assert!(g.flaps >= 1, "kill must register: {g:?}");
    assert!(g.down_events >= 1, "down must register: {g:?}");
    assert!(g.reopens >= 1, "re-plug must register: {g:?}");
    assert!(
        g.health == "up" || g.health == "recovering",
        "device must be back: {g:?}"
    );
    r.shutdown();
}

#[test]
fn abandoned_tx_device_turns_backlog_into_counted_loss() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);
    let mut drv = DeviceDriver::new();

    let (in_be, in_q) = MemBackend::with_handles();
    drv.attach("in0", Box::new(in_be));

    // Dead for good: every re-open is refused, and the budget is tiny.
    let (out_be, out_q) = MemBackend::with_handles();
    let fault = FaultInjectBackend::new(Box::new(out_be))
        .down_after(60)
        .down_for(1_000_000);
    let (retry, health) = fast_policies(300, 3);
    drv.attach_supervised(
        "out0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    for i in 0..FRAMES {
        in_q.push_rx(&frame(i));
    }
    pump_to_quiescence(&mut drv, &mut r, &in_q, FRAMES as u64);

    // The router itself never stalled: the whole trace was injected and
    // every frame is accounted as sent-before-death or counted loss.
    assert_eq!(drv.injected(), FRAMES as u64);
    assert_eq!(
        drv.injected(),
        drv.sent() + drv.lost() + r.total_drops(),
        "ledger must balance exactly even for an abandoned device"
    );
    assert_eq!(out_q.tx_len() as u64, drv.sent());
    assert!(drv.lost() > 0, "the backlog must be counted, not leaked");

    let g = &drv.gauges()[1];
    assert_eq!(g.health, "down", "an abandoned device stays down: {g:?}");
    assert!(g.drain_lost > 0, "{g:?}");
    assert_eq!(g.reopens, 0, "no refused re-open may count as success");
    r.shutdown();
}

/// One ledger formula on both engines: the same faulted pcap replay
/// (frames lost on the wire, then a TX device that dies and refuses its
/// re-opens past the drain deadline), built through `build_engine` as
/// serial and as 2 shards, closes `offered == tx + drops()` with no
/// engine-specific term.
#[test]
fn faulted_pcap_replay_closes_one_ledger_on_both_engines() {
    let dir = std::env::temp_dir().join(format!("click-device-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ledger.pcap");
    write_pcap(&trace, &(0..FRAMES).map(frame).collect::<Vec<_>>()).unwrap();
    let trace = trace.to_str().unwrap();

    for shards in [1, 2] {
        let opts = ParallelOpts::new(shards).batched(8);
        let mut engine = build_engine(&chaos_graph(), false, opts).unwrap();
        let pcap = PcapBackend::open(trace, None).unwrap();
        let rx = FaultInjectBackend::parse("DROP 0.1, SEED 7", Box::new(pcap)).unwrap();
        engine
            .attach("in0", SupervisedDevice::new(Box::new(rx)))
            .unwrap();
        let (out_be, _out_q) = MemBackend::with_handles();
        let tx_dev =
            FaultInjectBackend::parse("DOWN-AFTER 120, DOWN-FOR 3", Box::new(out_be)).unwrap();
        let (retry, health) = fast_policies(300, 16);
        engine
            .attach(
                "out0",
                SupervisedDevice::with_policies(Box::new(tx_dev), retry, health),
            )
            .unwrap();

        // Pump until runs stop moving frames: the trace is drained and
        // the parked TX is sent or counted lost.
        let mut stats = PumpStats::default();
        let mut idle_runs = 0;
        while idle_runs < 5 {
            let run = engine.run_with_devices(1000).unwrap();
            idle_runs = if run.idle() { idle_runs + 1 } else { 0 };
            stats.absorb(run);
            std::thread::sleep(Duration::from_millis(1));
        }
        let offered = stats.rx as u64;
        let tx = stats.tx as u64 + engine.drain_tx().len() as u64;
        assert!(
            offered > 0 && offered < FRAMES as u64,
            "{shards} shard(s): the wire lost some of the trace, not all"
        );
        assert!(
            engine.drops() > 0,
            "{shards} shard(s): the outage cost counted loss"
        );
        assert_eq!(offered, tx + engine.drops(), "{shards} shard(s): ledger");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One stop rule on both engines: a `run_with_devices` call rides out
/// an RX outage — while the flapped source is `Down` with a re-open
/// still scheduled it waits, re-plugs it and replays the rest of the
/// trace — and returns once the trace ends, even though the TX-only
/// memory queue never reports exhausted.
#[test]
fn one_device_run_rides_out_an_rx_outage_and_stops_at_trace_end() {
    let dir = std::env::temp_dir().join(format!("click-device-flap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("flap.pcap");
    write_pcap(&trace, &(0..FRAMES).map(frame).collect::<Vec<_>>()).unwrap();
    let trace = trace.to_str().unwrap();

    for shards in [1, 2] {
        let opts = ParallelOpts::new(shards).batched(8);
        let mut engine = build_engine(&chaos_graph(), false, opts).unwrap();
        let pcap = PcapBackend::open(trace, None).unwrap();
        let rx = FaultInjectBackend::parse("DOWN-AFTER 150, DOWN-FOR 2", Box::new(pcap)).unwrap();
        engine
            .attach("in0", SupervisedDevice::new(Box::new(rx)))
            .unwrap();
        let (out_be, out_q) = MemBackend::with_handles();
        engine
            .attach("out0", SupervisedDevice::new(Box::new(out_be)))
            .unwrap();

        let t0 = Instant::now();
        let stats = engine.run_with_devices(100_000).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "{shards} shard(s): run_with_devices idled for {elapsed:?} after the trace ended"
        );
        let offered = stats.rx as u64;
        let tx = stats.tx as u64 + engine.drain_tx().len() as u64;
        assert_eq!(
            offered, FRAMES as u64,
            "{shards} shard(s): the whole trace replays in one run"
        );
        assert_eq!(offered, tx + engine.drops(), "{shards} shard(s): ledger");
        assert_eq!(out_q.tx_len() as u64, stats.tx as u64);
        let g = &engine.device_gauges()[0];
        assert_eq!(g.device, "in0");
        assert_eq!(g.reopens, 1, "{shards} shard(s): one re-open: {g:?}");
        assert_eq!(g.health, "up", "{shards} shard(s): {g:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Continuous-reoptimization drill: the `click-morph` loop observed end
//! to end. A mid-trace traffic shift must produce exactly one kept swap
//! (no thrash, per-flow order preserved, every packet accounted for); a
//! fault-injected recompile must roll back and freeze the loop in
//! cooldown; and without the `telemetry` feature the loop must stay
//! quiet while forwarding everything.

use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_core::registry::Library;
use click_elements::engine::Engine;
use click_elements::fast::FastElement;
use click_elements::packet::Packet;
#[cfg(feature = "telemetry")]
use click_elements::parallel::{ParallelOpts, ParallelRouter};
use click_elements::router::Router;
use click_elements::steer::flow_key;
#[cfg(feature = "telemetry")]
use click_opt::reopt::SuppressReason;
use click_opt::reopt::{
    demo_config, demo_graph, optimize_pipeline, DemoTrace, MorphDaemon, ReoptPolicy, WindowOutcome,
    DEMO_BRANCHES, DEMO_FLOWS,
};

const WINDOW_PACKETS: usize = 460;

/// The shift drill's policy: a demanding improvement threshold so cold
/// round-robin jitter can never justify a swap — only the real shift
/// (which models a ~90% win) acts.
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
fn strict_policy() -> ReoptPolicy {
    ReoptPolicy {
        min_improvement: 0.2,
        ..ReoptPolicy::default()
    }
}

/// Drives `windows` demo windows through the daemon, shifting the hot
/// branch from 0 to the last at `shift_at`. Returns the outcomes.
fn drive<E: Engine>(
    daemon: &mut MorphDaemon<E>,
    trace: &mut DemoTrace,
    windows: usize,
    shift_at: usize,
) -> Vec<WindowOutcome> {
    (0..windows)
        .map(|w| {
            let hot = if w < shift_at { 0 } else { DEMO_BRANCHES - 1 };
            let frames = trace.window(WINDOW_PACKETS, hot, DEMO_BRANCHES);
            daemon.step(&frames).expect("window steps cleanly")
        })
        .collect()
}

/// Asserts sequence markers (last payload byte) appear in increasing
/// order for each selected packet stream. The marker wraps at 256, so
/// the check is on wrapping deltas: each consecutive pair must advance
/// by 1..128 (gaps are fine — a rolled-back window's packets may be
/// dropped — but going backwards is not).
fn assert_seq_order(label: &str, seqs: &[u8]) {
    assert!(!seqs.is_empty(), "{label} vanished");
    for pair in seqs.windows(2) {
        let delta = pair[1].wrapping_sub(pair[0]);
        assert!(
            (1..128).contains(&delta),
            "{label} reordered around {} -> {}",
            pair[0],
            pair[1]
        );
    }
}

/// Serial engine: a FIFO end to end, so each demo flow (source port)
/// stays ordered regardless of which branch its packets matched.
fn assert_per_flow_order(tx: &[Packet]) {
    for flow in 0..DEMO_FLOWS {
        let sport = 2000 + flow;
        let seqs: Vec<u8> = tx
            .iter()
            .filter(|p| flow_key(p.data()).map(|k| k.3) == Some(sport))
            .map(|p| p.data()[p.len() - 1])
            .collect();
        assert_seq_order(&format!("flow {flow}"), &seqs);
    }
}

/// Sharded engine: RSS steering orders traffic per 5-tuple (a demo
/// "flow" fans its packets out over per-branch destination ports, which
/// may steer to different shards). Check the hot sub-flows — dense
/// enough that the byte-wide marker's wrapping deltas stay under 128.
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
fn assert_per_subflow_order(tx: &[Packet], hot_branches: &[usize]) {
    for flow in 0..DEMO_FLOWS {
        let sport = 2000 + flow;
        for &branch in hot_branches {
            let dport = 3000 + branch as u16;
            let seqs: Vec<u8> = tx
                .iter()
                .filter(|p| flow_key(p.data()).is_some_and(|k| k.3 == sport && k.4 == dport))
                .map(|p| p.data()[p.len() - 1])
                .collect();
            assert_seq_order(&format!("flow {flow} -> b{branch}"), &seqs);
        }
    }
}

/// The demo artifact with a deterministic all-drop `FaultInject` spliced
/// onto the push path right after ingress — a "recompile" that regresses
/// catastrophically.
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
fn faulty_artifact() -> RouterGraph {
    let cfg = demo_config(DEMO_BRANCHES).replace(
        "src -> cls;",
        "src -> flt :: FaultInject(DROP 1, SEED 3) -> cls;",
    );
    assert!(cfg.contains("FaultInject"), "splice point moved");
    optimize_pipeline(&read_config(&cfg).expect("faulty config parses"))
        .expect("faulty config optimizes")
}

#[cfg(feature = "telemetry")]
mod live {
    use super::*;

    /// One traffic shift → exactly one recompile and one kept swap, with
    /// per-flow order and exact packet accounting, on the serial router.
    #[test]
    fn shift_yields_exactly_one_kept_swap_serial() {
        let source = demo_graph(DEMO_BRANCHES).unwrap();
        let artifact = optimize_pipeline(&source).unwrap();
        let router: Router<FastElement> =
            Router::from_graph(&artifact, &Library::standard()).unwrap();
        let mut daemon = MorphDaemon::new(router, source, artifact, strict_policy());

        let mut trace = DemoTrace::new();
        let outcomes = drive(&mut daemon, &mut trace, 12, 6);

        // Pre-shift windows are stable; the shift schedules one
        // recompile; the next window keeps the swap; then stable again.
        for (w, o) in outcomes.iter().enumerate() {
            match w {
                6 => assert!(
                    matches!(o, WindowOutcome::Scheduled { improvement } if *improvement > 0.5),
                    "window 6: {o:?}"
                ),
                7 => assert!(
                    matches!(o, WindowOutcome::SwapKept { .. }),
                    "window 7: {o:?}"
                ),
                _ => assert!(matches!(o, WindowOutcome::Stable), "window {w}: {o:?}"),
            }
        }
        let g = daemon.gauges();
        assert_eq!(g.windows_observed, 12);
        assert_eq!(g.recompiles, 1);
        assert_eq!(g.swaps_kept, 1);
        assert_eq!(g.rollbacks, 0);
        assert_eq!(g.thrash_suppressed, 0);

        // The kept artifact now lists the shifted hot branch first.
        let installed = daemon.installed().clone();
        let cls = installed
            .element_ids()
            .find(|&id| installed.element(id).class() == "Classifier")
            .expect("classifier survives");
        let hot_pattern = format!("36/{:04x}", 3000 + DEMO_BRANCHES - 1);
        assert!(
            installed
                .element(cls)
                .config()
                .trim_start()
                .starts_with(&hot_pattern),
            "hot branch not hoisted: {}",
            installed.element(cls).config()
        );

        // Exact accounting and per-flow order across the swap.
        let mut router = daemon.into_target();
        let tx = router.drain_tx();
        assert_eq!(tx.len(), 12 * WINDOW_PACKETS, "every packet forwarded");
        assert_eq!(router.drops(), 0, "nothing dropped");
        assert_per_flow_order(&tx);
    }

    /// The same drill on the 4-shard runtime: the install is judged by
    /// the canary and kept, accounting stays exact.
    #[test]
    fn shift_yields_exactly_one_kept_swap_sharded() {
        let source = demo_graph(DEMO_BRANCHES).unwrap();
        let artifact = optimize_pipeline(&source).unwrap();
        let router =
            ParallelRouter::from_graph::<FastElement>(&artifact, ParallelOpts::new(4)).unwrap();
        let drops_start = router.total_drops();
        let mut daemon = MorphDaemon::new(router, source, artifact, strict_policy());

        let mut trace = DemoTrace::new();
        let outcomes = drive(&mut daemon, &mut trace, 12, 6);

        let kept: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, WindowOutcome::SwapKept { .. }))
            .map(|(w, _)| w)
            .collect();
        assert_eq!(kept, vec![7], "exactly one kept swap, at window 7");
        let WindowOutcome::SwapKept { report, .. } = &outcomes[7] else {
            unreachable!()
        };
        assert!(!report.rolled_back);
        assert_eq!(report.swapped_shards, 4, "rollout reached every shard");

        let g = daemon.gauges();
        assert_eq!(g.recompiles, 1);
        assert_eq!(g.swaps_kept, 1);
        assert_eq!(g.rollbacks, 0);

        let mut router = daemon.into_target();
        let tx = router.drain_tx();
        let drops = router.drops() - drops_start;
        assert_eq!(
            tx.len() as u64 + drops,
            (12 * WINDOW_PACKETS) as u64,
            "exact accounting across the canary rollout"
        );
        assert_per_subflow_order(&tx, &[0, DEMO_BRANCHES - 1]);
    }

    /// A regressed recompile (all-drop `FaultInject` spliced into the
    /// candidate) is rolled back by the serial drop-rate probation; the
    /// loop enters cooldown, then recovers with a clean swap once the
    /// chaos hook is removed.
    #[test]
    fn faulty_recompile_rolls_back_then_recovers_serial() {
        let source = demo_graph(DEMO_BRANCHES).unwrap();
        let artifact = optimize_pipeline(&source).unwrap();
        let router: Router<FastElement> =
            Router::from_graph(&artifact, &Library::standard()).unwrap();
        let mut daemon = MorphDaemon::new(router, source, artifact, strict_policy());
        let bad = faulty_artifact();
        daemon.mutate_candidate = Some(Box::new(move |g| *g = bad.clone()));

        let mut trace = DemoTrace::new();
        // Shift immediately: window 0 stable-ish baseline, window 1
        // diverges and schedules the (sabotaged) candidate.
        let outcomes = drive(&mut daemon, &mut trace, 3, 1);
        assert!(
            matches!(outcomes[1], WindowOutcome::Scheduled { .. }),
            "{outcomes:?}"
        );
        assert!(
            matches!(outcomes[2], WindowOutcome::SwapRolledBack { report: None }),
            "serial probation must roll the faulty install back: {:?}",
            outcomes[2]
        );
        let g = daemon.gauges();
        assert_eq!(g.rollbacks, 1);
        assert_eq!(g.swaps_kept, 0);

        // The probation window was forwarded through the faulty graph:
        // its packets died at the FaultInject, and the retired element's
        // drop counter must survive the rollback (monotonic gauge).
        assert_eq!(daemon.target().drops(), WINDOW_PACKETS as u64);

        // Divergence persists, but the cooldown (3 windows) freezes the
        // loop before it may recompile again.
        daemon.mutate_candidate = None;
        let after = drive(&mut daemon, &mut trace, 5, 0);
        for (i, o) in after.iter().take(3).enumerate() {
            assert!(
                matches!(o, WindowOutcome::Suppressed(SuppressReason::Cooldown)),
                "cooldown window {i}: {o:?}"
            );
        }
        assert!(
            matches!(after[3], WindowOutcome::Scheduled { .. }),
            "{after:?}"
        );
        assert!(
            matches!(after[4], WindowOutcome::SwapKept { .. }),
            "{after:?}"
        );
        let g = daemon.gauges();
        assert_eq!(g.rollbacks, 1);
        assert_eq!(g.swaps_kept, 1);
        assert_eq!(g.thrash_suppressed, 3);

        // Exact accounting: everything injected was transmitted except
        // the probation window the fault dropped.
        let mut router = daemon.into_target();
        let tx = router.drain_tx();
        let injected = 8 * WINDOW_PACKETS as u64;
        assert_eq!(tx.len() as u64 + router.drops(), injected);
        assert_per_flow_order(&tx);
    }

    /// The same sabotage on the sharded runtime: the canary shard judges
    /// the faulty graph, rolls it back, and the loop cools down.
    #[test]
    fn faulty_recompile_is_canaried_out_sharded() {
        let source = demo_graph(DEMO_BRANCHES).unwrap();
        let artifact = optimize_pipeline(&source).unwrap();
        let router =
            ParallelRouter::from_graph::<FastElement>(&artifact, ParallelOpts::new(4)).unwrap();
        let drops_start = router.total_drops();
        let mut daemon = MorphDaemon::new(router, source, artifact, strict_policy());
        let bad = faulty_artifact();
        daemon.mutate_candidate = Some(Box::new(move |g| *g = bad.clone()));

        let mut trace = DemoTrace::new();
        let outcomes = drive(&mut daemon, &mut trace, 3, 1);
        assert!(
            matches!(outcomes[1], WindowOutcome::Scheduled { .. }),
            "{outcomes:?}"
        );
        let WindowOutcome::SwapRolledBack {
            report: Some(report),
        } = &outcomes[2]
        else {
            panic!("canary must catch the faulty install: {:?}", outcomes[2]);
        };
        assert!(report.rolled_back);
        assert!(
            report.canary_drops > 0,
            "the canary saw the fault drop packets"
        );
        let g = daemon.gauges();
        assert_eq!(g.rollbacks, 1);
        assert_eq!(g.swaps_kept, 0);

        // Only the canary shard ran the faulty graph; its losses stay on
        // the monotonic gauge after the rollback retires the fault.
        let mut router = daemon.into_target();
        let drops = router.drops() - drops_start;
        assert!(drops > 0, "canary losses survive the rollback");
        let tx = router.drain_tx();
        assert_eq!(
            tx.len() as u64 + drops,
            3 * WINDOW_PACKETS as u64,
            "exact accounting across the canary rollback"
        );
        assert_per_subflow_order(&tx, &[0]);
    }
}

/// Without live counters every window reads as too quiet to judge: the
/// loop must never recompile, and the data path must be unaffected.
#[cfg(not(feature = "telemetry"))]
#[test]
fn loop_stays_quiet_without_telemetry() {
    let source = demo_graph(DEMO_BRANCHES).unwrap();
    let artifact = optimize_pipeline(&source).unwrap();
    let router: Router<FastElement> = Router::from_graph(&artifact, &Library::standard()).unwrap();
    let mut daemon = MorphDaemon::new(router, source, artifact, ReoptPolicy::default());

    let mut trace = DemoTrace::new();
    let outcomes = drive(&mut daemon, &mut trace, 6, 3);
    for (w, o) in outcomes.iter().enumerate() {
        assert!(matches!(o, WindowOutcome::Quiet), "window {w}: {o:?}");
    }
    let g = daemon.gauges();
    assert_eq!(g.windows_observed, 6);
    assert_eq!(g.recompiles, 0);
    assert_eq!(g.swaps_kept + g.rollbacks, 0);

    let mut router = daemon.into_target();
    let tx = router.drain_tx();
    assert_eq!(tx.len(), 6 * WINDOW_PACKETS, "forwarding is unaffected");
    assert_per_flow_order(&tx);
}

//! The benchmark's output checks must catch a broken run: a wrong
//! reference digest or an unbalanced ledger exits non-zero and prints no
//! result, while the same run unbroken passes.

use std::process::{Command, Output};

fn run(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_routebench"))
        .args(["--workload", "fig1-pcap", "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", "0"])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn has_result(out: &Output) -> bool {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .any(|l| l.starts_with("{\"correct\""))
}

#[test]
fn healthy_run_prints_a_result() {
    let out = run(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\":true"), "{last}");
    for metric in ["setup_s", "ns_per_pkt", "swap_ms", "ckpt_ms", "peak_rss_mb"] {
        assert!(last.contains(&format!("\"{metric}\"")), "{metric} missing");
    }
}

#[test]
fn wrong_reference_digest_fails_the_run() {
    let out = run(&["--inject-fault", "digest"]);
    assert!(!out.status.success());
    assert!(!has_result(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("differ"));
}

#[test]
fn unbalanced_ledger_fails_the_run() {
    let out = run(&["--inject-fault", "ledger"]);
    assert!(!out.status.success());
    assert!(!has_result(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("ledger does not balance"));
}

//! Cross-process determinism regression (detlint R1's dynamic
//! counterpart).
//!
//! `std::collections::HashMap` seeds its hasher per *process*, so code
//! whose behaviour leaks hash-iteration order produces identical results
//! within one process but diverges across processes. Spawning
//! `mead-repro digest-probe` in 32 fresh OS processes therefore samples
//! 32 independent hash seeds; the scenario digests must be bit-identical
//! in every one.

use std::process::{Command, Stdio};

/// The pinned-fold aggregation helpers must be bit-exact replacements for
/// the expressions they displaced (`Iterator::sum::<f64>`, division by
/// length, and `fold(0.0, f64::max)`). Any drift here silently moves
/// every Table 1 cell and Figure 5 point, so this is asserted with `==`,
/// not a tolerance.
#[test]
fn aggregation_helpers_are_bit_exact_left_folds() {
    // 0.1 is inexact in binary; summing it in different orders gives
    // different bits, which is exactly what makes this a sharp probe.
    let samples: Vec<f64> = (1..=1000).map(|i| (i as f64) * 0.1).collect();

    let sum_ref: f64 = samples.iter().sum();
    assert_eq!(
        experiments::stats::sum_f64(samples.iter().copied()).to_bits(),
        sum_ref.to_bits()
    );

    let mean_ref = sum_ref / samples.len() as f64;
    assert_eq!(
        experiments::stats::mean_f64(&samples).to_bits(),
        mean_ref.to_bits()
    );
    assert_eq!(
        experiments::stats::mean_f64(&[]).to_bits(),
        0.0_f64.to_bits()
    );

    let max_ref = samples.iter().copied().fold(0.0_f64, f64::max);
    assert_eq!(
        experiments::stats::max_f64(samples.iter().copied()).to_bits(),
        max_ref.to_bits()
    );
    // The historical fold starts at 0.0, so all-negative inputs clamp.
    assert_eq!(
        experiments::stats::max_f64([-3.0, -1.5].into_iter()).to_bits(),
        0.0_f64.to_bits()
    );
}

#[test]
fn digests_identical_across_32_fresh_processes() {
    let exe = env!("CARGO_BIN_EXE_mead-repro");

    // Launch all probes first so the test is bounded by the slowest
    // child, not the sum.
    let children: Vec<_> = (0..32)
        .map(|i| {
            let child = Command::new(exe)
                .arg("digest-probe")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn digest-probe #{i}: {e}"));
            (i, child)
        })
        .collect();

    let mut outputs = Vec::new();
    for (i, child) in children {
        let out = child
            .wait_with_output()
            .unwrap_or_else(|e| panic!("wait for digest-probe #{i}: {e}"));
        assert!(
            out.status.success(),
            "digest-probe #{i} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((i, String::from_utf8_lossy(&out.stdout).into_owned()));
    }

    let (_, reference) = &outputs[0];
    assert_eq!(
        reference.lines().count(),
        3,
        "probe printed an unexpected digest count:\n{reference}"
    );
    for (i, out) in &outputs {
        assert_eq!(
            out, reference,
            "digest output diverged in fresh process #{i}"
        );
    }
}

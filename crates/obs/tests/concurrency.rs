//! Concurrency guarantees of the metric primitives: updates from many
//! threads must never be lost, and quantile estimates must stay ordered
//! no matter how the recording was interleaved.

use std::sync::Arc;
use std::thread;

use dsi_obs::Registry;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 10_000;

#[test]
fn counter_sums_exactly_across_threads() {
    let reg = Registry::new();
    let counter = reg.counter("dsi_test_concurrent_total", &[]);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = Arc::clone(&counter);
            thread::spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.get(), THREADS as u64 * OPS_PER_THREAD);
}

#[test]
fn gauge_adds_exactly_across_threads() {
    let reg = Registry::new();
    let gauge = reg.gauge("dsi_test_concurrent_gauge", &[]);
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let g = Arc::clone(&gauge);
            // Half the threads add, half subtract the same amount, plus
            // one extra unit per adding thread: exact expected total.
            let delta = if i % 2 == 0 { 1.5 } else { -0.5 };
            thread::spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    g.add(delta);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let expected = (THREADS / 2) as f64 * OPS_PER_THREAD as f64 * (1.5 - 0.5);
    assert!(
        (gauge.get() - expected).abs() < 1e-6,
        "gauge {} vs expected {expected}",
        gauge.get()
    );
}

#[test]
fn histogram_count_sum_and_quantiles_across_threads() {
    let reg = Registry::new();
    let hist = reg.histogram("dsi_test_concurrent_seconds", &[]);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&hist);
            thread::spawn(move || {
                // Each thread records the same deterministic value set in
                // a different order, so totals are exact and known.
                for i in 0..OPS_PER_THREAD {
                    let v = ((i + t as u64 * 7919) % OPS_PER_THREAD) as f64 + 1.0;
                    h.record(v);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = hist.snapshot();
    let n = THREADS as u64 * OPS_PER_THREAD;
    assert_eq!(s.count, n);
    // Sum of 1..=OPS_PER_THREAD per thread; f64 adds of small integers
    // are exact far below 2^53.
    let per_thread: f64 = (OPS_PER_THREAD * (OPS_PER_THREAD + 1) / 2) as f64;
    assert_eq!(s.sum, per_thread * THREADS as f64);
    assert_eq!(s.max, OPS_PER_THREAD as f64);
    assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    // Quantiles stay within the log-linear error bound of the exact
    // order statistics.
    for (est, exact) in [(s.p50, 5000.0), (s.p95, 9500.0), (s.p99, 9900.0)] {
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.10, "estimate {est} vs {exact}: rel {rel:.3}");
    }
}

#[test]
fn registration_races_resolve_to_one_series() {
    let reg = Registry::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let r = reg.clone();
            thread::spawn(move || {
                for _ in 0..1_000 {
                    r.counter("dsi_test_race_total", &[("k", "v")]).inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        reg.counter_value("dsi_test_race_total", &[("k", "v")]),
        THREADS as u64 * 1_000
    );
    assert_eq!(reg.len(), 1);
}

//! Host-speed yardstick.
//!
//! On a small shared virtual machine the speed of the CPU itself moves by
//! up to half within minutes (neighbours on the same cores, frequency
//! changes), and a pure compute loop slows in step with the workloads.
//! So every end-to-end timing is reported at a nominal host speed: the run
//! times a fixed reference kernel, which is the benchmark's own code and
//! calls nothing in the repository's crates, before and after each stretch
//! of measured work, and scales that work's times by
//! `NOMINAL_MS / measured`. A change to the classification code moves the
//! scaled numbers exactly as it moves the raw ones; a change in host speed
//! mostly cancels.

use crate::measure::median;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's median time on the 2-vCPU virtual machine the
/// bounds were set on. It only fixes the scale: on that host a scaled time
/// reads about the same as a raw one.
pub const NOMINAL_MS: f64 = 1.5;

/// Kernel runs per sample; the sample is their median.
const RUNS: usize = 5;

/// One run of the reference kernel: sort, hash-map inserts and lookups,
/// and a float multiply-add loop, the three kinds of work classification
/// spends its time in.
fn kernel() {
    let mut x = 0x1234_5678u64;
    let mut keys: Vec<u64> = (0..1 << 15)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    keys.sort_unstable();
    let mut map = std::collections::HashMap::new();
    for (i, &k) in keys.iter().enumerate().step_by(4) {
        map.insert(k & 0xffff, i);
    }
    let hits: usize = keys
        .iter()
        .step_by(3)
        .filter_map(|k| map.get(&(k & 0xffff)))
        .sum();
    let row: Vec<f32> = (0..4096).map(|i| i as f32 * 0.5).collect();
    let mut acc = 0f32;
    for r in 0..64 {
        for (i, y) in row.iter().enumerate() {
            acc += y * ((i + r) & 7) as f32;
        }
    }
    black_box((hits, acc));
}

/// Median wall time of the reference kernel, in ms.
pub fn sample_ms() -> f64 {
    let times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            kernel();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Factor that scales work done between two samples to nominal speed.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * NOMINAL_MS / (before_ms + after_ms).max(1e-9)
}

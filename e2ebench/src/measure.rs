//! Measurement helpers: per-pass tallies, percentiles, the output
//! digest and the process counters read from `/proc/self`.

use crate::replica::Verdict;
use mvgnn_core::DecidedBy;
use std::time::Duration;

/// One request's outcome as recorded by a pass.
pub struct Answer {
    /// Index of the request in the input set's canonical order.
    pub request: usize,
    pub latency: Duration,
    /// `None` when the request failed with a typed error.
    pub verdicts: Option<Vec<Verdict>>,
}

/// Tally of one complete pass over a workload's input set.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Process CPU seconds over the pass (all threads).
    pub cpu_s: f64,
    pub requests: u64,
    pub failed: u64,
    pub loops: u64,
    pub labelled: u64,
    pub correct: u64,
    /// Loops decided by each tier: oracle, GNN, profiler.
    pub tiers: [u64; 3],
    /// Order-independent digest of every request's verdicts.
    pub digest: u64,
    /// Pragma/verdict pairs that contradict each other.
    pub inconsistent: u64,
    /// Latency of each request in ms, indexed by request; infinite for a
    /// failed request, which misses every latency limit.
    pub latency_ms: Vec<f32>,
}

impl Pass {
    /// Fold every answer of one pass over `labels.len()` requests;
    /// `labels` holds each request's loop labels in loop order (`None`
    /// for an unlabelled loop).
    pub fn tally(wall_s: f64, answers: &[Answer], labels: &[Vec<Option<usize>>]) -> Self {
        let mut pass = Pass {
            wall_s,
            latency_ms: vec![f32::INFINITY; labels.len()],
            ..Pass::default()
        };
        for a in answers {
            pass.add(a, &labels[a.request]);
        }
        pass
    }

    fn add(&mut self, a: &Answer, labels: &[Option<usize>]) {
        self.requests += 1;
        let Some(vs) = &a.verdicts else {
            self.failed += 1;
            return;
        };
        self.latency_ms[a.request] = (a.latency.as_secs_f64() * 1e3) as f32;
        self.loops += vs.len() as u64;
        if vs.len() != labels.len() {
            self.inconsistent += 1;
        }
        for (v, label) in vs.iter().zip(labels) {
            if let Some(label) = label {
                self.labelled += 1;
                self.correct += u64::from(v.prediction == *label);
            }
            self.inconsistent += u64::from(!pragma_agrees(v));
            let tier = match v.decided_by {
                DecidedBy::Oracle => 0,
                DecidedBy::Gnn => 1,
                DecidedBy::Profiler => 2,
            };
            self.tiers[tier] += 1;
        }
        self.digest = self.digest.wrapping_add(digest_of(a.request, vs));
    }

    /// Scale every time of the pass by `f` (see `speed`).
    pub fn scale(&mut self, f: f64) {
        self.wall_s *= f;
        self.cpu_s *= f;
        for l in &mut self.latency_ms {
            *l *= f as f32;
        }
    }

    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.labelled.max(1) as f64
    }

    pub fn loops_per_s(&self) -> f64 {
        self.loops as f64 / self.wall_s.max(1e-9)
    }
}

/// Each request's latency in ms as its median over `passes`.
pub fn per_request_medians(passes: &[Pass]) -> Vec<f64> {
    let n = passes.first().map_or(0, |p| p.latency_ms.len());
    (0..n)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| f64::from(p.latency_ms[i]))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// A proved verdict carries a pragma that says the same thing; a learned
/// verdict carries none.
fn pragma_agrees(v: &Verdict) -> bool {
    match (&v.pragma, v.decided_by) {
        (None, DecidedBy::Oracle) => false,
        (None, _) => true,
        (Some(_), d) if d != DecidedBy::Oracle => false,
        (Some(p), _) => {
            let parallel = p.starts_with("#pragma omp parallel for") && !p.contains("ordered");
            parallel == (v.prediction == 1)
        }
    }
}

/// FNV-1a over the request index and each loop's (verdict, tier,
/// pragma).
fn digest_of(request: usize, verdicts: &[Verdict]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(request as u64).to_le_bytes());
    for v in verdicts {
        eat(&[v.prediction as u8, 0xfe]);
        eat(v.decided_by.as_str().as_bytes());
        eat(v.pragma.as_deref().unwrap_or("-").as_bytes());
        eat(&[0xff]);
    }
    h
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile (`q` in 0..=100); 0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// User + system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Unit of the /proc tick counters (fixed by the kernel ABI).
const USER_HZ: f64 = 100.0;

/// Reset this process's peak resident set to its current one, so a later
/// [`peak_rss_mib`] covers only what runs after the reset.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("e2ebench: cannot reset the peak RSS: {e}");
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

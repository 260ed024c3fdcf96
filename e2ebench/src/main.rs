//! Fixed-work end-to-end benchmark of the mvgnn classification paths.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up (embedding, a small deterministic training run, the
//! server), then classifies its workload's fixed input set in complete
//! passes until `--seconds` have elapsed; `--seed` only orders the
//! requests. With `--trace 0` it reports the end-to-end metrics of the
//! public entry point; with `--trace 1` it replays the same inputs
//! through the traced replica and reports the per-layer breakdown. The
//! last line of standard output is one JSON object. See `README.md` for
//! the workloads and what each per-layer metric should move.

mod inputs;
mod measure;
mod replica;
mod rng;
mod setup;
mod speed;
mod srcgen;
mod trace;
mod workloads;

use measure::{median, percentile, Pass};
use mvgnn_core::CascadeConfig;
use replica::Tally;
use std::path::PathBuf;
use std::time::Instant;
use trace::Recorder;
use workloads::{Modules, Samples, Source, Workload};

/// Set-up is repeated this often per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// A measured phase always completes at least this many passes.
const MIN_PASSES: usize = 3;
/// Least wall time between two host-speed samples of a measured phase.
const SPEED_SAMPLE_EVERY_S: f64 = 0.25;

const WORKLOADS: [&str; 4] = [
    "modules_cascade",
    "modules_gnn",
    "source_closed",
    "samples_window",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinity; a percentile made of failures
                // prints as the largest finite double.
                let v = if m.value.is_finite() {
                    m.value
                } else {
                    f64::MAX
                };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Request order of a run: the first-time requests `0..first_repeat`
/// shuffled, then the repeats `first_repeat..n` shuffled, both by the
/// run seed. Every pass of the run uses this one order, and a repeat
/// always comes after the request it repeats, so whether a request hits
/// the feature cache never depends on the seed or the pass.
fn order_for(n: usize, first_repeat: usize, seed: u64) -> Vec<usize> {
    let mut rng = rng::Rng::new(seed.wrapping_mul(0x1000_0000_01b3));
    let mut order: Vec<usize> = (0..n).collect();
    let (fresh, repeats) = order.split_at_mut(first_repeat.min(n));
    rng.shuffle(fresh);
    rng.shuffle(repeats);
    order
}

/// Whether another pass fits: at least `min_passes` run, and no pass
/// starts that would, at the mean pass time so far, end after `seconds`.
fn another_pass(t0: Instant, done: usize, min_passes: usize, seconds: f64) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    done < min_passes || elapsed + elapsed / done.max(1) as f64 <= seconds
}

/// Run complete passes for about `seconds` (and at least `min_passes`).
/// The host's speed is sampled before the first pass, after the last,
/// and after any pass that ends at least [`SPEED_SAMPLE_EVERY_S`] after
/// the previous sample; each pass is scaled to nominal speed by the
/// samples around it. Also returns the samples in ms.
fn passes_for(
    seconds: f64,
    min_passes: usize,
    mut run: impl FnMut(usize) -> Result<Pass, String>,
) -> Result<(Vec<Pass>, Vec<f64>), String> {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut samples = vec![speed::sample_ms()];
    let mut sampled_at = Instant::now();
    let mut unscaled = 0;
    while another_pass(t0, passes.len(), min_passes, seconds) {
        passes.push(run(passes.len())?);
        unscaled += 1;
        let last = !another_pass(t0, passes.len(), min_passes, seconds);
        if last || sampled_at.elapsed().as_secs_f64() >= SPEED_SAMPLE_EVERY_S {
            let after = speed::sample_ms();
            let f = speed::factor(samples[samples.len() - 1], after);
            let n = passes.len();
            for p in &mut passes[n - unscaled..] {
                p.scale(f);
            }
            samples.push(after);
            sampled_at = Instant::now();
            unscaled = 0;
        }
    }
    Ok((passes, samples))
}

/// Digest and accuracy must repeat exactly in every pass.
fn check_passes(passes: &[Pass], what: &str, problems: &mut Vec<String>) {
    let Some(first) = passes.first() else { return };
    for (k, p) in passes.iter().enumerate() {
        if p.digest != first.digest || p.correct != first.correct || p.loops != first.loops {
            problems.push(format!(
                "{what} pass {k}: digest {:016x} / {} correct of {} loops differs from pass 0 \
                 ({:016x} / {} of {})",
                p.digest, p.correct, p.loops, first.digest, first.correct, first.loops
            ));
        }
        if p.inconsistent > 0 {
            problems.push(format!(
                "{what} pass {k}: {} verdicts contradict their pragma",
                p.inconsistent
            ));
        }
    }
}

/// Lowest accuracy a working pipeline reaches on each workload's fixed
/// input set; below it the outputs are wrong, not noisy.
fn accuracy_floor(workload: &str) -> f64 {
    match workload {
        "modules_cascade" => 0.85,
        "modules_gnn" => 0.6,
        "source_closed" => 0.8,
        _ => 0.7,
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Every run of one build on one workload must produce the same output
/// digest and accuracy: the first run records them, later runs compare.
fn check_against_earlier_runs(workload: &str, pass: &Pass, problems: &mut Vec<String>) {
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        })
        .unwrap_or(0);
    let path = out_dir().join(format!("{workload}-{build:016x}.digest"));
    let line = format!(
        "{:016x} {} {} {}\n",
        pass.digest, pass.correct, pass.labelled, pass.loops
    );
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != line => problems.push(format!(
            "output differs from an earlier run of this build: {} vs {}",
            line.trim(),
            earlier.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            let written =
                std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &line));
            if let Err(e) = written {
                eprintln!("e2ebench: cannot record the output digest: {e}");
            }
        }
    }
}

/// The sizes are fixed choices (see the README's "Traffic mix"):
/// `modules_gnn` keeps every 4th entry so a pass takes seconds, not
/// tens; `source_closed` repeats 256 of 1024 requests (25%) so the
/// feature cache is exercised without dominating; `samples_window`
/// adds the first 2 NPB apps to PolyBench and BOTS.
fn build_workload<'a>(name: &str, t: &'a setup::Trained) -> Result<Box<dyn Workload + 'a>, String> {
    Ok(match name {
        "modules_cascade" => Box::new(Modules::new(t, CascadeConfig::default(), 1)),
        "modules_gnn" => Box::new(Modules::new(t, CascadeConfig::gnn_only(), 4)),
        "source_closed" => Box::new(Source::new(t, 768, 256)?),
        _ => Box::new(Samples::new(t, 2)),
    })
}

/// Set up `SETUP_REPS` times; returns the last trained model and the
/// median set-up time at nominal host speed.
fn set_up(workload: &str) -> Result<(setup::Trained, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let mut before = speed::sample_ms();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let trained = setup::train_model()?;
        let server = match workload {
            "source_closed" => Some(workloads::source_server(&trained)?),
            "samples_window" => Some(workloads::sample_server(&trained)?),
            _ => None,
        };
        let elapsed = t0.elapsed().as_secs_f64();
        if let Some(s) = server {
            s.shutdown();
        }
        let after = speed::sample_ms();
        times.push(elapsed * speed::factor(before, after));
        before = after;
        last = Some(trained);
    }
    Ok((last.ok_or("no set-up ran")?, median(&times)))
}

fn untraced(args: &Args, w: &dyn Workload, setup_s: f64) -> Result<Report, String> {
    let labels = w.labels();
    let order = order_for(labels.len(), w.first_repeat(), args.seed);
    // Set-up and input construction have their own peaks; only the
    // passes should count, so the peak is reset (VmHWM := VmRSS) here.
    measure::reset_peak_rss();
    let (passes, speeds) = passes_for(args.seconds, MIN_PASSES, |_| {
        let cpu0 = measure::cpu_seconds();
        let out = w.public_pass(&order)?;
        let mut pass = Pass::tally(out.wall_s, &out.answers, labels);
        pass.cpu_s = measure::cpu_seconds() - cpu0;
        Ok(pass)
    })?;
    let cpu_s: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let peak_rss_mib = measure::peak_rss_mib();
    let mut problems = Vec::new();
    check_passes(&passes, "public", &mut problems);
    let first = &passes[0];
    let accuracy = first.accuracy();
    let floor = accuracy_floor(args.workload);
    if accuracy < floor {
        problems.push(format!("accuracy {accuracy} below {floor}"));
    }
    check_against_earlier_runs(args.workload, first, &mut problems);
    for p in &problems {
        eprintln!("e2ebench: INCORRECT: {p}");
    }
    let attempted: u64 = passes.iter().map(|p| p.requests).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let loops: u64 = passes.iter().map(|p| p.loops).sum();
    // Host stalls (steal time, preemption) hit a request in one
    // pass and not in the next, so each request's latency is its median
    // over the passes and the percentiles are taken over those medians.
    let latencies = measure::per_request_medians(&passes);
    let loops_per_s = if w.one_at_a_time() {
        // One request at a time: the stall-filtered pass time is the sum
        // of the per-request medians.
        first.loops as f64 / (latencies.iter().sum::<f64>() / 1e3).max(1e-9)
    } else {
        median(&passes.iter().map(Pass::loops_per_s).collect::<Vec<_>>())
    };
    let rates: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.loops_per_s()))
        .collect();
    eprintln!("e2ebench: loops/s per pass at nominal speed: {}", rates.join(" "));
    let (lo, hi) = speeds
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    eprintln!(
        "e2ebench: reference kernel {:.3} ms median ({lo:.3}..{hi:.3}) over {} samples, nominal {} ms",
        median(&speeds),
        speeds.len(),
        speed::NOMINAL_MS
    );
    eprintln!(
        "e2ebench: {} passes, {} requests and {} loops per pass, digest {:016x}, accuracy {accuracy}",
        passes.len(),
        first.requests,
        first.loops,
        first.digest
    );
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "loops_per_s",
                value: loops_per_s,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: percentile(&latencies, 50.0),
                unit: "ms",
            },
            Metric {
                name: "latency_p99_ms",
                value: percentile(&latencies, 99.0),
                unit: "ms",
            },
            Metric {
                name: "accuracy",
                value: accuracy,
                unit: "ratio",
            },
            Metric {
                name: "ok_rate",
                value: (attempted - failed) as f64 / attempted.max(1) as f64,
                unit: "ratio",
            },
            Metric {
                name: "cpu_ms_per_loop",
                value: cpu_s * 1e3 / loops.max(1) as f64,
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mib",
                value: peak_rss_mib,
                unit: "MiB",
            },
        ],
    })
}

fn traced(args: &Args, w: &dyn Workload) -> Result<Report, String> {
    let labels = w.labels();
    let n = labels.len();
    let order = order_for(n, w.first_repeat(), args.seed);
    let mut problems = Vec::new();

    // Reference: one pass through the public entry point.
    let reference = w.reference_pass(&order)?;
    let ref_pass = Pass::tally(reference.wall_s, &reference.answers, labels);
    check_passes(std::slice::from_ref(&ref_pass), "public", &mut problems);
    check_against_earlier_runs(args.workload, &ref_pass, &mut problems);

    // The replica, untraced and traced in alternating passes so both
    // see the same host conditions.
    let off = Recorder::new(false);
    let rec = Recorder::new(true);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let t0 = Instant::now();
    while another_pass(t0, plain.len() + spanned.len(), 4, args.seconds) {
        let out = w.replica_pass(&order, &off);
        plain.push(Pass::tally(out.wall_s, &out.answers, labels));
        let out = w.replica_pass(&order, &rec);
        spanned.push(Pass::tally(out.wall_s, &out.answers, labels));
        tally.add(&out.tally);
    }
    for (what, passes) in [("replica", &plain), ("traced replica", &spanned)] {
        check_passes(passes, what, &mut problems);
        if passes[0].digest != ref_pass.digest {
            problems.push(format!(
                "replica parity: {what} digest {:016x} differs from the public entry's {:016x}",
                passes[0].digest, ref_pass.digest
            ));
        }
    }
    for p in &problems {
        eprintln!("e2ebench: INCORRECT: {p}");
    }
    let trace_path = out_dir().join(format!("spans-{}.tsv", args.workload));
    if let Err(e) = rec.write_tsv(&trace_path) {
        eprintln!("e2ebench: cannot write spans: {e}");
    }

    let rate = |passes: &[Pass]| median(&passes.iter().map(Pass::loops_per_s).collect::<Vec<_>>());
    let (plain_lps, traced_lps) = (rate(&plain), rate(&spanned));
    let traced_loops: u64 = spanned.iter().map(|p| p.loops).sum();
    let totals = rec.totals();
    let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    let per_loop_us = |name: &str| self_us(name) / traced_loops.max(1) as f64;
    let calls_per_pass = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.calls as f64 / spanned.len() as f64)
    };
    let stats = &reference.serve.stats;
    let [tier0, tier1, tier2] = ref_pass.tiers.map(|t| t as f64);

    // Source latency with contending clients minus the same request's
    // service time alone: the untraced replica runs each request on one
    // thread with nothing else running.
    let solo = measure::per_request_medians(&plain);
    let waits: Vec<f64> = (0..n)
        .map(|i| f64::from(ref_pass.latency_ms[i]) - solo[i])
        .collect();
    let source_wait_ms = if args.workload == "source_closed" {
        median(&waits)
    } else {
        0.0
    };

    let us = "us/loop";
    let metrics = vec![
        Metric {
            name: "lang.compile_us",
            value: per_loop_us("lang.compile"),
            unit: us,
        },
        Metric {
            name: "profiler.profile_us",
            value: per_loop_us("profiler.profile"),
            unit: us,
        },
        Metric {
            name: "profiler.profile_calls",
            value: calls_per_pass("profiler.profile"),
            unit: "count",
        },
        Metric {
            name: "profiler.cu_us",
            value: per_loop_us("profiler.cu"),
            unit: us,
        },
        Metric {
            name: "profiler.cu_calls",
            value: calls_per_pass("profiler.cu"),
            unit: "count",
        },
        Metric {
            name: "peg.build_us",
            value: per_loop_us("peg.build"),
            unit: us,
        },
        Metric {
            name: "peg.build_calls",
            value: calls_per_pass("peg.build"),
            unit: "count",
        },
        Metric {
            name: "peg.subpeg_us",
            value: per_loop_us("peg.subpeg"),
            unit: us,
        },
        Metric {
            name: "peg.subpeg_nodes",
            value: tally.subpeg_nodes as f64 / tally.subpegs.max(1) as f64,
            unit: "nodes",
        },
        Metric {
            name: "profiler.features_us",
            value: per_loop_us("profiler.features"),
            unit: us,
        },
        Metric {
            name: "embed.sample_us",
            value: per_loop_us("embed.sample"),
            unit: us,
        },
        Metric {
            name: "embed.cache_hit_rate",
            value: reference.serve.cache.hit_rate(),
            unit: "ratio",
        },
        Metric {
            name: "analyze.oracle_us",
            value: per_loop_us("analyze.oracle"),
            unit: us,
        },
        Metric {
            name: "analyze.plan_us",
            value: per_loop_us("analyze.plan"),
            unit: us,
        },
        Metric {
            name: "analyze.decided_rate",
            value: tier0 / ref_pass.loops.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "profiler.tier2_us",
            value: per_loop_us("profiler.tier2"),
            unit: us,
        },
        Metric {
            name: "core.tier0_loops",
            value: tier0,
            unit: "count",
        },
        Metric {
            name: "core.tier1_loops",
            value: tier1,
            unit: "count",
        },
        Metric {
            name: "core.tier2_loops",
            value: tier2,
            unit: "count",
        },
        Metric {
            name: "core.glue_us",
            value: per_loop_us("core.request"),
            unit: us,
        },
        Metric {
            name: "gnn.forward_us_per_loop",
            value: self_us("gnn.forward") / tally.gnn_rows.max(1) as f64,
            unit: "us/row",
        },
        Metric {
            name: "gnn.batch_rows_mean",
            value: tally.gnn_rows as f64 / tally.gnn_batches.max(1) as f64,
            unit: "rows",
        },
        Metric {
            name: "serve.queue_wait_p50_ms",
            value: percentile(&reference.serve.queue_wait_ms, 50.0),
            unit: "ms",
        },
        Metric {
            name: "serve.batch_fill_mean",
            value: stats.mean_fill(),
            unit: "rows",
        },
        Metric {
            name: "serve.admitted",
            value: stats.admitted as f64,
            unit: "count",
        },
        Metric {
            name: "serve.shed",
            value: stats.shed as f64,
            unit: "count",
        },
        Metric {
            name: "serve.tier0_at_submit",
            value: stats.oracle_decided as f64,
            unit: "count",
        },
        Metric {
            name: "serve.source_wait_ms",
            value: source_wait_ms,
            unit: "ms",
        },
        Metric {
            name: "trace.overhead_pct",
            value: (plain_lps - traced_lps) / plain_lps.max(1e-9) * 100.0,
            unit: "%",
        },
    ];
    let all = std::iter::once(&ref_pass).chain(&plain).chain(&spanned);
    let (attempted, failed) = all.fold((0, 0), |(a, f), p| (a + p.requests, f + p.failed));
    eprintln!(
        "e2ebench: traced {} passes ({traced_lps:.0} loops/s) vs untraced {} ({plain_lps:.0} \
         loops/s); spans in {}",
        spanned.len(),
        plain.len(),
        trace_path.display()
    );
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn run() -> Result<Report, String> {
    let args = parse_args()?;
    let (trained, setup_s) = set_up(args.workload)?;
    let w = build_workload(args.workload, &trained)?;
    if args.trace {
        traced(&args, w.as_ref())
    } else {
        untraced(&args, w.as_ref(), setup_s)
    }
}

fn main() {
    match run() {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

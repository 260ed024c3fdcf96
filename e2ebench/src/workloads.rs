//! The four workloads. Each drives the public entry point for the
//! measured passes and the traced replica for the per-layer breakdown.

use crate::inputs::{self, ModuleSet, SampleInput, SourceSet};
use crate::measure::Answer;
use crate::replica::{self, Layers, Tally, Verdict, INFER_CHUNK};
use crate::setup::Trained;
use crate::trace::Recorder;
use mvgnn_core::{Cascade, CascadeConfig, DecidedBy};
use mvgnn_embed::{CacheStats, FeatureCache, GraphSample};
use mvgnn_serve::{Deadline, Frontend, ServeConfig, ServeStats, Server, Ticket};
use mvgnn_tensor::Workspace;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Clients of the traced run's reference pass of `source_closed`. The
/// frontend holds its cache mutex for the whole cascade, so the second
/// client measures that serialisation (`serve.source_wait_ms`). The
/// measured passes use one client: with two, how the host schedules the
/// two threads on two vCPUs moved p99 by about half between runs.
const CONTENDED_CLIENTS: usize = 2;
/// Requests `samples_window` keeps outstanding: two full micro-batches,
/// so one can fill while the other runs.
const WINDOW: usize = 64;
/// One in this many `samples_window` requests with a proved plan goes
/// through `submit_planned` and is answered at admission. A fixed choice:
/// three quarters of the requests stay on the batched path.
const PLANNED_ONE_IN: usize = 4;
/// Passes over the sample set per `samples_window` pass. A sizing
/// choice: about 2000 requests, so a pass is long enough to time.
const SAMPLE_REPEATS: usize = 4;
/// Feature-cache capacity of the source frontend; larger than the
/// distinct samples of the set, so hits do not depend on request order.
const CACHE_CAPACITY: usize = 1 << 16;

/// What the public entry point reported besides the answers.
#[derive(Debug, Clone, Default)]
pub struct ServeCounters {
    pub stats: ServeStats,
    pub cache: CacheStats,
    /// Queue wait of every batched sample request.
    pub queue_wait_ms: Vec<f64>,
}

pub struct RunOutput {
    pub answers: Vec<Answer>,
    pub wall_s: f64,
    pub serve: ServeCounters,
    pub tally: Tally,
}

/// One workload: a fixed input set, its labels, and two ways to classify
/// it.
pub trait Workload {
    /// Loop labels of every request, in canonical request order.
    fn labels(&self) -> &[Vec<Option<usize>>];
    /// One complete pass through the public entry point, in `order`.
    fn public_pass(&self, order: &[usize]) -> Result<RunOutput, String>;
    /// The traced run's reference pass through the public entry point.
    fn reference_pass(&self, order: &[usize]) -> Result<RunOutput, String> {
        self.public_pass(order)
    }
    /// One complete pass through the traced replica, in `order`.
    fn replica_pass(&self, order: &[usize], rec: &Recorder) -> RunOutput;
    /// Whether the public pass runs one request at a time, so that the
    /// pass time is the sum of the request latencies.
    fn one_at_a_time(&self) -> bool;
    /// Requests from this index on repeat earlier ones (canonical order).
    fn first_repeat(&self) -> usize {
        self.labels().len()
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn verdicts(reports: &[mvgnn_core::LoopReport]) -> Vec<Verdict> {
    reports.iter().map(Verdict::from_report).collect()
}

// ---------------------------------------------------------------- modules

/// `modules_cascade` / `modules_gnn`: kernel entries of generated
/// application modules through `Cascade::classify_module` on one thread.
pub struct Modules<'a> {
    trained: &'a Trained,
    set: ModuleSet,
    cascade: CascadeConfig,
    labels: Vec<Vec<Option<usize>>>,
}

impl<'a> Modules<'a> {
    pub fn new(trained: &'a Trained, cascade: CascadeConfig, keep_one_in: usize) -> Self {
        let set = inputs::module_set(keep_one_in);
        let labels = set
            .requests
            .iter()
            .map(|r| inputs::entry_labels(&set.modules[r.module], r.entry))
            .collect();
        Self {
            trained,
            set,
            cascade,
            labels,
        }
    }

    fn layers(&self) -> Layers<'_> {
        Layers {
            model: &self.trained.model,
            inst2vec: &self.trained.inst2vec,
            sample_cfg: &self.trained.sample_cfg,
            cascade: self.cascade,
        }
    }
}

impl Workload for Modules<'_> {
    fn labels(&self) -> &[Vec<Option<usize>>] {
        &self.labels
    }

    fn one_at_a_time(&self) -> bool {
        true
    }

    fn public_pass(&self, order: &[usize]) -> Result<RunOutput, String> {
        let t = self.trained;
        let cascade = Cascade::new(self.cascade);
        let (answers, wall) = timed(|| {
            order
                .iter()
                .map(|&i| {
                    let r = self.set.requests[i];
                    let module = &self.set.modules[r.module].module;
                    let (reports, latency) = timed(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            cascade.classify_module(
                                &t.model,
                                module,
                                r.entry,
                                &t.inst2vec,
                                &t.sample_cfg,
                                None,
                                None,
                            )
                        }))
                    });
                    Answer {
                        request: i,
                        latency,
                        verdicts: reports.ok().map(|r| verdicts(&r)),
                    }
                })
                .collect()
        });
        Ok(RunOutput {
            answers,
            wall_s: wall.as_secs_f64(),
            serve: ServeCounters::default(),
            tally: Tally::default(),
        })
    }

    fn replica_pass(&self, order: &[usize], rec: &Recorder) -> RunOutput {
        let layers = self.layers();
        let mut tally = Tally::default();
        let (answers, wall) = timed(|| {
            order
                .iter()
                .map(|&i| {
                    let r = self.set.requests[i];
                    let module = &self.set.modules[r.module].module;
                    let (vs, latency) = timed(|| {
                        rec.span("core.request", i as u32, || {
                            replica::classify(
                                &layers, rec, i as u32, module, r.entry, None, &mut tally,
                            )
                        })
                    });
                    Answer {
                        request: i,
                        latency,
                        verdicts: Some(vs),
                    }
                })
                .collect()
        });
        RunOutput {
            answers,
            wall_s: wall.as_secs_f64(),
            serve: ServeCounters::default(),
            tally,
        }
    }
}

// ----------------------------------------------------------------- source

/// `source_closed`: generated `.mv` programs through
/// `Server::classify_source` from a closed-loop client.
pub struct Source<'a> {
    trained: &'a Trained,
    set: SourceSet,
    labels: Vec<Vec<Option<usize>>>,
}

impl<'a> Source<'a> {
    pub fn new(trained: &'a Trained, distinct: usize, repeats: usize) -> Result<Self, String> {
        let set = inputs::source_set(distinct, repeats)?;
        let labels = set
            .requests
            .iter()
            .map(|&p| set.programs[p].labels.iter().map(|&l| Some(l)).collect())
            .collect();
        Ok(Self {
            trained,
            set,
            labels,
        })
    }
}

/// A source-frontend server with the full cascade.
pub fn source_server(t: &Trained) -> Result<Server, String> {
    let frontend = Frontend {
        inst2vec: t.inst2vec.clone(),
        sample_cfg: t.sample_cfg.clone(),
        cache_capacity: CACHE_CAPACITY,
        max_steps: None,
        max_call_depth: None,
        cascade: CascadeConfig::default(),
    };
    Server::start_with_frontend(t.model.clone(), frontend, ServeConfig::default())
        .map_err(|e| format!("server start failed: {e}"))
}

impl Workload for Source<'_> {
    fn labels(&self) -> &[Vec<Option<usize>>] {
        &self.labels
    }

    fn one_at_a_time(&self) -> bool {
        true
    }

    fn first_repeat(&self) -> usize {
        self.set.programs.len()
    }

    fn public_pass(&self, order: &[usize]) -> Result<RunOutput, String> {
        self.pass(order, 1)
    }

    fn reference_pass(&self, order: &[usize]) -> Result<RunOutput, String> {
        self.pass(order, CONTENDED_CLIENTS)
    }

    fn replica_pass(&self, order: &[usize], rec: &Recorder) -> RunOutput {
        let layers = Layers {
            model: &self.trained.model,
            inst2vec: &self.trained.inst2vec,
            sample_cfg: &self.trained.sample_cfg,
            cascade: CascadeConfig::default(),
        };
        let mut cache = FeatureCache::new(CACHE_CAPACITY);
        let mut tally = Tally::default();
        let (answers, wall) = timed(|| {
            order
                .iter()
                .map(|&i| {
                    let text = &self.set.programs[self.set.requests[i]].text;
                    let (vs, latency) = timed(|| {
                        rec.span("core.request", i as u32, || {
                            let module =
                                rec.span("lang.compile", i as u32, || mvgnn_lang::compile(text));
                            let module = module.ok()?;
                            let entry = module.func_by_name("main")?;
                            Some(replica::classify(
                                &layers,
                                rec,
                                i as u32,
                                &module,
                                entry,
                                Some(&mut cache),
                                &mut tally,
                            ))
                        })
                    });
                    Answer {
                        request: i,
                        latency,
                        verdicts: vs,
                    }
                })
                .collect()
        });
        RunOutput {
            answers,
            wall_s: wall.as_secs_f64(),
            serve: ServeCounters::default(),
            tally,
        }
    }
}

impl Source<'_> {
    /// One pass from `clients` closed-loop clients.
    fn pass(&self, order: &[usize], clients: usize) -> Result<RunOutput, String> {
        // A fresh server per pass: every pass starts from an empty
        // feature cache, so every pass does the same work.
        let server = source_server(self.trained)?;
        let cursor = AtomicUsize::new(0);
        let answers = Mutex::new(Vec::with_capacity(order.len()));
        let (_, wall) = timed(|| {
            std::thread::scope(|s| {
                for _ in 0..clients {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = order.get(k) else { break };
                            let text = &self.set.programs[self.set.requests[i]].text;
                            let (res, latency) =
                                timed(|| server.classify_source(text, Deadline::none(), None));
                            let verdicts = res.ok().map(|mc| verdicts(&mc.reports));
                            mine.push(Answer {
                                request: i,
                                latency,
                                verdicts,
                            });
                        }
                        answers
                            .lock()
                            .expect("no client panics while holding the lock")
                            .extend(mine);
                    });
                }
            })
        });
        let serve = ServeCounters {
            stats: server.stats(),
            cache: server.feature_cache_stats(),
            queue_wait_ms: Vec::new(),
        };
        server.shutdown();
        let answers = answers.into_inner().expect("clients joined");
        Ok(RunOutput {
            answers,
            wall_s: wall.as_secs_f64(),
            serve,
            tally: Tally::default(),
        })
    }
}

// ---------------------------------------------------------------- samples

/// `samples_window`: prebuilt samples through the micro-batching server
/// from one client with a fixed window of requests outstanding.
pub struct Samples<'a> {
    trained: &'a Trained,
    samples: Vec<SampleInput>,
    /// Sample index per request, canonical order.
    requests: Vec<usize>,
    /// Whether each request goes through `submit_planned`.
    planned: Vec<bool>,
    labels: Vec<Vec<Option<usize>>>,
}

impl<'a> Samples<'a> {
    pub fn new(trained: &'a Trained, npb_apps: usize) -> Self {
        let samples = inputs::sample_set(trained, npb_apps);
        let requests: Vec<usize> = (0..SAMPLE_REPEATS).flat_map(|_| 0..samples.len()).collect();
        let planned = requests
            .iter()
            .enumerate()
            .map(|(k, &s)| samples[s].plan.proved() && k % PLANNED_ONE_IN == 0)
            .collect();
        let labels = requests
            .iter()
            .map(|&s| vec![Some(samples[s].label)])
            .collect();
        Self {
            trained,
            samples,
            requests,
            planned,
            labels,
        }
    }
}

/// A sample-path server with the default micro-batch of 32.
pub fn sample_server(t: &Trained) -> Result<Server, String> {
    Server::start(t.model.clone(), ServeConfig::default())
        .map_err(|e| format!("server start failed: {e}"))
}

/// The learned verdict of one checked row (the serving ladder).
fn learned(c: &mvgnn_core::model::CheckedPrediction) -> Verdict {
    let prediction = c.fused.or(c.node).or(c.structural).unwrap_or(0);
    Verdict {
        prediction,
        decided_by: DecidedBy::Gnn,
        pragma: None,
    }
}

impl Workload for Samples<'_> {
    fn labels(&self) -> &[Vec<Option<usize>>] {
        &self.labels
    }

    fn one_at_a_time(&self) -> bool {
        false
    }

    fn public_pass(&self, order: &[usize]) -> Result<RunOutput, String> {
        let server = sample_server(self.trained)?;
        let mut answers = Vec::with_capacity(order.len());
        let mut queue_wait_ms = Vec::with_capacity(order.len());
        let mut window: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(WINDOW);
        let mut collect = |(i, t0, ticket): (usize, Instant, Ticket), answers: &mut Vec<Answer>| {
            let res = ticket.wait();
            let latency = t0.elapsed();
            let verdicts = res.ok().map(|c| {
                if c.decided_by != DecidedBy::Oracle {
                    queue_wait_ms.push(c.queued.as_secs_f64() * 1e3);
                }
                vec![Verdict {
                    prediction: c.prediction,
                    decided_by: c.decided_by,
                    pragma: c.pragma,
                }]
            });
            answers.push(Answer {
                request: i,
                latency,
                verdicts,
            });
        };
        let failed = |i: usize, t0: Instant| Answer {
            request: i,
            latency: t0.elapsed(),
            verdicts: None,
        };
        let (_, wall) = timed(|| {
            for &i in order {
                let input = &self.samples[self.requests[i]];
                let sample = input.sample.clone();
                if self.planned[i] {
                    // Proved plans are answered at admission: no window slot.
                    let t0 = Instant::now();
                    match server.submit_planned(sample, Some(&input.plan), Deadline::none()) {
                        Ok(ticket) => collect((i, t0, ticket), &mut answers),
                        Err(_) => answers.push(failed(i, t0)),
                    }
                    continue;
                }
                if window.len() == WINDOW {
                    let oldest = window.pop_front().expect("window is full");
                    collect(oldest, &mut answers);
                }
                let t0 = Instant::now();
                match server.submit(sample, Deadline::none()) {
                    Ok(ticket) => window.push_back((i, t0, ticket)),
                    Err(_) => answers.push(failed(i, t0)),
                }
            }
            while let Some(oldest) = window.pop_front() {
                collect(oldest, &mut answers);
            }
        });
        let serve = ServeCounters {
            stats: server.stats(),
            cache: CacheStats::default(),
            queue_wait_ms,
        };
        server.shutdown();
        Ok(RunOutput {
            answers,
            wall_s: wall.as_secs_f64(),
            serve,
            tally: Tally::default(),
        })
    }

    fn replica_pass(&self, order: &[usize], rec: &Recorder) -> RunOutput {
        let model = &self.trained.model;
        let mut ws = Workspace::new();
        let mut tally = Tally::default();
        let mut answers = Vec::with_capacity(order.len());
        let (_, wall) = timed(|| {
            let mut batch: Vec<usize> = Vec::with_capacity(INFER_CHUNK);
            let mut flush =
                |batch: &mut Vec<usize>, answers: &mut Vec<Answer>, tally: &mut Tally| {
                    if batch.is_empty() {
                        return;
                    }
                    let req = batch[0] as u32;
                    let (rows, latency) = timed(|| {
                        rec.span("core.request", req, || {
                            let chunk: Vec<&GraphSample> = batch
                                .iter()
                                .map(|&i| &*self.samples[self.requests[i]].sample)
                                .collect();
                            rec.span("gnn.forward", req, || {
                                Cascade::gnn_batch(model, &mut ws, &chunk)
                            })
                        })
                    });
                    tally.gnn_batches += 1;
                    tally.gnn_rows += rows.len() as u64;
                    for (&i, row) in batch.iter().zip(&rows) {
                        answers.push(Answer {
                            request: i,
                            latency,
                            verdicts: Some(vec![learned(row)]),
                        });
                    }
                    batch.clear();
                };
            for &i in order {
                if self.planned[i] {
                    let (v, latency) = timed(|| {
                        rec.span("core.request", i as u32, || {
                            inputs::planned_verdict(&self.samples[self.requests[i]].plan)
                        })
                    });
                    answers.push(Answer {
                        request: i,
                        latency,
                        verdicts: v.map(|v| vec![v]),
                    });
                    continue;
                }
                batch.push(i);
                if batch.len() == INFER_CHUNK {
                    flush(&mut batch, &mut answers, &mut tally);
                }
            }
            flush(&mut batch, &mut answers, &mut tally);
        });
        RunOutput {
            answers,
            wall_s: wall.as_secs_f64(),
            serve: ServeCounters::default(),
            tally,
        }
    }
}

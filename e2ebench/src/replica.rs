//! Traced replica of `Cascade::classify_module_cached`.
//!
//! The replica calls each layer's public function in the order the
//! cascade does, inside a span per call, so the traced run can split a
//! request's time by layer. Its verdicts must equal the cascade's on the
//! same inputs (replica parity) before any per-layer number is reported.

use crate::trace::Recorder;
use mvgnn_analyze::{analyze_loop, plan_from_report, OracleReport};
use mvgnn_core::{oracle_decision, Cascade, CascadeConfig, DecidedBy, LoopReport, MvGnn};
use mvgnn_embed::{
    build_sample_with_static, sample_fingerprint, sample_fingerprint_with_static, FeatureCache,
    GraphSample, Inst2Vec, SampleConfig,
};
use mvgnn_ir::module::{FuncId, Module};
use mvgnn_peg::{build_peg, loop_subpeg};
use mvgnn_profiler::{build_cus, classify_loop, loop_features, profile_module_resilient};
use mvgnn_tensor::Workspace;
use std::sync::Arc;

/// Rows per packed forward pass, as in the cascade's module path.
pub const INFER_CHUNK: usize = 32;

/// The observable outcome for one loop: what the digest and the parity
/// check compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub prediction: usize,
    pub decided_by: DecidedBy,
    pub pragma: Option<String>,
}

impl Verdict {
    pub fn from_report(r: &LoopReport) -> Self {
        Self {
            prediction: r.prediction,
            decided_by: r.decided_by,
            pragma: r.plan.as_ref().map(|p| p.pragma.clone()),
        }
    }

    fn learned(prediction: usize, decided_by: DecidedBy) -> Self {
        Self {
            prediction,
            decided_by,
            pragma: None,
        }
    }
}

/// What the model path needs besides the module.
pub struct Layers<'a> {
    pub model: &'a MvGnn,
    pub inst2vec: &'a Inst2Vec,
    pub sample_cfg: &'a SampleConfig,
    pub cascade: CascadeConfig,
}

/// Work counts the spans do not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub subpegs: u64,
    pub subpeg_nodes: u64,
    pub gnn_batches: u64,
    pub gnn_rows: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.subpegs += other.subpegs;
        self.subpeg_nodes += other.subpeg_nodes;
        self.gnn_batches += other.gnn_batches;
        self.gnn_rows += other.gnn_rows;
    }
}

struct Pending {
    slot: usize,
    sample: Arc<GraphSample>,
    empty_walks: bool,
}

/// Classify every loop of `entry`, one span per layer call.
pub fn classify(
    ctx: &Layers,
    rec: &Recorder,
    req: u32,
    module: &Module,
    entry: FuncId,
    mut cache: Option<&mut FeatureCache>,
    tally: &mut Tally,
) -> Vec<Verdict> {
    let cfg = ctx.cascade;
    let partial = rec.span("profiler.profile", req, || {
        profile_module_resilient(module, entry, &[], None, None)
    });
    let truncated = partial.error.is_some();

    let loops = &module.funcs[entry.index()].loops;
    let mut out: Vec<Option<Verdict>> = vec![None; loops.len()];
    let mut undecided: Vec<(usize, Option<Arc<OracleReport>>)> = Vec::new();
    for (slot, info) in loops.iter().enumerate() {
        let l = info.id;
        if !cfg.use_oracle {
            undecided.push((slot, None));
            continue;
        }
        let report = Arc::new(rec.span("analyze.oracle", req, || analyze_loop(module, entry, l)));
        if let Some(prediction) = oracle_decision(&report) {
            let plan = rec.span("analyze.plan", req, || {
                plan_from_report(module, entry, l, &report)
            });
            out[slot] = Some(Verdict {
                prediction,
                decided_by: DecidedBy::Oracle,
                pragma: Some(plan.pragma),
            });
            continue;
        }
        undecided.push((slot, Some(report)));
    }
    if undecided.is_empty() {
        return out.into_iter().flatten().collect();
    }

    let cus = rec.span("profiler.cu", req, || build_cus(module));
    let peg = rec.span("peg.build", req, || build_peg(module, &cus, &partial.deps));
    let attach_static = cfg.static_features && ctx.sample_cfg.static_dim == OracleReport::FEAT_DIM;
    let conservative = Verdict::learned(0, DecidedBy::Gnn);

    let mut pending: Vec<Pending> = Vec::new();
    for (slot, oracle) in undecided {
        let l = loops[slot].id;
        let runtime = partial.loops.get(&(entry, l)).copied();
        if runtime.is_none() && truncated {
            out[slot] = Some(conservative.clone());
            continue;
        }
        let runtime = runtime.unwrap_or_default();
        let feats = rec.span("profiler.features", req, || {
            loop_features(module, entry, l, &partial.deps, &runtime)
        });
        let sub = rec.span("peg.subpeg", req, || {
            loop_subpeg(&peg, module, &cus, entry, l)
        });
        tally.subpegs += 1;
        tally.subpeg_nodes += sub.graph.node_count() as u64;
        if sub.graph.node_count() == 0 {
            out[slot] = Some(conservative.clone());
            continue;
        }
        let static_vec = attach_static.then(|| {
            oracle
                .clone()
                .unwrap_or_else(|| Arc::new(analyze_loop(module, entry, l)))
                .feature_vec()
        });
        let build = || {
            rec.span("embed.sample", req, || {
                build_sample_with_static(
                    &sub,
                    ctx.inst2vec,
                    &feats,
                    static_vec.as_ref().map(|sv| &sv[..]),
                    ctx.sample_cfg,
                    None,
                )
            })
        };
        let sample = match cache.as_deref_mut() {
            Some(c) => {
                let dim = ctx.inst2vec.dim();
                let key = match &static_vec {
                    Some(sv) => {
                        sample_fingerprint_with_static(&sub, &feats, ctx.sample_cfg, dim, Some(sv))
                    }
                    None => sample_fingerprint(&sub, &feats, ctx.sample_cfg, dim),
                };
                c.get_or_insert_with(key, build)
            }
            None => Arc::new(build()),
        };
        if sample.node_dim != ctx.model.cfg.node_dim || sample.aw_vocab != ctx.model.cfg.aw_vocab {
            out[slot] = Some(conservative.clone());
            continue;
        }
        let empty_walks = sample.struct_dists.iter().all(|&x| x == 0.0);
        pending.push(Pending {
            slot,
            sample,
            empty_walks,
        });
    }

    let needs_confidence = cfg.use_profiler && cfg.confidence_threshold > 0.0;
    let mut ws = Workspace::new();
    for chunk in pending.chunks(INFER_CHUNK) {
        let samples: Vec<&GraphSample> = chunk.iter().map(|p| &*p.sample).collect();
        tally.gnn_batches += 1;
        tally.gnn_rows += samples.len() as u64;
        let (rows, logits) = rec.span("gnn.forward", req, || {
            if needs_confidence {
                let (rows, logits) = ctx.model.predict_checked_logits_batch_ws(&mut ws, &samples);
                let rows = rows
                    .into_iter()
                    .zip(&samples)
                    .map(|(c, s)| {
                        let faulty =
                            c.fused.is_none() || c.node.is_none() || c.structural.is_none();
                        if faulty {
                            ctx.model.predict_checked(s)
                        } else {
                            c
                        }
                    })
                    .collect::<Vec<_>>();
                (rows, Some(logits))
            } else {
                (Cascade::gnn_batch(ctx.model, &mut ws, &samples), None)
            }
        });
        for (row, (p, checked)) in chunk.iter().zip(rows).enumerate() {
            let degraded = truncated || p.empty_walks;
            let ladder = if degraded {
                [checked.node, checked.structural, None]
            } else {
                [checked.fused, checked.node, checked.structural]
            };
            let verdict = match ladder.iter().position(Option::is_some) {
                Some(rank) => {
                    let mut prediction = ladder[rank].unwrap_or_default();
                    let mut decided_by = DecidedBy::Gnn;
                    if needs_confidence && !degraded && rank == 0 {
                        let conf = logits
                            .as_ref()
                            .map_or(0.0, |lg| cfg.calibration.confidence(&lg[row]));
                        if conf < cfg.confidence_threshold {
                            let l = loops[p.slot].id;
                            let class = rec.span("profiler.tier2", req, || {
                                classify_loop(module, entry, l, &partial.deps)
                            });
                            prediction = usize::from(class.is_parallelizable());
                            decided_by = DecidedBy::Profiler;
                        }
                    }
                    Verdict::learned(prediction, decided_by)
                }
                None => conservative.clone(),
            };
            out[p.slot] = Some(verdict);
        }
    }
    out.into_iter().flatten().collect()
}

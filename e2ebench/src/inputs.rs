//! The fixed input sets. Each workload's set depends only on constants
//! here, never on `--seed` or on a measured capacity, so every run of a
//! workload classifies exactly the same loops; `--seed` only orders the
//! requests.

use crate::replica::Verdict;
use crate::rng::Rng;
use crate::setup::{Trained, TRAIN_SEED};
use crate::srcgen;
use mvgnn_analyze::Verdict as OracleVerdict;
use mvgnn_analyze::{analyze_loop, plan_from_report, LoopPlan};
use mvgnn_core::DecidedBy;
use mvgnn_dataset::{generate_suite, GeneratedApp};
use mvgnn_embed::{build_sample, GraphSample};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::transform::{optimize, OptLevel};
use mvgnn_peg::{build_peg, loop_subpeg};
use mvgnn_profiler::{build_cus, loop_features, profile_module_resilient};
use std::collections::HashMap;
use std::sync::Arc;

/// Generator seed of the classified modules (not [`TRAIN_SEED`]).
const MODULE_SEED: u64 = 101;

/// One optimised application module with its labelled loops.
pub struct ModuleInput {
    pub module: Module,
    pub truth: HashMap<(FuncId, LoopId), usize>,
}

/// One request of a module workload: a kernel entry of a module.
#[derive(Debug, Clone, Copy)]
pub struct EntryRequest {
    pub module: usize,
    pub entry: FuncId,
}

pub struct ModuleSet {
    pub modules: Vec<ModuleInput>,
    /// In canonical order; the run shuffles a copy.
    pub requests: Vec<EntryRequest>,
}

/// Every kernel entry of the 14 Table II apps for [`MODULE_SEED`] at all
/// six optimisation levels. With `keep_one_in = k > 1` only every k-th
/// entry (in canonical order) is kept.
pub fn module_set(keep_one_in: usize) -> ModuleSet {
    const { assert!(MODULE_SEED != TRAIN_SEED) };
    let mut modules = Vec::new();
    let mut requests = Vec::new();
    for app in generate_suite(None, MODULE_SEED) {
        let (kernels, truth) = kernels_and_labels(&app);
        for level in OptLevel::ALL {
            let module = optimize(&app.module, level);
            for &entry in &kernels {
                requests.push(EntryRequest {
                    module: modules.len(),
                    entry,
                });
            }
            modules.push(ModuleInput {
                module,
                truth: truth.clone(),
            });
        }
    }
    let requests = requests.into_iter().step_by(keep_one_in.max(1)).collect();
    ModuleSet { modules, requests }
}

/// The kernel functions of `app` (its `main` only calls them and has no loops of
/// its own) and the label of every loop.
fn kernels_and_labels(app: &GeneratedApp) -> (Vec<FuncId>, HashMap<(FuncId, LoopId), usize>) {
    let mut kernels: Vec<FuncId> = app.loops.iter().map(|&(f, _, _)| f).collect();
    kernels.sort_unstable_by_key(|f| f.index());
    kernels.dedup();
    let labels = app
        .loops
        .iter()
        .map(|&(f, l, pattern)| ((f, l), usize::from(pattern.is_parallelizable())))
        .collect();
    (kernels, labels)
}

/// The label of every loop of `entry`, in loop order.
pub fn entry_labels(input: &ModuleInput, entry: FuncId) -> Vec<Option<usize>> {
    input.module.funcs[entry.index()]
        .loops
        .iter()
        .map(|info| input.truth.get(&(entry, info.id)).copied())
        .collect()
}

/// Generator seed of the `source_closed` programs.
const SOURCE_GEN_SEED: u64 = 0x5eed_50c3;

/// One source request: the program text and its loop labels.
pub struct SourceSet {
    pub programs: Vec<srcgen::Program>,
    /// Program index per request, in canonical order: every program
    /// once, then the repeats.
    pub requests: Vec<usize>,
}

/// `distinct` generated programs plus `repeats` requests that repeat
/// earlier programs (a fixed share of the traffic hits the frontend's
/// feature cache). Every program must compile, with one label per loop.
pub fn source_set(distinct: usize, repeats: usize) -> Result<SourceSet, String> {
    let mut rng = Rng::new(SOURCE_GEN_SEED);
    let programs: Vec<srcgen::Program> = (0..distinct).map(|_| srcgen::program(&mut rng)).collect();
    for (i, p) in programs.iter().enumerate() {
        let module = mvgnn_lang::compile(&p.text)
            .map_err(|e| format!("generated program {i} does not compile: {e:?}"))?;
        let main = module
            .func_by_name("main")
            .ok_or(format!("program {i} has no main"))?;
        let loops = module.funcs[main.index()].loops.len();
        if loops != p.labels.len() {
            return Err(format!(
                "program {i}: {loops} loops but {} labels",
                p.labels.len()
            ));
        }
        if let Some(e) = profile_module_resilient(&module, main, &[], None, None).error {
            return Err(format!("generated program {i} faults when run: {e}"));
        }
    }
    let mut requests: Vec<usize> = (0..distinct).collect();
    requests.extend((0..repeats).map(|_| rng.below(distinct)));
    Ok(SourceSet { programs, requests })
}

/// Generator seed of the `samples_window` samples.
const SAMPLE_SEED: u64 = 202;

/// One prebuilt sample with its oracle plan, label and the verdict the
/// planned path must answer with.
pub struct SampleInput {
    pub sample: Arc<GraphSample>,
    pub plan: LoopPlan,
    pub label: usize,
}

/// Every loop of the PolyBench and BOTS apps and of the first
/// `npb_apps` NPB apps of [`SAMPLE_SEED`] at `-O0`, featurised the way
/// the cascade featurises a loop.
pub fn sample_set(t: &Trained, npb_apps: usize) -> Vec<SampleInput> {
    let mut out = Vec::new();
    let apps = generate_suite(None, SAMPLE_SEED);
    let (npb, rest): (Vec<_>, Vec<_>) = apps
        .into_iter()
        .partition(|a| a.spec.suite == mvgnn_dataset::Suite::Npb);
    for app in npb.into_iter().take(npb_apps).chain(rest) {
        let module = optimize(&app.module, OptLevel::O0);
        let (kernels, labels) = kernels_and_labels(&app);
        let cus = build_cus(&module);
        for entry in kernels {
            let partial = profile_module_resilient(&module, entry, &[], None, None);
            let peg = build_peg(&module, &cus, &partial.deps);
            for info in &module.funcs[entry.index()].loops {
                let Some(&label) = labels.get(&(entry, info.id)) else {
                    continue;
                };
                let runtime = partial
                    .loops
                    .get(&(entry, info.id))
                    .copied()
                    .unwrap_or_default();
                let feats = loop_features(&module, entry, info.id, &partial.deps, &runtime);
                let sub = loop_subpeg(&peg, &module, &cus, entry, info.id);
                if sub.graph.node_count() == 0 {
                    continue;
                }
                let sample = build_sample(&sub, &t.inst2vec, &feats, &t.sample_cfg, None);
                let report = analyze_loop(&module, entry, info.id);
                let plan = plan_from_report(&module, entry, info.id, &report);
                out.push(SampleInput {
                    sample: Arc::new(sample),
                    plan,
                    label,
                });
            }
        }
    }
    out
}

/// The answer the planned path gives at admission: the proved verdict
/// with the rendered pragma, or `None` for an unproved plan.
pub fn planned_verdict(plan: &LoopPlan) -> Option<Verdict> {
    let prediction = match plan.verdict {
        OracleVerdict::ProvablyParallel => 1,
        OracleVerdict::ProvablyDependent => 0,
        OracleVerdict::Unknown => return None,
    };
    Some(Verdict {
        prediction,
        decided_by: DecidedBy::Oracle,
        pragma: Some(plan.pragma.clone()),
    })
}

//! Entry-scoped vs whole-module graph construction.
//!
//! The cascade builds the CU partition and the PEG of the classified
//! entry function alone, since a loop's sub-PEG never leaves that
//! function. These tests pin that the scope cannot change a sample:
//! over the generated Table II apps (a `main` that calls one function
//! per kernel) at `-O0` and `-O3`, every loop of every kernel entry gets
//! a `to_bits`-identical sample — node features, adjacency, walk
//! distributions and token ids — from entry-scoped and whole-module
//! graphs, the model's logits on the two agree bit for bit, and the
//! GNN-only cascade answers exactly what the whole-module samples say.

use mvgnn::core::cascade::Cascade;
use mvgnn::core::infer::PredictionSource;
use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::dataset::{generate_suite, GeneratedApp};
use mvgnn::embed::{build_sample, GraphSample, Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn::ir::module::{FuncId, Module};
use mvgnn::ir::transform::{optimize, OptLevel};
use mvgnn::peg::{build_peg, loop_subpeg};
use mvgnn::profiler::{build_cus, build_cus_in, loop_features, profile_module_resilient};

/// The functions of `app` that own a labelled loop, ascending.
fn kernels(app: &GeneratedApp) -> Vec<FuncId> {
    let mut ks: Vec<FuncId> = app.loops.iter().map(|&(f, _, _)| f).collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_sample(a: &GraphSample, b: &GraphSample, what: &str) {
    assert_eq!((a.n, a.node_dim, a.aw_vocab), (b.n, b.node_dim, b.aw_vocab), "{what}");
    assert_eq!((a.func, a.l, a.label), (b.func, b.l, b.label), "{what}");
    assert_eq!(bits(&a.node_feats), bits(&b.node_feats), "{what}: node features");
    let (ap, ai, av) = a.adj.csr_parts();
    let (bp, bi, bv) = b.adj.csr_parts();
    assert_eq!((ap, ai), (bp, bi), "{what}: adjacency pattern");
    assert_eq!(bits(av), bits(bv), "{what}: adjacency values");
    assert_eq!(bits(&a.struct_dists), bits(&b.struct_dists), "{what}: walk distributions");
    assert_eq!(a.token_ids, b.token_ids, "{what}: token ids");
}

/// Per kernel entry: (entry, whole-module samples, entry-scoped samples),
/// one sample per loop with a non-empty sub-PEG.
type EntrySamples = (FuncId, Vec<GraphSample>, Vec<GraphSample>);

fn entry_samples(
    module: &Module,
    entries: &[FuncId],
    i2v: &Inst2Vec,
    cfg: &SampleConfig,
) -> Vec<EntrySamples> {
    let whole_cus = build_cus(module);
    let mut out = Vec::new();
    for &entry in entries {
        let partial = profile_module_resilient(module, entry, &[], None, None);
        let whole_peg = build_peg(module, &whole_cus, &partial.deps);
        let cus = build_cus_in(module, std::iter::once(entry));
        let peg = build_peg(module, &cus, &partial.deps);
        let (mut whole, mut scoped) = (Vec::new(), Vec::new());
        for info in &module.funcs[entry.index()].loops {
            let runtime = partial.loops.get(&(entry, info.id)).copied().unwrap_or_default();
            let feats = loop_features(module, entry, info.id, &partial.deps, &runtime);
            let a = loop_subpeg(&whole_peg, module, &whole_cus, entry, info.id);
            let b = loop_subpeg(&peg, module, &cus, entry, info.id);
            assert_eq!(a.graph.node_count(), b.graph.node_count());
            if a.graph.node_count() == 0 {
                continue;
            }
            whole.push(build_sample(&a, i2v, &feats, cfg, None));
            scoped.push(build_sample(&b, i2v, &feats, cfg, None));
        }
        out.push((entry, whole, scoped));
    }
    out
}

/// Compare every kernel entry of the Table II apps at one level.
fn check_level(level: OptLevel) {
    let apps = generate_suite(None, 7);
    let i2v = Inst2Vec::train(
        &[&apps[0].module],
        &Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 7 },
    );
    let cfg = SampleConfig::default();
    let mut model: Option<MvGnn> = None;
    let mut checked_loops = 0usize;
    let mut other_functions = 0usize;
    for app in &apps {
        let entries = kernels(app);
        let module = optimize(&app.module, level);
        assert!(module.funcs.len() > 2, "{}: a `main` plus several kernels", app.spec.name);
        for (entry, whole, scoped) in entry_samples(&module, &entries, &i2v, &cfg) {
            let what = format!("{} {level:?} {entry:?}", app.spec.name);
            other_functions += usize::from(entry.index() > 0);
            for (a, b) in whole.iter().zip(&scoped) {
                assert_same_sample(a, b, &what);
            }
            checked_loops += whole.len();
            let Some(s0) = whole.first() else { continue };
            let model = model
                .get_or_insert_with(|| MvGnn::new(MvGnnConfig::small(s0.node_dim, s0.aw_vocab)));
            let whole_refs: Vec<&GraphSample> = whole.iter().collect();
            let scoped_refs: Vec<&GraphSample> = scoped.iter().collect();
            let lw = model.logits_batch(&whole_refs);
            let ls = model.logits_batch(&scoped_refs);
            let flat = |rows: &[Vec<f32>]| bits(&rows.concat());
            assert_eq!(flat(&lw), flat(&ls), "{what}: logits");

            // The GNN-only cascade classifies from the scoped graphs;
            // its healthy verdicts must be the whole-module samples'.
            let reports =
                Cascade::gnn_only().classify_module(model, &module, entry, &i2v, &cfg, None, None);
            let reference = model.predict_checked_batch(&whole_refs);
            let mut rows = reference.iter();
            for r in &reports {
                if r.diagnostic.as_deref() == Some("empty sub-PEG") {
                    continue;
                }
                let want = rows.next().expect("one reference row per non-empty loop");
                let pick = match r.source {
                    PredictionSource::Multi => want.fused,
                    PredictionSource::NodeOnly => want.node,
                    PredictionSource::StructOnly => want.structural,
                    _ => Some(r.prediction),
                };
                assert_eq!(Some(r.prediction), pick, "{what}: {r:?}");
            }
            assert!(rows.next().is_none(), "{what}: every sample was classified");
        }
    }
    assert!(checked_loops > 100, "only {checked_loops} loops compared");
    assert!(other_functions > 0, "kernels must live outside function 0");
}

// One test per level, so the harness runs them in parallel.
#[test]
fn entry_scoped_samples_match_whole_module_samples_at_o0() {
    check_level(OptLevel::O0);
}

#[test]
fn entry_scoped_samples_match_whole_module_samples_at_o3() {
    check_level(OptLevel::O3);
}

//! Benchmark set-up: the statement embedding, a small deterministic
//! training run and, for the served workloads, the server.
//!
//! Without a trained model the full cascade would send every loop that
//! survives tier 0 to the profiler tier, so set-up trains one: a tiny
//! corpus (PolyBench at two optimisation levels) and a fixed seed, so
//! every run classifies with the same weights.

use mvgnn_core::{train, MvGnn, MvGnnConfig, TrainConfig};
use mvgnn_dataset::{build_corpus, CorpusConfig, Suite};
use mvgnn_embed::{Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn_ir::transform::OptLevel;
use std::sync::Arc;

/// Generator seed of the training corpus. The classified modules come
/// from other seeds (see `inputs`).
pub const TRAIN_SEED: u64 = 1;

pub struct Trained {
    pub inst2vec: Inst2Vec,
    pub sample_cfg: SampleConfig,
    pub model: Arc<MvGnn>,
}

fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        seeds: vec![TRAIN_SEED],
        opt_levels: vec![OptLevel::O0, OptLevel::O3],
        per_class: Some(48),
        test_fraction: 0.25,
        suite: Some(Suite::PolyBench),
        inst2vec: Inst2VecConfig {
            dim: 16,
            epochs: 1,
            negatives: 4,
            lr: 0.05,
            seed: 0x1257,
        },
        sample: SampleConfig::default(),
        seed: 0xe2e,
        label_noise: 0.0,
        static_features: false,
    }
}

/// Fit the embedding, build the tiny corpus and train the small model.
pub fn train_model() -> Result<Trained, String> {
    let cfg = corpus_config();
    let ds = build_corpus(&cfg);
    let probe = &ds.train.first().ok_or("empty training corpus")?.sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    let tc = TrainConfig {
        epochs: 6,
        seed: 0xe2e,
        parallel: false,
        ..TrainConfig::default()
    };
    train(&mut model, &ds.train, &tc).map_err(|e| format!("training failed: {e}"))?;
    Ok(Trained {
        inst2vec: ds.inst2vec,
        sample_cfg: cfg.sample,
        model: Arc::new(model),
    })
}

//! Checkpointing: persist and restore agents, models and run results.
//!
//! The paper's workflow pre-trains the selection agent once (on a
//! network-pruning task) and ships it to clients; this module provides the
//! serialisation layer for that hand-off, plus model and result
//! checkpoints for long experiment campaigns.

use serde::{de::DeserializeOwned, Serialize};
use spatl_agent::ActorCritic;
use spatl_fl::RunResult;
use spatl_models::SplitModel;
use std::io;
use std::path::Path;

/// Errors raised by checkpoint operations.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(io::Error),
    /// (De)serialisation error.
    Codec(serde_json::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Codec(e)
    }
}

fn save<T: Serialize>(value: &T, path: &Path) -> Result<(), CheckpointError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    serde_json::to_writer(io::BufWriter::new(file), value)?;
    Ok(())
}

fn load<T: DeserializeOwned>(path: &Path) -> Result<T, CheckpointError> {
    let file = std::fs::File::open(path)?;
    Ok(serde_json::from_reader(io::BufReader::new(file))?)
}

/// Persist a pre-trained selection agent.
pub fn save_agent(agent: &ActorCritic, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    save(agent, path.as_ref())
}

/// Restore a selection agent saved with [`save_agent`].
pub fn load_agent(path: impl AsRef<Path>) -> Result<ActorCritic, CheckpointError> {
    load(path.as_ref())
}

/// Persist a model (encoder + predictor + masks).
///
/// Cached activations are dropped before writing.
pub fn save_model(model: &SplitModel, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let mut clean = model.clone();
    clean.clear_caches();
    save(&clean, path.as_ref())
}

/// Restore a model saved with [`save_model`].
pub fn load_model(path: impl AsRef<Path>) -> Result<SplitModel, CheckpointError> {
    load(path.as_ref())
}

/// Persist a federated run's results.
pub fn save_result(result: &RunResult, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    save(result, path.as_ref())
}

/// Restore results saved with [`save_result`].
pub fn load_result(path: impl AsRef<Path>) -> Result<RunResult, CheckpointError> {
    load(path.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_agent::AgentConfig;
    use spatl_models::{ModelConfig, ModelKind};
    use spatl_tensor::TensorRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spatl-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn agent_round_trips_bitwise() {
        let agent = ActorCritic::new(AgentConfig::default(), 7);
        let path = tmp("agent.json");
        save_agent(&agent, &path).unwrap();
        let loaded = load_agent(&path).unwrap();
        for (a, b) in agent.params().iter().zip(loaded.params()) {
            assert_eq!(a.data(), b.data());
        }
        // The restored agent produces identical actions.
        let model = ModelConfig::cifar(ModelKind::ResNet20).build();
        let g = spatl_graph::extract(&model);
        assert_eq!(agent.evaluate(&g).mu, loaded.evaluate(&g).mu);
    }

    #[test]
    fn model_round_trips_with_masks() {
        let mut model = ModelConfig::cifar(ModelKind::ResNet20).with_seed(3).build();
        let ch = model.prune_points[0].out_channels;
        let mut mask = vec![1.0; ch];
        mask[0] = 0.0;
        model.set_mask(0, mask);
        // Exercise forward so caches exist (they must not be serialised).
        let mut rng = TensorRng::seed_from(1);
        let x = rng.normal_tensor([1, 3, 16, 16], 0.0, 1.0);
        model.forward(&x, true);

        let path = tmp("model.json");
        save_model(&model, &path).unwrap();
        let mut loaded = load_model(&path).unwrap();
        assert_eq!(loaded.encoder.to_flat(), model.encoder.to_flat());
        assert_eq!(loaded.keep_ratios(), model.keep_ratios());
        // The restored model computes the same function.
        let y1 = model.forward(&x, false);
        let y2 = loaded.forward(&x, false);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_agent(tmp("does-not-exist.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn corrupt_file_is_codec_error() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, b"{not json").unwrap();
        let err = load_agent(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Codec(_)));
    }
}

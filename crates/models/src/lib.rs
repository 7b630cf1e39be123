//! Model zoo for the SPATL reproduction.
//!
//! Provides the architectures evaluated in the paper — CIFAR-style
//! ResNet-20/32/56, ResNet-18, VGG-11 and the LEAF 2-layer CNN — each built
//! as a [`SplitModel`]: a shared **encoder** (what federated learning
//! aggregates) plus a private **predictor** head (what each heterogeneous
//! client keeps local, §IV-A of the paper).
//!
//! A width multiplier scales channel counts so the same topologies run at
//! laptop scale; the layer structure the salient-parameter-selection agent
//! reasons about (and the FLOPs bookkeeping) is unchanged.
//!
//! [`Trainer::step`] is the one training step: joint, head-only, or
//! head-only over a frozen encoder ([`Part`]).

mod cnn;
mod config;
mod flops;
mod resnet;
mod split;
mod train;
mod vgg;

pub use config::{ModelConfig, ModelKind};
pub use flops::{profile, LayerProfile};
pub use split::{LayerRef, PrunePoint, SplitModel};
pub use train::{Part, Trainer, MOMENTUM};

pub(crate) fn scaled(base: usize, width_mult: f32) -> usize {
    ((base as f32 * width_mult).round() as usize).max(1)
}

//! The round benchmark for the SPATL reproduction: four workloads, six
//! end-to-end metrics, and a phase trace taken from outside the crates.
//!
//! The harness links the repository's crates as a library user would and
//! drives them only through public functions. `README.md` next to this
//! crate lists that surface, the metric glossary and how the layer
//! metrics are expected to move the end-to-end ones.

pub mod layers;
pub mod manifest;
pub mod net;
pub mod report;
pub mod sim;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

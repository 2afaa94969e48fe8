//! The benchmark's library half: everything but the command line, so the
//! integration test under `tests/` can read result files with the same
//! JSON parser and metric tables the binary writes them with.

// The benchmark is the one package whose job is to read the host clock;
// like `crates/bench` it opts out of the root clippy.toml ban locally.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;

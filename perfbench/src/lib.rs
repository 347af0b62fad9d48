//! The repository's sweep benchmark.
//!
//! One closed-loop caller runs full sweeps back to back through the
//! engine's public API and checks every sweep's rows against a reference
//! before anything is reported. Four workloads stress different layers
//! (see [`workload::Workload`]). A separate traced run ([`replay`])
//! replays one sweep of the workload layer by layer through each crate's
//! public functions, wrapping every call in benchmark-owned spans; those
//! spans are the per-layer numbers. Nothing inside the crates is changed
//! or instrumented for the benchmark.
//!
//! `run.py` next to this package builds the binary, adds the machine
//! metadata, and prints the result; the binary prints one JSON record.

pub mod measure;
pub mod replay;
pub mod stats;
pub mod workload;

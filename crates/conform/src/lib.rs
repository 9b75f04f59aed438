//! # ddrace-conform — differential + metamorphic fuzzing of the detector stack
//!
//! The simulator, the detectors, the shadow memory, and the scheduler all
//! claim invariants about each other ("demand-driven finds a subset of
//! continuous", "FastTrack and Djit⁺ flag the same variables", "thread
//! numbering is arbitrary"). This crate turns those claims into executable
//! oracles and hammers them with generated programs:
//!
//! - [`spec`] — the [`FuzzSpec`] intermediate representation and its
//!   total lowering to a runnable [`Program`](ddrace_program::Program);
//! - [`gen`] — seeded spec generation, biased toward lock, fork-join,
//!   barrier, and deliberately racy structures;
//! - [`refdet`] — [`RefHb`], a from-spec reference happens-before
//!   detector over a plain `HashMap`, plus the planted [`Fault`] hook
//!   that proves the oracles can catch real bugs;
//! - [`oracles`] — the battery: differential (record/replay round trip;
//!   FastTrack vs Djit⁺ vs reference; demand ⊆ continuous with every miss
//!   attributed) and metamorphic (thread permutation, address
//!   translation, compute padding, relaxed upgrades);
//! - [`shrink`] — greedy spec minimization of failures into ≤-a-handful
//!   of-ops reproducers;
//! - [`campaign`] — the `ddrace fuzz` campaign on the harness worker
//!   pool, with JSONL checkpoints, `--resume`, and a byte-deterministic
//!   aggregate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod gen;
pub mod oracles;
pub mod refdet;
pub mod shrink;
pub mod spec;

pub use campaign::{
    parse_reproducer, reproducer_json, run_fuzz, FuzzConfig, FuzzOutcome, FuzzReport,
};
pub use gen::{generate, Archetype};
pub use oracles::{check_spec, check_spec_with, SpecVerdict, Violation};
pub use refdet::{Fault, RefHb};
pub use shrink::{shrink_spec, SHRINK_BUDGET};
pub use spec::{FuzzOp, FuzzRound, FuzzSpec};

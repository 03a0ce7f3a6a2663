//! `nvp-flow` — static CFG/dataflow intermittency-safety analysis for
//! NV16 program images.
//!
//! Intermittently-powered nonvolatile processors checkpoint volatile
//! state and replay code after power loss. Replay is only transparent
//! if every *backup region* (the code between two backup boundaries) is
//! idempotent with respect to nonvolatile data memory. This crate
//! answers that question statically, before a program ever runs on the
//! simulator:
//!
//! - [`cfg`](mod@cfg) builds a control-flow graph from the decoded image using
//!   the same leader analysis the simulator's block engine uses, plus
//!   dominators and natural-loop detection;
//! - [`absint`] runs an interval abstract interpretation over register
//!   values so memory accesses get constant or bounded addresses;
//! - [`analysis`] combines them into the four diagnostic rules
//!   (`war-hazard`, `dead-store`, `unreachable-block`,
//!   `no-progress-loop`) and the program's may-read and may-write sets;
//! - [`waiver`] parses `nvp-flow: allow(...)` markers out of assembly
//!   comments so residual findings can be acknowledged per site;
//! - [`trace`] replays a program on the real [`nvp_sim::Machine`] while
//!   collecting its dynamic reads and writes, the ground truth the
//!   differential soundness tests compare static sets against.
//!
//! The over-approximation contract: for every terminating execution,
//! the dynamic read set is contained in [`Analysis::read_set`] and the
//! dynamic write set in [`Analysis::write_set`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod analysis;
pub mod cfg;
pub mod trace;
pub mod waiver;

pub use absint::{AbsInt, AccessKind, Interval, MemAccess};
pub use analysis::{analyze, set_contains, Analysis, AnalysisConfig, Diagnostic, Rule, Span};
pub use cfg::{Cfg, CfgError, EdgeKind};
pub use trace::{record, DynTrace};
pub use waiver::Waivers;

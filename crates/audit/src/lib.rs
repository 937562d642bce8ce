//! `aqp-audit`: continuous error-bar coverage auditing and diagnostic
//! scorekeeping.
//!
//! The paper's thesis is that an AQP system must *know when it's
//! wrong*; this crate closes the loop in production by checking that
//! claim against ground truth on live traffic. A deterministic,
//! seedable sampler picks a fraction of completed approximate queries;
//! the session replays each at full data; and every group-aggregate
//! result is scored three ways:
//!
//! * **CI coverage** — did the claimed confidence interval contain the
//!   exact answer? The long-run hit rate should track the claimed
//!   confidence level (≈95% for the default intervals).
//! * **Error ratio** — `|estimate − truth| / half_width`, the realized
//!   error in units of the claimed bound (≤ 1 iff covered).
//! * **Diagnostic confusion cell** — the Kleiner diagnostic's
//!   accept/reject verdict against what the replay proved, yielding
//!   live TP/FP/TN/FN rates (the paper's Fig. 4, continuously).
//!
//! Scores aggregate into sliding windows per aggregate function ×
//! distribution family with threshold alerting ("coverage below 90%
//! over the last 200 audited results"), feed `aqp.audit.*` metrics, and
//! append to a rotating JSONL audit log ([`aqp_obs::JsonlSink`]).
//!
//! This crate is std-only and deliberately does **not** depend on the
//! planner or executor: the session owns the replay and hands the
//! auditor `(served result, truth)` pairs, keeping the dependency
//! arrow core → audit.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod auditor;
pub mod config;
pub mod sampler;
pub mod score;
pub mod window;

pub use auditor::{Alert, AuditReport, Auditor, KeySummary, QueryAudit};
pub use config::AuditConfig;
pub use sampler::AuditSampler;
pub use score::{score, AuditKey, AuditScore, AuditedAggregate};
pub use window::{ConfusionCounts, SlidingWindow};

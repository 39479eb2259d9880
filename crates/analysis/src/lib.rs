//! # analysis — the causal diagnosis engine
//!
//! The paper's whole pitch is that a *picture* of the log lets an
//! instructor diagnose a parallel program in moments. This crate is
//! the next step: it reads the same SLOG2 trace and produces the
//! diagnosis itself, with evidence a test can assert on.
//!
//! * [`graph`] — the happens-before graph: per-timeline program order
//!   plus cross-timeline edges from message arrows, with vector-clock
//!   timestamps (`happens_before` / `concurrent` queries).
//! * [`critical`] — the weighted critical path from run start to last
//!   completion (its length equals the makespan by construction), and
//!   the attribution of every blocked interval to the specific send
//!   that released it.
//! * [`verdict`] — automated bottleneck verdicts: `SerializedPhase`
//!   (the paper's instance A), `LateProducer` (instance B's 11 s),
//!   `LoadImbalance`, `CriticalRankDominance` — each with a time
//!   window, the implicated timelines, and an estimate of the seconds
//!   recoverable.
//! * [`activity`] / [`intervals`] — the quantitative helpers behind
//!   the detectors (moved here from `pilot-vis`, now total over NaN
//!   endpoints from salvaged torn logs).
//! * [`index`] — the per-trace [`TraceIndex`] every analysis above
//!   reads: one walk of the frame tree, buckets per timeline sorted
//!   once, so a diagnosis costs one walk plus O(n log n) instead of a
//!   walk per query and quadratic scans. Its results are
//!   byte-identical to the per-call scans it replaced (same orders,
//!   same tie-breaks, same float-summation order).
//! * [`fixtures`] — deterministic paper-scale traces of instances A
//!   and B, shared by the golden tests and `repro diagnose`.
//!
//! [`TraceAnalyzer`] bundles it all behind one handle and builds the
//! index once, on first use; the free functions (`critical_path`,
//! `diagnose`, `busy_intervals`, ...) are wrappers that build a fresh
//! analyzer per call, so code asking several questions of one trace
//! should hold an analyzer:
//!
//! ```
//! use analysis::{TraceAnalyzer, VerdictKind};
//! let file = analysis::fixtures::instance_b();
//! let az = TraceAnalyzer::new(&file);
//! let diagnosis = az.diagnose("instance-b");
//! assert!(diagnosis.has(VerdictKind::LateProducer));
//! assert!((az.critical_path().length() - diagnosis.makespan).abs() < 1e-9);
//! ```

pub mod activity;
pub mod critical;
pub mod fixtures;
pub mod graph;
pub mod index;
pub mod intervals;
pub mod verdict;

pub use activity::{
    busy_intervals, idle_until_first_arrival, parallel_overlap, timeline_activity,
    timeline_state_seconds, TimelineActivity,
};
pub use critical::{
    attribute_blocks, critical_path, BlockAttribution, CriticalPath, PathHop, PathSegment,
    ReleasingSend,
};
pub use graph::{HbGraph, HbNode, HbNodeKind};
pub use index::TraceIndex;
pub use intervals::{merge_intervals, subtract_intervals, total_seconds};
pub use verdict::{diagnose, worker_timelines, Diagnosis, Verdict, VerdictKind};

use std::sync::OnceLock;

use slog2::Slog2File;

/// One-stop analysis handle over a loaded trace.
///
/// The [`TraceIndex`] is built on first use and shared by every query
/// made through this handle; it lives exactly as long as the handle.
pub struct TraceAnalyzer<'a> {
    file: &'a Slog2File,
    index: OnceLock<TraceIndex>,
}

impl<'a> TraceAnalyzer<'a> {
    /// Wrap a loaded file.
    pub fn new(file: &'a Slog2File) -> TraceAnalyzer<'a> {
        TraceAnalyzer {
            file,
            index: OnceLock::new(),
        }
    }

    /// The underlying file.
    pub fn file(&self) -> &'a Slog2File {
        self.file
    }

    /// The per-trace index (built on first call).
    pub fn index(&self) -> &TraceIndex {
        self.index.get_or_init(|| TraceIndex::build(self.file))
    }

    /// Build the happens-before graph.
    pub fn happens_before_graph(&self) -> HbGraph {
        HbGraph::build(self.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slog2::TimelineId;

    #[test]
    fn analyzer_wires_the_layers_together() {
        let file = fixtures::instance_b();
        let az = TraceAnalyzer::new(&file);
        let g = az.happens_before_graph();
        assert!(g.nodes().len() > file.timelines.len());
        let cp = az.critical_path();
        assert!((cp.length() - cp.makespan()).abs() < 1e-9);
        let blocks = az.blocked_intervals();
        assert!(blocks.iter().any(|b| b.released_by.is_some()));
        assert!(az.diagnose("x").has(VerdictKind::LateProducer));
        assert!(!az.busy_intervals(TimelineId(0)).is_empty());
    }
}

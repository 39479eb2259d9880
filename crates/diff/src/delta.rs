//! Per-timeline and trace-level deltas.
//!
//! For every aligned timeline pair: per-category state seconds (keyed
//! by category *name*, since the two files may number their legends
//! differently), busy/blocked seconds and sent/received message
//! counts from each side's `analysis` index. Absent sides contribute
//! zero, so one-sided rows (rank-count mismatch) still report.

use std::collections::BTreeMap;

use analysis::TraceAnalyzer;
use jumpshot::TimelineHistogram;
use slog2::{Slog2File, TimelineId};

use crate::align::Alignment;

/// One category's seconds on a timeline, before vs after.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryDelta {
    /// Category display name.
    pub category: String,
    /// Seconds before.
    pub before_s: f64,
    /// Seconds after.
    pub after_s: f64,
}

impl CategoryDelta {
    /// `after - before`.
    pub fn delta_s(&self) -> f64 {
        self.after_s - self.before_s
    }
}

/// One aligned timeline's measurements, `(before, after)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineDelta {
    /// Display name (from the alignment).
    pub name: String,
    /// Timeline in the before trace.
    pub before: Option<TimelineId>,
    /// Timeline in the after trace.
    pub after: Option<TimelineId>,
    /// Alignment similarity score.
    pub similarity: f64,
    /// `(before, after)` truncation flags (salvaged torn tails).
    pub truncated: (bool, bool),
    /// Per-category state seconds, sorted by category name.
    pub states: Vec<CategoryDelta>,
    /// Busy (computing, unblocked) seconds.
    pub busy_s: (f64, f64),
    /// Blocked (`PI_Read`/`PI_Select`) seconds.
    pub blocked_s: (f64, f64),
    /// Messages sent from this timeline.
    pub sent: (u64, u64),
    /// Messages received by this timeline.
    pub received: (u64, u64),
}

/// The trace-level comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDelta {
    /// Makespans (from the diagnoses' critical paths).
    pub makespan: (f64, f64),
    /// Total drawable counts.
    pub drawables: (usize, usize),
    /// Total message-arrow counts.
    pub messages: (u64, u64),
    /// One row per aligned pair.
    pub timelines: Vec<TimelineDelta>,
}

/// Per-category state seconds of one timeline, keyed by name, from
/// the file's whole-range duration stats.
fn state_seconds(
    file: &Slog2File,
    stats: &BTreeMap<TimelineId, TimelineHistogram>,
    tl: TimelineId,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(hist) = stats.get(&tl) {
        for (cat, secs) in &hist.coverage {
            let name = file
                .category(*cat)
                .map(|c| c.name.clone())
                .unwrap_or_else(|| format!("category-{}", cat.as_u32()));
            *out.entry(name).or_insert(0.0) += secs;
        }
    }
    out
}

/// Measure every aligned pair. `makespans` come from the two
/// diagnoses so the trace delta and the verdict delta agree.
pub fn trace_delta(
    before: &Slog2File,
    after: &Slog2File,
    alignment: &Alignment,
    makespans: (f64, f64),
) -> TraceDelta {
    trace_delta_indexed(
        &TraceAnalyzer::new(before),
        &TraceAnalyzer::new(after),
        alignment,
        makespans,
    )
}

/// [`trace_delta`] over the two sides' analyzers.
pub(crate) fn trace_delta_indexed(
    before: &TraceAnalyzer,
    after: &TraceAnalyzer,
    alignment: &Alignment,
    makespans: (f64, f64),
) -> TraceDelta {
    let stats = |az: &TraceAnalyzer| jumpshot::duration_stats(az.file(), az.file().range);
    let (stats_b, stats_a) = (stats(before), stats(after));

    let timelines = alignment
        .pairs
        .iter()
        .map(|p| {
            let states_b = p
                .before
                .map(|tl| state_seconds(before.file(), &stats_b, tl))
                .unwrap_or_default();
            let states_a = p
                .after
                .map(|tl| state_seconds(after.file(), &stats_a, tl))
                .unwrap_or_default();
            let mut names: Vec<&String> = states_b.keys().chain(states_a.keys()).collect();
            names.sort();
            names.dedup();
            let states = names
                .into_iter()
                .map(|n| CategoryDelta {
                    category: n.clone(),
                    before_s: states_b.get(n).copied().unwrap_or(0.0),
                    after_s: states_a.get(n).copied().unwrap_or(0.0),
                })
                .collect();
            let activity = |az: &TraceAnalyzer, tl: Option<TimelineId>| {
                tl.map(|tl| az.timeline_activity(tl)).unwrap_or_default()
            };
            let (act_b, act_a) = (activity(before, p.before), activity(after, p.after));
            TimelineDelta {
                name: p.name.clone(),
                before: p.before,
                after: p.after,
                similarity: p.similarity,
                truncated: (p.truncated_before, p.truncated_after),
                states,
                busy_s: (act_b.busy, act_a.busy),
                blocked_s: (act_b.blocked, act_a.blocked),
                sent: (
                    p.before.map_or(0, |tl| before.index().sent(tl)),
                    p.after.map_or(0, |tl| after.index().sent(tl)),
                ),
                received: (
                    p.before.map_or(0, |tl| before.index().received(tl)),
                    p.after.map_or(0, |tl| after.index().received(tl)),
                ),
            }
        })
        .collect();

    TraceDelta {
        makespan: makespans,
        drawables: (
            before.file().total_drawables(),
            after.file().total_drawables(),
        ),
        messages: (before.index().messages(), after.index().messages()),
        timelines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::align;
    use analysis::fixtures::{instance_a, instance_fixed};

    #[test]
    fn self_delta_is_exactly_zero() {
        let f = instance_a();
        let al = align(&f, &f);
        let d = trace_delta(&f, &f, &al, (15.0, 15.0));
        for td in &d.timelines {
            assert_eq!(td.busy_s.0, td.busy_s.1);
            assert_eq!(td.blocked_s.0, td.blocked_s.1);
            assert_eq!(td.sent, (td.sent.0, td.sent.0));
            for c in &td.states {
                assert_eq!(c.delta_s(), 0.0, "{c:?}");
            }
        }
        assert_eq!(d.drawables.0, d.drawables.1);
        assert_eq!(d.messages.0, d.messages.1);
    }

    #[test]
    fn fix_shrinks_blocked_time() {
        let a = instance_a();
        let fixed = instance_fixed();
        let al = align(&a, &fixed);
        let d = trace_delta(&a, &fixed, &al, (15.0, 6.0));
        // Every worker spends far less time blocked after the fix.
        for td in d.timelines.iter().filter(|t| t.name.starts_with('W')) {
            assert!(
                td.blocked_s.1 < td.blocked_s.0,
                "{}: {:?}",
                td.name,
                td.blocked_s
            );
        }
        // Message counts are identical: same protocol, better schedule.
        assert_eq!(d.messages.0, d.messages.1);
    }
}

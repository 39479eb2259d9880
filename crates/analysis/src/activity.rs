//! Quantitative activity analyses — the numbers behind the paper's
//! visual diagnoses (moved here from `pilot-vis`, which re-exports
//! them).
//!
//! Section IV.B of the paper diagnoses two student programs *by eye*:
//! instance A's query phase is inadvertently serialized (workers never
//! compute simultaneously), and instance B's workers sit idle while the
//! master initializes. These functions extract the same evidence from
//! the SLOG2 data so the reproduction can assert on it. The free
//! functions are thin wrappers over [`TraceAnalyzer`], whose
//! [`TraceIndex`](crate::TraceIndex) resolves the categories once and
//! walks the tree once.

use std::collections::BTreeMap;

use slog2::{Slog2File, TimeWindow, TimelineId, WellKnownCategory};

use crate::intervals::total_seconds;
use crate::TraceAnalyzer;

/// Per-timeline activity summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineActivity {
    /// Total seconds inside the Compute state.
    pub compute_span: f64,
    /// Seconds blocked in `PI_Read` / `PI_Select`.
    pub blocked: f64,
    /// Compute span minus blocked time.
    pub busy: f64,
}

/// Total seconds spent in states of the given well-known category, per
/// timeline. Empty when the file does not define the category.
pub fn timeline_state_seconds(
    file: &Slog2File,
    category: WellKnownCategory,
) -> BTreeMap<TimelineId, f64> {
    match file.category_map().id(category) {
        Some(idx) => slog2::stats::timeline_category_time(file, idx),
        None => BTreeMap::new(),
    }
}

/// The intervals during which `timeline` is computing: inside its
/// Compute state but not blocked in `PI_Read` or `PI_Select`.
pub fn busy_intervals(file: &Slog2File, timeline: TimelineId) -> Vec<(f64, f64)> {
    TraceAnalyzer::new(file).busy_intervals(timeline)
}

/// Activity summary for one timeline.
pub fn timeline_activity(file: &Slog2File, timeline: TimelineId) -> TimelineActivity {
    TraceAnalyzer::new(file).timeline_activity(timeline)
}

/// Fraction of "some timeline is busy" time during which **two or
/// more** of the given timelines are busy simultaneously, optionally
/// restricted to a window.
///
/// A perfectly serialized phase scores ~0; `k` workers computing in
/// parallel score close to 1.
pub fn parallel_overlap(
    file: &Slog2File,
    timelines: &[TimelineId],
    window: Option<TimeWindow>,
) -> f64 {
    TraceAnalyzer::new(file).parallel_overlap(timelines, window)
}

/// Seconds from the start of each worker's Compute state until its
/// first message-arrival bubble — instance B's "kept waiting till
/// PI_MAIN did 11 seconds of initialization".
pub fn idle_until_first_arrival(file: &Slog2File) -> BTreeMap<TimelineId, f64> {
    TraceAnalyzer::new(file).idle_until_first_arrival()
}

impl TraceAnalyzer<'_> {
    /// Busy intervals of one timeline; see [`busy_intervals`].
    pub fn busy_intervals(&self, timeline: TimelineId) -> Vec<(f64, f64)> {
        self.index().busy(timeline).to_vec()
    }

    /// Activity summary for one timeline; see [`timeline_activity`].
    pub fn timeline_activity(&self, timeline: TimelineId) -> TimelineActivity {
        let ix = self.index();
        let (compute_span, blocked) = ix
            .lane(timeline)
            .map_or((0.0, 0.0), |l| (l.compute_span, l.read_s + l.select_s));
        TimelineActivity {
            compute_span,
            blocked,
            busy: total_seconds(ix.busy(timeline)),
        }
    }

    /// Parallel-overlap fraction; see [`parallel_overlap`].
    pub fn parallel_overlap(&self, timelines: &[TimelineId], window: Option<TimeWindow>) -> f64 {
        // Sweep over busy-interval edges counting concurrency.
        let mut events: Vec<(f64, i32)> = Vec::new();
        for &tl in timelines {
            for &(mut s, mut e) in self.index().busy(tl) {
                if let Some(w) = window {
                    s = s.max(w.t0);
                    e = e.min(w.t1);
                    if s >= e {
                        continue;
                    }
                }
                events.push((s, 1));
                events.push((e, -1));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut depth = 0i32;
        let mut prev = f64::NAN;
        let mut any = 0.0;
        let mut multi = 0.0;
        for (t, delta) in events {
            if prev.is_finite() && t > prev {
                if depth >= 1 {
                    any += t - prev;
                }
                if depth >= 2 {
                    multi += t - prev;
                }
            }
            depth += delta;
            prev = t;
        }
        if any > 0.0 {
            multi / any
        } else {
            0.0
        }
    }

    /// Per-timeline idle seconds before the first message arrival;
    /// see [`idle_until_first_arrival`].
    pub fn idle_until_first_arrival(&self) -> BTreeMap<TimelineId, f64> {
        self.index()
            .lanes
            .iter()
            .filter_map(|(&tl, l)| {
                let (start, arrival) = (l.compute_start?, l.first_arrival?);
                Some((tl, (arrival - start).max(0.0)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::file_with;
    use crate::fixtures::{arrival, state};
    use slog2::CategoryId;

    #[test]
    fn busy_subtracts_blocking() {
        // Compute [0,10], read [2,5]: busy = [0,2] ∪ [5,10].
        let f = file_with(vec![state(0, 1, 0.0, 10.0), state(1, 1, 2.0, 5.0)]);
        let busy = busy_intervals(&f, TimelineId(1));
        assert_eq!(busy, vec![(0.0, 2.0), (5.0, 10.0)]);
        let act = timeline_activity(&f, TimelineId(1));
        assert!((act.compute_span - 10.0).abs() < 1e-12);
        assert!((act.blocked - 3.0).abs() < 1e-12);
        assert!((act.busy - 7.0).abs() < 1e-12);
    }

    #[test]
    fn serialized_workers_score_near_zero_overlap() {
        // W0 busy [0,5], W1 busy [5,10]: no overlap.
        let f = file_with(vec![
            state(0, 1, 0.0, 10.0),
            state(1, 1, 5.0, 10.0), // W0 blocked 5..10 -> busy 0..5
            state(0, 2, 0.0, 10.0),
            state(1, 2, 0.0, 5.0), // W1 blocked 0..5 -> busy 5..10
        ]);
        let overlap = parallel_overlap(&f, &[TimelineId(1), TimelineId(2)], None);
        assert!(overlap < 0.01, "overlap {overlap}");
    }

    #[test]
    fn parallel_workers_score_high_overlap() {
        let f = file_with(vec![state(0, 1, 0.0, 10.0), state(0, 2, 0.0, 10.0)]);
        let overlap = parallel_overlap(&f, &[TimelineId(1), TimelineId(2)], None);
        assert!(overlap > 0.99, "overlap {overlap}");
    }

    #[test]
    fn window_restricts_overlap_measurement() {
        // Parallel early, serialized late.
        let f = file_with(vec![
            state(0, 1, 0.0, 4.0),
            state(0, 2, 0.0, 4.0),
            state(0, 1, 4.0, 6.0),
            state(0, 2, 6.0, 8.0),
        ]);
        let tls = [TimelineId(1), TimelineId(2)];
        assert!(parallel_overlap(&f, &tls, Some(TimeWindow::new(0.0, 4.0))) > 0.99);
        assert!(parallel_overlap(&f, &tls, Some(TimeWindow::new(4.0, 8.0))) < 0.01);
    }

    #[test]
    fn idle_until_first_arrival_measures_wait() {
        let f = file_with(vec![
            state(0, 1, 1.0, 20.0),
            arrival(1, 12.0),
            arrival(1, 15.0),
        ]);
        let idle = idle_until_first_arrival(&f);
        assert!((idle[&TimelineId(1)] - 11.0).abs() < 1e-12, "{idle:?}");
    }

    #[test]
    fn missing_categories_are_graceful() {
        let f = file_with(vec![]);
        assert!(timeline_state_seconds(&f, WellKnownCategory::Aborted).is_empty());
        assert!(busy_intervals(&f, TimelineId(0)).is_empty());
        assert_eq!(
            parallel_overlap(&f, &[TimelineId(0), TimelineId(1)], None),
            0.0
        );
        assert!(idle_until_first_arrival(&f).is_empty());
    }

    #[test]
    fn non_finite_state_endpoints_do_not_panic() {
        // A salvaged torn log can carry garbage timestamps; the busy
        // sweep must survive them.
        let f = file_with(vec![
            state(0, 1, 0.0, 10.0),
            slog2::Drawable::State(slog2::StateDrawable {
                category: CategoryId(1),
                timeline: TimelineId(1),
                start: f64::NAN,
                end: 5.0,
                nest_level: 1,
                text: String::new(),
            }),
        ]);
        let busy = busy_intervals(&f, TimelineId(1));
        assert_eq!(busy, vec![(0.0, 10.0)]);
        assert!(parallel_overlap(&f, &[TimelineId(1)], None).is_finite());
    }
}

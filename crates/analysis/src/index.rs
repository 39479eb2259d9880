//! The per-trace index: everything the analyses read, gathered in one
//! walk of the frame tree.
//!
//! [`TraceIndex::build`] does one `tree.query(TimeWindow::ALL)` pass,
//! buckets states, arrival events and arrows by timeline, and sorts
//! each bucket once. The analyses then look up or binary-search the
//! buckets, so a diagnosis costs one walk plus O(n log n) rather than
//! a walk per query and linear scans per arrow, block or hop.
//!
//! **Byte identity.** The buckets keep tree-query order, the sorts use
//! the comparators of the per-call scans kept in `tests/reference`,
//! and every float is summed in query order, so results match those
//! scans bit for bit (the differential tests hold them to it).

use std::collections::BTreeMap;

use slog2::{CategoryId, Drawable, Slog2File, TimeWindow, TimelineId, WellKnownCategory};

use crate::intervals::{merge_intervals, subtract_intervals};

/// One finite message arrow, seen from its receiver:
/// `(recv, send, from, tag)`.
pub(crate) type Inbound = (f64, f64, TimelineId, u32);

/// Everything the analyses need about one timeline.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    /// Every state, `(start, end, category)`, in tree-query order.
    pub(crate) states: Vec<(f64, f64, CategoryId)>,
    /// Seconds in Compute states (summed in query order).
    pub(crate) compute_span: f64,
    /// Seconds in `PI_Read` states.
    pub(crate) read_s: f64,
    /// Seconds in `PI_Select` states.
    pub(crate) select_s: f64,
    /// Finite `PI_Read`/`PI_Select` intervals, sorted by start.
    pub(crate) blocks: Vec<(f64, f64)>,
    /// The merged cover of `blocks`.
    pub(crate) blocked: Vec<(f64, f64)>,
    /// Compute minus blocked: the busy intervals.
    pub(crate) busy: Vec<(f64, f64)>,
    /// Earliest Compute start.
    pub(crate) compute_start: Option<f64>,
    /// Earliest message-arrival event.
    pub(crate) first_arrival: Option<f64>,
    /// Finite arrows into this timeline, sorted by
    /// `(recv, send, from, tag)`.
    pub(crate) inbox: Vec<Inbound>,
    /// The subset of `inbox` the critical path may jump at.
    pub(crate) releases: Vec<Inbound>,
    /// Arrows sent from this timeline (any endpoints).
    pub(crate) sent: u64,
    /// Arrows received by this timeline (any endpoints).
    pub(crate) received: u64,
}

/// The per-trace index behind [`TraceAnalyzer`](crate::TraceAnalyzer).
#[derive(Debug)]
pub struct TraceIndex {
    pub(crate) lanes: BTreeMap<TimelineId, Lane>,
    /// Earliest finite drawable start.
    pub(crate) t_start: f64,
    /// Latest finite drawable end.
    pub(crate) t_end: f64,
    /// The timeline of the first drawable reaching `t_end`.
    pub(crate) end_timeline: Option<TimelineId>,
    /// Total arrows (any endpoints).
    pub(crate) messages: u64,
}

impl TraceIndex {
    /// Index `file` in one pass over its frame tree.
    pub fn build(file: &Slog2File) -> TraceIndex {
        let map = file.category_map();
        let compute = map.id(WellKnownCategory::Compute);
        let read = map.id(WellKnownCategory::PiRead);
        let select = map.id(WellKnownCategory::PiSelect);
        let arrival = map.id(WellKnownCategory::MsgArrival);

        let mut lanes: BTreeMap<TimelineId, Lane> = BTreeMap::new();
        let mut t_start = f64::INFINITY;
        let mut t_end = f64::NEG_INFINITY;
        let mut end_timeline = None;
        let mut messages = 0;
        for d in file.tree.query(TimeWindow::ALL) {
            let (s, e) = (d.start(), d.end());
            if s.is_finite() && e.is_finite() {
                t_start = t_start.min(s);
                if e > t_end {
                    t_end = e;
                    end_timeline = Some(match d {
                        Drawable::State(st) => st.timeline,
                        Drawable::Event(ev) => ev.timeline,
                        Drawable::Arrow(a) => a.to_timeline,
                    });
                }
            }
            match d {
                Drawable::State(st) => {
                    lanes
                        .entry(st.timeline)
                        .or_default()
                        .states
                        .push((s, e, st.category))
                }
                Drawable::Event(ev) => {
                    if Some(ev.category) == arrival {
                        let first = &mut lanes.entry(ev.timeline).or_default().first_arrival;
                        *first = Some(first.map_or(ev.time, |t| t.min(ev.time)));
                    }
                }
                Drawable::Arrow(a) => {
                    messages += 1;
                    lanes.entry(a.from_timeline).or_default().sent += 1;
                    let to = lanes.entry(a.to_timeline).or_default();
                    to.received += 1;
                    // Raw endpoints: `d.start()`/`d.end()` reorder a
                    // drifted arrow, which must stay out.
                    let (send, recv) = (a.start, a.end);
                    if send.is_finite() && recv.is_finite() && send <= recv {
                        to.inbox.push((recv, send, a.from_timeline, a.tag));
                    }
                }
            }
        }

        let has_block_categories = read.is_some() || select.is_some();
        for lane in lanes.values_mut() {
            let mut compute_iv = Vec::new();
            // Finite blocking states with a "counts as Compute" flag:
            // a state whose category is both (possible only with
            // duplicate category indices) is Compute for the busy
            // sweep but still a block for attribution.
            let mut blocks = Vec::new();
            for &(s, e, c) in &lane.states {
                let cat = Some(c);
                let blocking = cat == read || cat == select;
                if cat == compute {
                    compute_iv.push((s, e));
                    lane.compute_span += e - s;
                    lane.compute_start = Some(lane.compute_start.map_or(s, |t| t.min(s)));
                }
                if cat == read {
                    lane.read_s += e - s;
                }
                if cat == select {
                    lane.select_s += e - s;
                }
                if blocking && s.is_finite() && e.is_finite() && s <= e {
                    blocks.push((s, e, cat == compute));
                }
            }
            blocks.sort_by(|a, b| a.0.total_cmp(&b.0));
            let busy_blocked: Vec<(f64, f64)> = blocks
                .iter()
                .filter(|b| !b.2)
                .map(|&(s, e, _)| (s, e))
                .collect();
            lane.busy =
                subtract_intervals(&merge_intervals(compute_iv), &merge_intervals(busy_blocked));
            lane.blocks = blocks.into_iter().map(|(s, e, _)| (s, e)).collect();
            lane.blocked = merge_intervals(lane.blocks.clone());

            // Equal keys are equal tuples, so an unstable sort cannot
            // reorder anything observable.
            lane.inbox.sort_unstable_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(a.2.cmp(&b.2))
                    .then(a.3.cmp(&b.3))
            });
            // Without the Pilot blocking categories every arrow is a
            // release, which keeps the makespan invariant on arbitrary
            // well-formed traces.
            let blocked = &lane.blocked;
            lane.releases = lane
                .inbox
                .iter()
                .copied()
                .filter(|r| !has_block_categories || covers(blocked, r.0))
                .collect();
        }

        TraceIndex {
            lanes,
            t_start,
            t_end,
            end_timeline,
            messages,
        }
    }

    pub(crate) fn lane(&self, tl: TimelineId) -> Option<&Lane> {
        self.lanes.get(&tl)
    }

    /// Busy intervals of one timeline: inside its Compute state but not
    /// blocked in `PI_Read` or `PI_Select`. Sorted and disjoint.
    pub fn busy(&self, tl: TimelineId) -> &[(f64, f64)] {
        self.lane(tl).map_or(&[], |l| l.busy.as_slice())
    }

    /// Every state on one timeline as `(start, end, category)`, in
    /// frame-tree query order.
    pub fn states(&self, tl: TimelineId) -> &[(f64, f64, CategoryId)] {
        self.lane(tl).map_or(&[], |l| l.states.as_slice())
    }

    /// Arrows sent from `tl`.
    pub fn sent(&self, tl: TimelineId) -> u64 {
        self.lane(tl).map_or(0, |l| l.sent)
    }

    /// Arrows received by `tl`.
    pub fn received(&self, tl: TimelineId) -> u64 {
        self.lane(tl).map_or(0, |l| l.received)
    }

    /// Total arrows in the trace.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

/// Does the merged, sorted cover `iv` contain the instant `t`?
fn covers(iv: &[(f64, f64)], t: f64) -> bool {
    let p = iv.partition_point(|&(s, _)| s <= t);
    p > 0 && t <= iv[p - 1].1
}

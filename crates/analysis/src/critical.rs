//! Critical path and blocked-interval attribution.
//!
//! The critical path answers "what chain of work and messages set the
//! finish time?". It is computed *backward* from the last completion:
//! walk the finishing timeline back in time; whenever the walk crosses
//! the release point of a blocked interval (`PI_Read` / `PI_Select`)
//! — the receive of the message that unblocked it — jump to the
//! sending timeline at the send instant and keep walking there. Each
//! backward step is contiguous in time, so the path's total length
//! telescopes to exactly the makespan: the defining invariant the
//! property tests assert.

use std::collections::BTreeMap;

use slog2::{Slog2File, TimelineId};

use crate::index::TraceIndex;
use crate::TraceAnalyzer;

/// One on-timeline stretch of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// The timeline carrying this stretch.
    pub timeline: TimelineId,
    /// Stretch start (seconds).
    pub start: f64,
    /// Stretch end.
    pub end: f64,
}

/// One cross-timeline message hop of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathHop {
    /// Sending timeline.
    pub from: TimelineId,
    /// Receiving timeline.
    pub to: TimelineId,
    /// Send instant.
    pub send: f64,
    /// Receive (release) instant.
    pub recv: f64,
    /// Message tag.
    pub tag: u32,
}

/// The weighted critical path from run start to last completion.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPath {
    /// Path stretches, in reverse-traversal order (latest first).
    pub segments: Vec<PathSegment>,
    /// Message hops, latest first.
    pub hops: Vec<PathHop>,
    /// Earliest activity in the trace.
    pub t_start: f64,
    /// Last completion in the trace.
    pub t_end: f64,
}

impl CriticalPath {
    /// Total weighted length: segment durations plus hop latencies.
    /// Equals the makespan by construction.
    pub fn length(&self) -> f64 {
        let seg: f64 = self.segments.iter().map(|s| s.end - s.start).sum();
        let hop: f64 = self.hops.iter().map(|h| h.recv - h.send).sum();
        seg + hop
    }

    /// `t_end - t_start`.
    pub fn makespan(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Seconds of path carried by each timeline (segments only).
    pub fn seconds_per_timeline(&self) -> BTreeMap<TimelineId, f64> {
        let mut out = BTreeMap::new();
        for s in &self.segments {
            *out.entry(s.timeline).or_insert(0.0) += s.end - s.start;
        }
        out
    }
}

/// The send that released one blocked interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleasingSend {
    /// Sending timeline (who to blame for the wait).
    pub from: TimelineId,
    /// Send instant.
    pub send_time: f64,
    /// Receive instant inside the blocked interval.
    pub recv_time: f64,
    /// Message tag.
    pub tag: u32,
}

/// One blocked interval and what ended it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockAttribution {
    /// The waiting timeline.
    pub timeline: TimelineId,
    /// Block start.
    pub start: f64,
    /// Block end.
    pub end: f64,
    /// The releasing send, when an arrow lands inside the interval;
    /// `None` for a wait the trace cannot explain (e.g. a torn log).
    pub released_by: Option<ReleasingSend>,
}

impl TraceIndex {
    /// The send that released the blocked interval `[s, e]` of `tl`:
    /// the first arrow into `tl`, in `(recv, send, from, tag)` order,
    /// whose receive lands inside the interval.
    pub(crate) fn releasing_send(&self, tl: TimelineId, s: f64, e: f64) -> Option<ReleasingSend> {
        let inbox = &self.lane(tl)?.inbox;
        let &(recv_time, send_time, from, tag) = inbox.get(inbox.partition_point(|r| r.0 < s))?;
        (recv_time <= e).then_some(ReleasingSend {
            from,
            send_time,
            recv_time,
            tag,
        })
    }
}

impl TraceAnalyzer<'_> {
    /// Attribute every blocked interval to its releasing send; see
    /// [`attribute_blocks`].
    pub fn blocked_intervals(&self) -> Vec<BlockAttribution> {
        let ix = self.index();
        let mut out = Vec::new();
        for (&tl, lane) in &ix.lanes {
            for &(start, end) in &lane.blocks {
                out.push(BlockAttribution {
                    timeline: tl,
                    start,
                    end,
                    released_by: ix.releasing_send(tl, start, end),
                });
            }
        }
        out
    }

    /// The critical path; see [`critical_path`].
    pub fn critical_path(&self) -> CriticalPath {
        let ix = self.index();
        let (t_start, t_end) = (ix.t_start, ix.t_end);
        let Some(mut tl) = ix.end_timeline else {
            return CriticalPath {
                t_start: self.file().range.t0,
                t_end: self.file().range.t0,
                ..Default::default()
            };
        };
        let mut path = CriticalPath {
            t_start,
            t_end,
            ..Default::default()
        };
        let mut cur = t_end;
        loop {
            // The latest release on `tl` at or before `cur` whose send
            // precedes `cur` (strictness guarantees progress). Releases
            // are sorted by (recv, send, from, tag), so the last match
            // is the greatest (recv, send), latest on ties.
            let jump = ix.lane(tl).and_then(|lane| {
                let rs = &lane.releases;
                rs[..rs.partition_point(|r| r.0 <= cur)]
                    .iter()
                    .rev()
                    .take_while(|r| r.0 > t_start)
                    .find(|r| r.1 < cur)
                    .copied()
            });
            match jump {
                Some((recv, send, from, tag)) => {
                    path.segments.push(PathSegment {
                        timeline: tl,
                        start: recv,
                        end: cur,
                    });
                    path.hops.push(PathHop {
                        from,
                        to: tl,
                        send,
                        recv,
                        tag,
                    });
                    tl = from;
                    cur = send;
                    if cur <= t_start {
                        break;
                    }
                }
                None => {
                    path.segments.push(PathSegment {
                        timeline: tl,
                        start: t_start,
                        end: cur,
                    });
                    break;
                }
            }
        }
        path
    }
}

/// Attribute every blocked interval (`PI_Read` / `PI_Select` state) to
/// the specific send that released it: the first arrow into the same
/// timeline whose receive instant lands inside the interval. Sorted by
/// (timeline, start).
pub fn attribute_blocks(file: &Slog2File) -> Vec<BlockAttribution> {
    TraceAnalyzer::new(file).blocked_intervals()
}

/// Compute the critical path of `file`.
///
/// When the file defines the Pilot blocking categories, only arrows
/// that actually released a blocked interval cause a jump (a message
/// into a rank that was computing anyway is not on the path). On
/// traces without those categories every arrow counts, which keeps the
/// makespan invariant on arbitrary well-formed inputs.
pub fn critical_path(file: &Slog2File) -> CriticalPath {
    TraceAnalyzer::new(file).critical_path()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{arrow, file_with, instance_a, instance_b, state};

    #[test]
    fn single_timeline_path_is_the_whole_run() {
        let f = file_with(vec![state(0, 0, 1.0, 9.0)]);
        let p = critical_path(&f);
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].timeline, TimelineId(0));
        assert!((p.length() - p.makespan()).abs() < 1e-12);
        assert!((p.makespan() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn path_jumps_to_the_releasing_sender() {
        // Main computes [0,5], sends at 5; W0 blocked [0,6] until the
        // arrow lands at 6, then computes [6,10].
        let f = file_with(vec![
            state(0, 0, 0.0, 5.0),
            state(0, 1, 0.0, 10.0),
            state(1, 1, 0.0, 6.0),
            arrow(0, 1, 5.0, 6.0, 1),
        ]);
        let p = critical_path(&f);
        assert_eq!(p.hops.len(), 1);
        assert_eq!(p.hops[0].from, TimelineId(0));
        assert_eq!(p.hops[0].to, TimelineId(1));
        assert!((p.length() - p.makespan()).abs() < 1e-12);
        let share = p.seconds_per_timeline();
        assert!((share[&TimelineId(0)] - 5.0).abs() < 1e-12);
        assert!((share[&TimelineId(1)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn arrow_into_a_busy_rank_is_not_a_jump() {
        // W0 never blocks, so the message into it is off the path.
        let f = file_with(vec![
            state(0, 0, 0.0, 3.0),
            state(0, 1, 0.0, 10.0),
            arrow(0, 1, 2.0, 2.5, 1),
        ]);
        let p = critical_path(&f);
        assert!(p.hops.is_empty());
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].timeline, TimelineId(1));
    }

    #[test]
    fn attribution_names_the_releasing_send() {
        let f = file_with(vec![
            state(0, 0, 0.0, 5.0),
            state(0, 1, 0.0, 10.0),
            state(1, 1, 1.0, 6.0),
            state(1, 1, 8.0, 9.0), // no arrow lands here
            arrow(0, 1, 5.0, 6.0, 42),
        ]);
        let at = attribute_blocks(&f);
        assert_eq!(at.len(), 2);
        let released = at.iter().find(|b| b.start == 1.0).unwrap();
        let r = released.released_by.unwrap();
        assert_eq!(r.from, TimelineId(0));
        assert_eq!(r.tag, 42);
        assert!((r.send_time - 5.0).abs() < 1e-12);
        let unexplained = at.iter().find(|b| b.start == 8.0).unwrap();
        assert!(unexplained.released_by.is_none());
    }

    #[test]
    fn fixture_paths_equal_makespan() {
        for f in [instance_a(), instance_b()] {
            let p = critical_path(&f);
            assert!(
                (p.length() - p.makespan()).abs() < 1e-9,
                "length {} vs makespan {}",
                p.length(),
                p.makespan()
            );
            assert!(!p.hops.is_empty());
        }
    }

    #[test]
    fn instance_b_path_is_dominated_by_main() {
        let p = critical_path(&instance_b());
        let share = p.seconds_per_timeline();
        let main = share[&TimelineId(0)];
        assert!(main / p.length() > 0.6, "main share {}", main / p.length());
    }

    #[test]
    fn empty_file_has_empty_path() {
        let p = critical_path(&file_with(vec![]));
        assert!(p.segments.is_empty());
        assert_eq!(p.length(), 0.0);
        assert_eq!(p.makespan(), 0.0);
    }
}

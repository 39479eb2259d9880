//! The happens-before graph of one trace.
//!
//! Nodes are the *communication* points of each timeline — a start and
//! end sentinel per timeline, one node per arrow send, one per arrow
//! receive — linked by program order within a timeline and by the
//! arrows across timelines. Each node carries a vector-clock timestamp,
//! so "could A have influenced B?" is an O(#timelines) comparison
//! instead of a graph search. Arrows whose receive precedes their send
//! (clock drift across ranks) would make the graph cyclic; they are
//! skipped and counted in [`HbGraph::dropped_arrows`].

use std::collections::BTreeMap;

use slog2::{Drawable, Slog2File, TimeWindow, TimelineId};

/// What a graph node marks on its timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HbNodeKind {
    /// The timeline's first activity.
    Start,
    /// A message send (arrow tail).
    Send {
        /// Receiving timeline.
        to: TimelineId,
        /// Message tag.
        tag: u32,
    },
    /// A message receive (arrow head).
    Recv {
        /// Sending timeline.
        from: TimelineId,
        /// Message tag.
        tag: u32,
    },
    /// The timeline's last activity.
    End,
}

/// One node of the happens-before graph.
#[derive(Debug, Clone, PartialEq)]
pub struct HbNode {
    /// The timeline the node lives on.
    pub timeline: TimelineId,
    /// Wall-clock time of the node.
    pub time: f64,
    /// What the node marks.
    pub kind: HbNodeKind,
}

/// The happens-before graph plus per-node vector clocks.
#[derive(Debug, Clone)]
pub struct HbGraph {
    nodes: Vec<HbNode>,
    /// `clocks[n][tl]` = how many events of timeline `tl` happened
    /// before (or at) node `n`.
    clocks: Vec<Vec<u64>>,
    per_timeline: BTreeMap<TimelineId, Vec<usize>>,
    /// Arrows skipped because their receive preceded their send.
    pub dropped_arrows: usize,
}

impl HbGraph {
    /// Build the graph from every drawable in `file`.
    pub fn build(file: &Slog2File) -> HbGraph {
        let ntl = file.timelines.len();
        // Collect per-timeline activity extent and the arrow endpoints.
        let mut extent: BTreeMap<TimelineId, (f64, f64)> = BTreeMap::new();
        let mut arrows = Vec::new();
        let mut dropped = 0usize;
        for d in file.tree.query(TimeWindow::ALL) {
            let (s, e) = (d.start(), d.end());
            if !s.is_finite() || !e.is_finite() {
                continue;
            }
            let mut touch = |tl: TimelineId| {
                let ex = extent.entry(tl).or_insert((s, e));
                ex.0 = ex.0.min(s);
                ex.1 = ex.1.max(e);
            };
            match d {
                Drawable::State(st) => touch(st.timeline),
                Drawable::Event(ev) => touch(ev.timeline),
                Drawable::Arrow(a) => {
                    touch(a.from_timeline);
                    touch(a.to_timeline);
                    if a.start <= a.end {
                        arrows.push((a.from_timeline, a.to_timeline, a.start, a.end, a.tag));
                    } else {
                        dropped += 1;
                    }
                }
            }
        }

        // Per-timeline node lists in program order: Start, then sends
        // and receives sorted by time (sends before receives on ties —
        // a rank must issue its send before it can act on an arrival
        // carrying the same quantized timestamp), then End.
        let mut per_tl_events: BTreeMap<TimelineId, Vec<HbNode>> = BTreeMap::new();
        for &(from, to, t_send, t_recv, tag) in &arrows {
            per_tl_events.entry(from).or_default().push(HbNode {
                timeline: from,
                time: t_send,
                kind: HbNodeKind::Send { to, tag },
            });
            per_tl_events.entry(to).or_default().push(HbNode {
                timeline: to,
                time: t_recv,
                kind: HbNodeKind::Recv { from, tag },
            });
        }

        let mut nodes = Vec::new();
        let mut per_timeline: BTreeMap<TimelineId, Vec<usize>> = BTreeMap::new();
        for (tl, &(t0, t1)) in &extent {
            let mut evs = per_tl_events.remove(tl).unwrap_or_default();
            evs.sort_by(|a, b| {
                a.time.total_cmp(&b.time).then_with(|| {
                    let rank = |k: &HbNodeKind| match k {
                        HbNodeKind::Start => 0,
                        HbNodeKind::Send { .. } => 1,
                        HbNodeKind::Recv { .. } => 2,
                        HbNodeKind::End => 3,
                    };
                    rank(&a.kind).cmp(&rank(&b.kind))
                })
            });
            let ids = per_timeline.entry(*tl).or_default();
            ids.push(nodes.len());
            nodes.push(HbNode {
                timeline: *tl,
                time: t0,
                kind: HbNodeKind::Start,
            });
            for ev in evs {
                ids.push(nodes.len());
                nodes.push(ev);
            }
            ids.push(nodes.len());
            nodes.push(HbNode {
                timeline: *tl,
                time: t1,
                kind: HbNodeKind::End,
            });
        }

        // Vector clocks: walk nodes in a global order that respects
        // both program order (per-timeline position) and message order
        // (send before matching receive). Kahn-style: repeatedly take
        // the unprocessed node whose predecessors are all done.
        // Message predecessors: for each Recv, the matching Send —
        // matched FIFO per (from, to, tag) channel.
        let mut send_queues: BTreeMap<(TimelineId, TimelineId, u32), Vec<usize>> = BTreeMap::new();
        let mut recv_queues: BTreeMap<(TimelineId, TimelineId, u32), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            match n.kind {
                HbNodeKind::Send { to, tag } => send_queues
                    .entry((n.timeline, to, tag))
                    .or_default()
                    .push(i),
                HbNodeKind::Recv { from, tag } => recv_queues
                    .entry((from, n.timeline, tag))
                    .or_default()
                    .push(i),
                _ => {}
            }
        }
        // FIFO pairing per channel key: k-th send matches k-th receive.
        let mut msg_pred: BTreeMap<usize, usize> = BTreeMap::new();
        for (key, recvs) in &recv_queues {
            if let Some(sends) = send_queues.get(key) {
                for (k, &r) in recvs.iter().enumerate() {
                    if let Some(&s) = sends.get(k) {
                        msg_pred.insert(r, s);
                    }
                }
            }
        }

        let mut clocks: Vec<Vec<u64>> = vec![vec![0; ntl]; nodes.len()];
        let mut done = vec![false; nodes.len()];
        let mut cursor: BTreeMap<TimelineId, usize> =
            per_timeline.keys().map(|&tl| (tl, 0)).collect();
        loop {
            let mut progressed = false;
            for (&tl, pos) in cursor.iter_mut() {
                let ids = &per_timeline[&tl];
                while *pos < ids.len() {
                    let i = ids[*pos];
                    // Message predecessor must be processed first.
                    if let Some(&s) = msg_pred.get(&i) {
                        if !done[s] {
                            break;
                        }
                    }
                    let mut clock = if *pos > 0 {
                        clocks[ids[*pos - 1]].clone()
                    } else {
                        vec![0; ntl]
                    };
                    if let Some(&s) = msg_pred.get(&i) {
                        for (c, sc) in clock.iter_mut().zip(&clocks[s]) {
                            *c = (*c).max(*sc);
                        }
                    }
                    let own = nodes[i].timeline.as_usize();
                    if own < ntl {
                        clock[own] += 1;
                    }
                    clocks[i] = clock;
                    done[i] = true;
                    *pos += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        HbGraph {
            nodes,
            clocks,
            per_timeline,
            dropped_arrows: dropped,
        }
    }

    /// All nodes, in construction order.
    pub fn nodes(&self) -> &[HbNode] {
        &self.nodes
    }

    /// The node's vector clock.
    pub fn clock(&self, node: usize) -> &[u64] {
        &self.clocks[node]
    }

    /// Node indices of one timeline, in program order.
    pub fn timeline_nodes(&self, tl: TimelineId) -> &[usize] {
        self.per_timeline.get(&tl).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The latest node on `tl` at or before `time` (the last one in
    /// program order when several share that time).
    pub fn node_at(&self, tl: TimelineId, time: f64) -> Option<usize> {
        // Program order is time order, so binary search.
        let ids = self.timeline_nodes(tl);
        let p = ids.partition_point(|&i| self.nodes[i].time <= time);
        p.checked_sub(1).map(|k| ids[k])
    }

    /// Does node `a` happen before node `b` (strictly, via program
    /// order and messages)?
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let (ca, cb) = (&self.clocks[a], &self.clocks[b]);
        ca.iter().zip(cb).all(|(x, y)| x <= y) && ca.iter().zip(cb).any(|(x, y)| x < y)
    }

    /// Are `a` and `b` concurrent (neither happens before the other)?
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.happens_before(a, b) && !self.happens_before(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{arrow, file_with, state};

    #[test]
    fn message_orders_sender_past_before_receiver_future() {
        // Main computes [0,2], sends at 2 -> W1 receives at 3.
        let f = file_with(vec![
            state(0, 0, 0.0, 2.0),
            state(0, 1, 0.0, 10.0),
            arrow(0, 1, 2.0, 3.0, 7),
        ]);
        let g = HbGraph::build(&f);
        let send = g
            .timeline_nodes(TimelineId(0))
            .iter()
            .copied()
            .find(|&i| matches!(g.nodes()[i].kind, HbNodeKind::Send { .. }))
            .unwrap();
        let recv = g
            .timeline_nodes(TimelineId(1))
            .iter()
            .copied()
            .find(|&i| matches!(g.nodes()[i].kind, HbNodeKind::Recv { .. }))
            .unwrap();
        assert!(g.happens_before(send, recv));
        assert!(!g.happens_before(recv, send));
        // Sender start happens before receiver end, transitively.
        let s0 = g.timeline_nodes(TimelineId(0))[0];
        let e1 = *g.timeline_nodes(TimelineId(1)).last().unwrap();
        assert!(g.happens_before(s0, e1));
    }

    #[test]
    fn unlinked_timelines_are_concurrent() {
        let f = file_with(vec![state(0, 1, 0.0, 5.0), state(0, 2, 0.0, 5.0)]);
        let g = HbGraph::build(&f);
        let a = g.timeline_nodes(TimelineId(1))[0];
        let b = *g.timeline_nodes(TimelineId(2)).last().unwrap();
        assert!(g.concurrent(a, b));
    }

    #[test]
    fn drifted_arrow_is_dropped_not_cyclic() {
        let f = file_with(vec![
            state(0, 0, 0.0, 5.0),
            state(0, 1, 0.0, 5.0),
            arrow(0, 1, 3.0, 2.0, 1), // receive before send
        ]);
        let g = HbGraph::build(&f);
        assert_eq!(g.dropped_arrows, 1);
        // Still a valid acyclic graph with start/end sentinels.
        let a = g.timeline_nodes(TimelineId(0))[0];
        let b = *g.timeline_nodes(TimelineId(0)).last().unwrap();
        assert!(g.happens_before(a, b));
    }

    #[test]
    fn node_at_finds_latest_preceding_node() {
        let f = file_with(vec![
            state(0, 0, 0.0, 4.0),
            state(0, 1, 0.0, 4.0),
            arrow(0, 1, 1.0, 2.0, 0),
        ]);
        let g = HbGraph::build(&f);
        let n = g.node_at(TimelineId(0), 1.5).unwrap();
        assert!(matches!(g.nodes()[n].kind, HbNodeKind::Send { .. }));
        assert!(g.node_at(TimelineId(0), -1.0).is_none());
    }

    #[test]
    fn node_at_picks_the_last_of_tied_nodes() {
        // Rank 0 sends twice at t = 1, then receives at t = 1: three
        // nodes share the instant; the answer is the last in program
        // order (the receive), as a backward linear scan would find.
        let f = file_with(vec![
            state(0, 0, 0.0, 4.0),
            state(0, 1, 0.0, 4.0),
            arrow(0, 1, 1.0, 2.0, 0),
            arrow(0, 1, 1.0, 3.0, 1),
            arrow(1, 0, 0.5, 1.0, 2),
        ]);
        let g = HbGraph::build(&f);
        let ids = g.timeline_nodes(TimelineId(0));
        let linear = |t: f64| ids.iter().rev().find(|&&i| g.nodes()[i].time <= t).copied();
        let n = g.node_at(TimelineId(0), 1.0).unwrap();
        assert_eq!(Some(n), linear(1.0));
        assert!(matches!(g.nodes()[n].kind, HbNodeKind::Recv { .. }));
        assert_eq!(g.nodes()[n].time, 1.0);
        for t in [-1.0, 0.0, 0.5, 1.0, 1.5, 4.0, 9.0, f64::NAN] {
            assert_eq!(g.node_at(TimelineId(0), t), linear(t), "t = {t}");
        }
        assert!(g.node_at(TimelineId(7), 1.0).is_none());
    }
}

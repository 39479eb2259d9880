//! Reference copy of the trace diff as it was before the per-trace
//! index: per-timeline `duration_stats` and activity walks, per-phase
//! busy/overlap walks, and a `String`-valued LCS alignment. The
//! differential test holds `diff::diff_traces` to this byte for byte.

#![allow(dead_code)]

use std::collections::BTreeMap;

use analysis::{total_seconds, worker_timelines, Diagnosis};
use diff::align::MAX_SEQ_LEN;
use diff::issue::KINDS;
use diff::{
    diff_issues, fnv1a, AlignedPair, Alignment, CategoryDelta, PhaseDelta, TimelineDelta,
    TraceDelta, TraceDiff,
};
use slog2::{Drawable, Slog2File, TimeWindow, TimelineId};

#[path = "../../../analysis/tests/reference/mod.rs"]
pub mod analysis_ref;

const TERMINAL_CATEGORIES: [&str; 2] = ["ABORTED", "DEADLOCKED"];

// ---- align -------------------------------------------------------------

fn sequences(file: &Slog2File) -> BTreeMap<TimelineId, (Vec<String>, bool)> {
    let mut raw: BTreeMap<TimelineId, Vec<(f64, f64, String)>> = BTreeMap::new();
    let mut truncated: BTreeMap<TimelineId, bool> = BTreeMap::new();
    for tl in file.timeline_ids() {
        raw.insert(tl, Vec::new());
        truncated.insert(tl, false);
    }
    for d in file.tree.query(TimeWindow::ALL) {
        if let Drawable::State(s) = d {
            let name = file
                .category(s.category)
                .map(|c| c.name.as_str())
                .unwrap_or("?");
            if TERMINAL_CATEGORIES.contains(&name) {
                truncated.insert(s.timeline, true);
                continue;
            }
            raw.entry(s.timeline)
                .or_default()
                .push((s.start, s.end, name.to_string()));
        }
    }
    raw.into_iter()
        .map(|(tl, mut states)| {
            states.sort_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            let mut seq: Vec<String> = states.into_iter().map(|(_, _, n)| n).collect();
            if seq.len() > MAX_SEQ_LEN {
                let stride = seq.len().div_ceil(MAX_SEQ_LEN);
                seq = seq.into_iter().step_by(stride).collect();
            }
            let trunc = truncated.get(&tl).copied().unwrap_or(false);
            (tl, (seq, trunc))
        })
        .collect()
}

fn lcs_len(a: &[String], b: &[String]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for x in a {
        for (j, y) in b.iter().enumerate() {
            cur[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn similarity(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    2.0 * lcs_len(a, b) as f64 / (a.len() + b.len()) as f64
}

pub fn align(before: &Slog2File, after: &Slog2File) -> Alignment {
    let seq_b = sequences(before);
    let seq_a = sequences(after);

    let mut claimed = vec![false; after.timelines.len()];
    let mut partner: Vec<Option<TimelineId>> = vec![None; before.timelines.len()];
    for (bi, bname) in before.timelines.iter().enumerate() {
        if let Some(ai) = after
            .timelines
            .iter()
            .enumerate()
            .position(|(ai, aname)| !claimed[ai] && aname == bname)
        {
            claimed[ai] = true;
            partner[bi] = Some(TimelineId(ai as u32));
        }
    }
    let mut free_after: Vec<u32> = claimed
        .iter()
        .enumerate()
        .filter(|(_, c)| !**c)
        .map(|(i, _)| i as u32)
        .collect();
    free_after.reverse();
    for p in partner.iter_mut() {
        if p.is_none() {
            if let Some(ai) = free_after.pop() {
                *p = Some(TimelineId(ai));
            }
        }
    }

    let empty = (Vec::new(), false);
    let mut pairs = Vec::new();
    let mut taken = vec![false; after.timelines.len()];
    for (bi, p) in partner.iter().enumerate() {
        let b_tl = TimelineId(bi as u32);
        let (b_seq, b_trunc) = seq_b.get(&b_tl).unwrap_or(&empty);
        match p {
            Some(a_tl) => {
                taken[a_tl.as_usize()] = true;
                let (a_seq, a_trunc) = seq_a.get(a_tl).unwrap_or(&empty);
                pairs.push(AlignedPair {
                    name: before.timelines[bi].clone(),
                    before: Some(b_tl),
                    after: Some(*a_tl),
                    similarity: similarity(b_seq, a_seq),
                    truncated_before: *b_trunc,
                    truncated_after: *a_trunc,
                });
            }
            None => pairs.push(AlignedPair {
                name: before.timelines[bi].clone(),
                before: Some(b_tl),
                after: None,
                similarity: 0.0,
                truncated_before: *b_trunc,
                truncated_after: false,
            }),
        }
    }
    for (ai, name) in after.timelines.iter().enumerate() {
        if !taken[ai] {
            let a_tl = TimelineId(ai as u32);
            let (_, a_trunc) = seq_a.get(&a_tl).unwrap_or(&empty);
            pairs.push(AlignedPair {
                name: name.clone(),
                before: None,
                after: Some(a_tl),
                similarity: 0.0,
                truncated_before: false,
                truncated_after: *a_trunc,
            });
        }
    }
    Alignment { pairs }
}

// ---- delta -------------------------------------------------------------

fn state_seconds(file: &Slog2File, tl: TimelineId) -> BTreeMap<String, f64> {
    let stats = jumpshot::duration_stats(file, file.range);
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

fn arrow_counts(file: &Slog2File) -> (BTreeMap<TimelineId, u64>, BTreeMap<TimelineId, u64>, u64) {
    let mut sent = BTreeMap::new();
    let mut received = BTreeMap::new();
    let mut total = 0;
    for d in file.tree.query(TimeWindow::ALL) {
        if let Drawable::Arrow(a) = d {
            *sent.entry(a.from_timeline).or_insert(0) += 1;
            *received.entry(a.to_timeline).or_insert(0) += 1;
            total += 1;
        }
    }
    (sent, received, total)
}

pub fn trace_delta(
    before: &Slog2File,
    after: &Slog2File,
    alignment: &Alignment,
    makespans: (f64, f64),
) -> TraceDelta {
    let (sent_b, recv_b, msgs_b) = arrow_counts(before);
    let (sent_a, recv_a, msgs_a) = arrow_counts(after);

    let timelines = alignment
        .pairs
        .iter()
        .map(|p| {
            let states_b = p
                .before
                .map(|tl| state_seconds(before, tl))
                .unwrap_or_default();
            let states_a = p
                .after
                .map(|tl| state_seconds(after, tl))
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
            let busy = |file: &Slog2File, tl: Option<TimelineId>| {
                tl.map(|tl| total_seconds(&analysis_ref::busy_intervals(file, tl)))
                    .unwrap_or(0.0)
            };
            let blocked = |file: &Slog2File, tl: Option<TimelineId>| {
                tl.map(|tl| analysis_ref::timeline_activity(file, tl).blocked)
                    .unwrap_or(0.0)
            };
            let count = |m: &BTreeMap<TimelineId, u64>, tl: Option<TimelineId>| {
                tl.and_then(|tl| m.get(&tl).copied()).unwrap_or(0)
            };
            TimelineDelta {
                name: p.name.clone(),
                before: p.before,
                after: p.after,
                similarity: p.similarity,
                truncated: (p.truncated_before, p.truncated_after),
                states,
                busy_s: (busy(before, p.before), busy(after, p.after)),
                blocked_s: (blocked(before, p.before), blocked(after, p.after)),
                sent: (count(&sent_b, p.before), count(&sent_a, p.after)),
                received: (count(&recv_b, p.before), count(&recv_a, p.after)),
            }
        })
        .collect();

    TraceDelta {
        makespan: makespans,
        drawables: (before.total_drawables(), after.total_drawables()),
        messages: (msgs_b, msgs_a),
        timelines,
    }
}

// ---- issue -------------------------------------------------------------

fn lane_metrics(file: &Slog2File, w: Option<TimeWindow>) -> (f64, f64, f64) {
    let workers = worker_timelines(file);
    let window = w.unwrap_or(file.range);
    let overlap = analysis_ref::parallel_overlap(file, &workers, Some(window));
    let mut busy = 0.0;
    let mut blocked = 0.0;
    let stats = jumpshot::duration_stats(file, window);
    let read = file.category_by_name("PI_Read").map(|c| c.index);
    let select = file.category_by_name("PI_Select").map(|c| c.index);
    for &tl in &workers {
        for (s, e) in analysis_ref::busy_intervals(file, tl) {
            busy += (e.min(window.t1) - s.max(window.t0)).max(0.0);
        }
        if let Some(h) = stats.get(&tl) {
            for id in [read, select].into_iter().flatten() {
                blocked += h.coverage.get(&id).copied().unwrap_or(0.0);
            }
        }
    }
    (overlap, busy, blocked)
}

pub fn measure_phases(
    before: &Slog2File,
    after: &Slog2File,
    diag_before: &Diagnosis,
    diag_after: &Diagnosis,
) -> Vec<PhaseDelta> {
    let mut phases = Vec::new();
    let mut push = |label: String, wb: Option<TimeWindow>, wa: Option<TimeWindow>| {
        let (ob, bb, kb) = lane_metrics(before, wb);
        let (oa, ba, ka) = lane_metrics(after, wa);
        phases.push(PhaseDelta {
            label,
            window_before: wb,
            window_after: wa,
            overlap: (ob, oa),
            busy_s: (bb, ba),
            blocked_s: (kb, ka),
        });
    };
    push(
        "whole-run".to_string(),
        Some(before.range),
        Some(after.range),
    );
    for kind in KINDS {
        let vb = diag_before.verdict(kind);
        let va = diag_after.verdict(kind);
        if vb.is_some() || va.is_some() {
            push(
                kind.name().to_string(),
                vb.map(|v| v.window),
                va.map(|v| v.window),
            );
        }
    }
    phases
}

// ---- report ------------------------------------------------------------

pub fn diff_traces(before: &Slog2File, after: &Slog2File, labels: (&str, &str)) -> TraceDiff {
    let diag_before = analysis_ref::diagnose(before, labels.0);
    let diag_after = analysis_ref::diagnose(after, labels.1);
    let alignment = align(before, after);
    let delta = trace_delta(
        before,
        after,
        &alignment,
        (diag_before.makespan, diag_after.makespan),
    );
    let phases = measure_phases(before, after, &diag_before, &diag_after);
    let issues = diff_issues(&diag_before, &diag_after);
    TraceDiff {
        before_label: labels.0.to_string(),
        after_label: labels.1.to_string(),
        digests: (fnv1a(&before.to_bytes()), fnv1a(&after.to_bytes())),
        diag_before,
        diag_after,
        alignment,
        delta,
        phases,
        issues,
    }
}

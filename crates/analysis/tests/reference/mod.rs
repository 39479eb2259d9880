//! Reference copy of the per-call analyses, as they were before the
//! per-trace index: every function re-walks the whole frame tree and
//! scans its lists linearly. Slow (quadratic in places) but obviously
//! right, so the differential tests hold the indexed library to these
//! results byte for byte. Shared with the `diff` crate's differential
//! test through a `#[path]` include; test code only.

#![allow(dead_code)]

pub mod traces;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use analysis::verdict::{
    DOMINANCE_MIN_SHARE, LATE_PRODUCER_MIN_FRACTION, LOAD_IMBALANCE_MIN_RATIO,
    LOAD_IMBALANCE_MIN_WASTE_FRACTION, SERIAL_PHASE_MAX_OVERLAP, SERIAL_PHASE_MIN_FRACTION,
};
use analysis::{
    merge_intervals, subtract_intervals, total_seconds, worker_timelines, BlockAttribution,
    CriticalPath, Diagnosis, PathHop, PathSegment, ReleasingSend, TimelineActivity, Verdict,
    VerdictKind,
};
use slog2::{CategoryMap, Drawable, Slog2File, TimeWindow, TimelineId, WellKnownCategory};

// ---- activity ----------------------------------------------------------

pub fn timeline_state_seconds(
    file: &Slog2File,
    category: WellKnownCategory,
) -> BTreeMap<TimelineId, f64> {
    match file.category_map().id(category) {
        Some(idx) => slog2::stats::timeline_category_time(file, idx),
        None => BTreeMap::new(),
    }
}

fn busy_intervals_with(
    file: &Slog2File,
    map: &CategoryMap,
    timeline: TimelineId,
) -> Vec<(f64, f64)> {
    let compute = map.id(WellKnownCategory::Compute);
    let read = map.id(WellKnownCategory::PiRead);
    let select = map.id(WellKnownCategory::PiSelect);
    let mut compute_iv = Vec::new();
    let mut blocked_iv = Vec::new();
    for d in file.tree.query(TimeWindow::ALL) {
        if let Drawable::State(s) = d {
            if s.timeline != timeline {
                continue;
            }
            if Some(s.category) == compute {
                compute_iv.push((s.start, s.end));
            } else if Some(s.category) == read || Some(s.category) == select {
                blocked_iv.push((s.start, s.end));
            }
        }
    }
    subtract_intervals(&merge_intervals(compute_iv), &merge_intervals(blocked_iv))
}

pub fn busy_intervals(file: &Slog2File, timeline: TimelineId) -> Vec<(f64, f64)> {
    busy_intervals_with(file, &file.category_map(), timeline)
}

pub fn timeline_activity(file: &Slog2File, timeline: TimelineId) -> TimelineActivity {
    let get = |w: WellKnownCategory| {
        timeline_state_seconds(file, w)
            .get(&timeline)
            .copied()
            .unwrap_or(0.0)
    };
    TimelineActivity {
        compute_span: get(WellKnownCategory::Compute),
        blocked: get(WellKnownCategory::PiRead) + get(WellKnownCategory::PiSelect),
        busy: total_seconds(&busy_intervals(file, timeline)),
    }
}

pub fn parallel_overlap(
    file: &Slog2File,
    timelines: &[TimelineId],
    window: Option<TimeWindow>,
) -> f64 {
    let map = file.category_map();
    let mut events: Vec<(f64, i32)> = Vec::new();
    for &tl in timelines {
        for (mut s, mut e) in busy_intervals_with(file, &map, tl) {
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

pub fn idle_until_first_arrival(file: &Slog2File) -> BTreeMap<TimelineId, f64> {
    let map = file.category_map();
    let compute = map.id(WellKnownCategory::Compute);
    let arrival = map.id(WellKnownCategory::MsgArrival);
    let mut compute_start: BTreeMap<TimelineId, f64> = BTreeMap::new();
    let mut first_arrival: BTreeMap<TimelineId, f64> = BTreeMap::new();
    for d in file.tree.query(TimeWindow::ALL) {
        match d {
            Drawable::State(s) if Some(s.category) == compute => {
                compute_start
                    .entry(s.timeline)
                    .and_modify(|t| *t = t.min(s.start))
                    .or_insert(s.start);
            }
            Drawable::Event(e) if Some(e.category) == arrival => {
                first_arrival
                    .entry(e.timeline)
                    .and_modify(|t| *t = t.min(e.time))
                    .or_insert(e.time);
            }
            _ => {}
        }
    }
    compute_start
        .into_iter()
        .filter_map(|(tl, start)| first_arrival.get(&tl).map(|&a| (tl, (a - start).max(0.0))))
        .collect()
}

// ---- critical ----------------------------------------------------------

fn blocked_intervals(file: &Slog2File, map: &CategoryMap) -> BTreeMap<TimelineId, Vec<(f64, f64)>> {
    let read = map.id(WellKnownCategory::PiRead);
    let select = map.id(WellKnownCategory::PiSelect);
    let mut out: BTreeMap<TimelineId, Vec<(f64, f64)>> = BTreeMap::new();
    for d in file.tree.query(TimeWindow::ALL) {
        if let Drawable::State(s) = d {
            if (Some(s.category) == read || Some(s.category) == select)
                && s.start.is_finite()
                && s.end.is_finite()
                && s.start <= s.end
            {
                out.entry(s.timeline).or_default().push((s.start, s.end));
            }
        }
    }
    for iv in out.values_mut() {
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    out
}

fn finite_arrows(file: &Slog2File) -> Vec<(TimelineId, TimelineId, f64, f64, u32)> {
    let mut arrows = Vec::new();
    for d in file.tree.query(TimeWindow::ALL) {
        if let Drawable::Arrow(a) = d {
            if a.start.is_finite() && a.end.is_finite() && a.start <= a.end {
                arrows.push((a.from_timeline, a.to_timeline, a.start, a.end, a.tag));
            }
        }
    }
    arrows.sort_by(|a, b| {
        a.3.total_cmp(&b.3)
            .then(a.2.total_cmp(&b.2))
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
            .then(a.4.cmp(&b.4))
    });
    arrows
}

pub fn attribute_blocks(file: &Slog2File) -> Vec<BlockAttribution> {
    let map = file.category_map();
    let arrows = finite_arrows(file);
    let mut out = Vec::new();
    for (tl, blocks) in blocked_intervals(file, &map) {
        for (s, e) in blocks {
            let released_by = arrows
                .iter()
                .find(|&&(_, to, _, recv, _)| to == tl && recv >= s && recv <= e)
                .map(|&(from, _, send_time, recv_time, tag)| ReleasingSend {
                    from,
                    send_time,
                    recv_time,
                    tag,
                });
            out.push(BlockAttribution {
                timeline: tl,
                start: s,
                end: e,
                released_by,
            });
        }
    }
    out
}

pub fn critical_path(file: &Slog2File) -> CriticalPath {
    let map = file.category_map();
    let blocks = blocked_intervals(file, &map);
    let has_block_categories = map.id(WellKnownCategory::PiRead).is_some()
        || map.id(WellKnownCategory::PiSelect).is_some();

    let mut t_start = f64::INFINITY;
    let mut t_end = f64::NEG_INFINITY;
    let mut end_tl: Option<TimelineId> = None;
    for d in file.tree.query(TimeWindow::ALL) {
        let (s, e) = (d.start(), d.end());
        if !s.is_finite() || !e.is_finite() {
            continue;
        }
        t_start = t_start.min(s);
        if e > t_end {
            t_end = e;
            end_tl = Some(match d {
                Drawable::State(st) => st.timeline,
                Drawable::Event(ev) => ev.timeline,
                Drawable::Arrow(a) => a.to_timeline,
            });
        }
    }
    let Some(mut tl) = end_tl else {
        return CriticalPath {
            t_start: file.range.t0,
            t_end: file.range.t0,
            ..Default::default()
        };
    };

    let mut releases: BTreeMap<TimelineId, Vec<(f64, f64, TimelineId, u32)>> = BTreeMap::new();
    for (from, to, send, recv, tag) in finite_arrows(file) {
        let is_release = !has_block_categories
            || blocks
                .get(&to)
                .is_some_and(|iv| iv.iter().any(|&(s, e)| recv >= s && recv <= e));
        if is_release {
            releases
                .entry(to)
                .or_default()
                .push((recv, send, from, tag));
        }
    }

    let mut path = CriticalPath {
        t_start,
        t_end,
        ..Default::default()
    };
    let mut cur = t_end;
    loop {
        let jump = releases.get(&tl).and_then(|rs| {
            rs.iter()
                .filter(|&&(recv, send, _, _)| recv <= cur && send < cur && recv > t_start)
                .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)))
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

// ---- verdict -----------------------------------------------------------

pub fn diagnose(file: &Slog2File, workload: &str) -> Diagnosis {
    let cp = critical_path(file);
    let makespan = cp.makespan();
    let workers = worker_timelines(file);
    let mut verdicts = Vec::new();

    if makespan > 0.0 {
        if let Some(v) = detect_serialized_phase(file, &workers, makespan) {
            verdicts.push(v);
        }
        if let Some(v) = detect_late_producer(file, &workers, makespan) {
            verdicts.push(v);
        }
        if let Some(v) = detect_load_imbalance(file, &workers, makespan) {
            verdicts.push(v);
        }
        if let Some(v) = detect_dominance(file, &cp) {
            verdicts.push(v);
        }
    }

    let mut share: Vec<(TimelineId, f64)> = cp.seconds_per_timeline().into_iter().collect();
    share.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Diagnosis {
        workload: workload.to_string(),
        makespan,
        critical_path_length: cp.length(),
        critical_share: share,
        verdicts,
    }
}

fn detect_serialized_phase(
    file: &Slog2File,
    workers: &[TimelineId],
    makespan: f64,
) -> Option<Verdict> {
    let busy: BTreeMap<TimelineId, Vec<(f64, f64)>> = workers
        .iter()
        .map(|&tl| (tl, busy_intervals(file, tl)))
        .collect();
    let mut events: Vec<(f64, i32)> = Vec::new();
    let mut t_end = f64::NEG_INFINITY;
    let mut t_begin = f64::INFINITY;
    for iv in busy.values() {
        for &(s, e) in iv {
            events.push((s, 1));
            events.push((e, -1));
            t_end = t_end.max(e);
            t_begin = t_begin.min(s);
        }
    }
    if !t_end.is_finite() {
        return None;
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut depth = 0;
    let mut last_multi = t_begin;
    let mut prev = t_begin;
    for (t, delta) in events {
        if depth >= 2 && t > prev {
            last_multi = t;
        }
        depth += delta;
        prev = t;
    }
    let window = TimeWindow::new(last_multi, t_end);
    if window.span() < SERIAL_PHASE_MIN_FRACTION * makespan {
        return None;
    }
    let mut per_worker: Vec<(TimelineId, f64)> = Vec::new();
    let mut turns = 0usize;
    for (&tl, iv) in &busy {
        let clipped: Vec<(f64, f64)> = iv
            .iter()
            .filter_map(|&(s, e)| {
                let (s, e) = (s.max(window.t0), e.min(window.t1));
                (s < e).then_some((s, e))
            })
            .collect();
        if !clipped.is_empty() {
            turns += clipped.len();
            per_worker.push((tl, total_seconds(&clipped)));
        }
    }
    if per_worker.len() < 2 || turns < per_worker.len() + 1 {
        return None;
    }
    let overlap = parallel_overlap(file, workers, Some(window));
    if overlap >= SERIAL_PHASE_MAX_OVERLAP {
        return None;
    }
    let total: f64 = per_worker.iter().map(|(_, s)| s).sum();
    let max_single = per_worker.iter().map(|(_, s)| *s).fold(0.0, f64::max);
    per_worker.sort_by_key(|(tl, _)| *tl);
    let mut detail = format!(
        "workers take turns in [{:.3}s, {:.3}s]: parallel overlap {:.4} across {} busy stretches",
        window.t0, window.t1, overlap, turns
    );
    let _ = write!(
        detail,
        "; {:.3}s of work could have run in parallel",
        total - max_single
    );
    Some(Verdict {
        kind: VerdictKind::SerializedPhase,
        window,
        timelines: per_worker.iter().map(|(tl, _)| *tl).collect(),
        blamed: None,
        recoverable_seconds: total - max_single,
        detail,
    })
}

fn detect_late_producer(
    file: &Slog2File,
    workers: &[TimelineId],
    makespan: f64,
) -> Option<Verdict> {
    let idle = idle_until_first_arrival(file);
    let implicated: Vec<(TimelineId, f64)> = workers
        .iter()
        .filter_map(|&tl| {
            idle.get(&tl)
                .copied()
                .filter(|&w| w >= LATE_PRODUCER_MIN_FRACTION * makespan)
                .map(|w| (tl, w))
        })
        .collect();
    if implicated.is_empty() {
        return None;
    }
    let attribution = attribute_blocks(file);
    let mut votes: BTreeMap<TimelineId, usize> = BTreeMap::new();
    for (tl, _) in &implicated {
        if let Some(r) = attribution
            .iter()
            .filter(|b| b.timeline == *tl)
            .find_map(|b| b.released_by)
        {
            *votes.entry(r.from).or_insert(0) += 1;
        }
    }
    let blamed = votes
        .into_iter()
        .max_by_key(|&(tl, n)| (n, std::cmp::Reverse(tl)))
        .map(|(tl, _)| tl);
    let recoverable = implicated
        .iter()
        .map(|(_, w)| *w)
        .fold(f64::INFINITY, f64::min);
    let window_end = implicated.iter().map(|(_, w)| *w).fold(0.0, f64::max);
    let producer = blamed
        .and_then(|b| file.timeline_name(b))
        .unwrap_or("an unidentified producer");
    let detail = format!(
        "{} consumer(s) idle {:.3}s+ before their first message arrival while {} initializes",
        implicated.len(),
        recoverable,
        producer
    );
    Some(Verdict {
        kind: VerdictKind::LateProducer,
        window: TimeWindow::new(file.range.t0, file.range.t0 + window_end),
        timelines: implicated.iter().map(|(tl, _)| *tl).collect(),
        blamed,
        recoverable_seconds: recoverable,
        detail,
    })
}

fn detect_load_imbalance(
    file: &Slog2File,
    workers: &[TimelineId],
    makespan: f64,
) -> Option<Verdict> {
    let loads: Vec<(TimelineId, f64)> = workers
        .iter()
        .map(|&tl| (tl, total_seconds(&busy_intervals(file, tl))))
        .collect();
    if loads.len() < 2 {
        return None;
    }
    let (max_tl, max_busy) = loads
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let min_busy = loads.iter().map(|(_, b)| *b).fold(f64::INFINITY, f64::min);
    let mean: f64 = loads.iter().map(|(_, b)| b).sum::<f64>() / loads.len() as f64;
    let waste = max_busy - mean;
    let ratio = if min_busy > 0.0 {
        max_busy / min_busy
    } else if max_busy > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    if ratio < LOAD_IMBALANCE_MIN_RATIO || waste < LOAD_IMBALANCE_MIN_WASTE_FRACTION * makespan {
        return None;
    }
    let detail = format!(
        "busiest worker carries {max_busy:.3}s vs a minimum of {min_busy:.3}s (ratio {ratio:.2}); \
         rebalancing recovers up to {waste:.3}s"
    );
    Some(Verdict {
        kind: VerdictKind::LoadImbalance,
        window: file.range,
        timelines: workers.to_vec(),
        blamed: Some(max_tl),
        recoverable_seconds: waste,
        detail,
    })
}

fn detect_dominance(file: &Slog2File, cp: &CriticalPath) -> Option<Verdict> {
    if file.timelines.len() < 2 || cp.length() <= 0.0 {
        return None;
    }
    let share = cp.seconds_per_timeline();
    let (&tl, &secs) = share
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))?;
    let frac = secs / cp.length();
    if frac < DOMINANCE_MIN_SHARE {
        return None;
    }
    let fair = cp.length() / file.timelines.len() as f64;
    let detail = format!(
        "{} carries {:.1}% of the critical path ({secs:.3}s of {:.3}s)",
        file.timeline_name(tl).unwrap_or("?"),
        frac * 100.0,
        cp.length()
    );
    Some(Verdict {
        kind: VerdictKind::CriticalRankDominance,
        window: TimeWindow::new(cp.t_start, cp.t_end),
        timelines: vec![tl],
        blamed: Some(tl),
        recoverable_seconds: (secs - fair).max(0.0),
        detail,
    })
}

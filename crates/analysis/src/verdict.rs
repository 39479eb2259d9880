//! Automated bottleneck verdicts.
//!
//! The paper's instructor reads the timeline picture and pronounces a
//! diagnosis ("your queries are serialized", "your workers wait 11
//! seconds for the master"). This module turns those readings into
//! machine-checkable verdicts over the same evidence: each verdict
//! names its time window, the implicated timelines, and an estimate of
//! the seconds a fix could recover, so a grader — or a CI job — can
//! assert on them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use slog2::{Slog2File, TimeWindow, TimelineId};

use crate::critical::CriticalPath;
use crate::intervals::total_seconds;
use crate::TraceAnalyzer;

/// A serialized phase fires only when the serial tail covers at least
/// this fraction of the makespan.
pub const SERIAL_PHASE_MIN_FRACTION: f64 = 0.2;
/// Parallel-overlap ceiling for a phase to count as serialized.
pub const SERIAL_PHASE_MAX_OVERLAP: f64 = 0.05;
/// A late producer fires when consumers idle at least this fraction of
/// the makespan before their first arrival.
pub const LATE_PRODUCER_MIN_FRACTION: f64 = 0.4;
/// Busy-seconds ratio (max/min) above which load is imbalanced.
pub const LOAD_IMBALANCE_MIN_RATIO: f64 = 1.5;
/// Imbalance must also waste at least this fraction of the makespan.
pub const LOAD_IMBALANCE_MIN_WASTE_FRACTION: f64 = 0.05;
/// Critical-path share above which one rank dominates.
pub const DOMINANCE_MIN_SHARE: f64 = 0.6;

/// The bottleneck patterns the engine can convict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerdictKind {
    /// A phase in which the workers alternate instead of overlapping —
    /// the paper's instance A.
    SerializedPhase,
    /// Consumers idle for a long stretch until one producer's first
    /// send — the paper's instance B ("11 seconds of initialization").
    LateProducer,
    /// One worker carries far more busy seconds than another.
    LoadImbalance,
    /// A single rank carries most of the critical path.
    CriticalRankDominance,
}

impl VerdictKind {
    /// Stable wire name (used in `DIAGNOSIS.json`).
    pub const fn name(self) -> &'static str {
        match self {
            VerdictKind::SerializedPhase => "SerializedPhase",
            VerdictKind::LateProducer => "LateProducer",
            VerdictKind::LoadImbalance => "LoadImbalance",
            VerdictKind::CriticalRankDominance => "CriticalRankDominance",
        }
    }
}

impl std::fmt::Display for VerdictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One conviction.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The pattern found.
    pub kind: VerdictKind,
    /// When it happens.
    pub window: TimeWindow,
    /// The timelines suffering from it.
    pub timelines: Vec<TimelineId>,
    /// The timeline causing it, when one can be named.
    pub blamed: Option<TimelineId>,
    /// Estimated seconds a fix could recover.
    pub recoverable_seconds: f64,
    /// Human-readable evidence.
    pub detail: String,
}

/// The complete diagnosis of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Which workload the trace came from.
    pub workload: String,
    /// Run duration (seconds).
    pub makespan: f64,
    /// Weighted critical-path length (equals the makespan).
    pub critical_path_length: f64,
    /// Per-timeline critical-path seconds, densest first.
    pub critical_share: Vec<(TimelineId, f64)>,
    /// Convictions, in fixed detection order.
    pub verdicts: Vec<Verdict>,
}

impl Diagnosis {
    /// Does any verdict of this kind appear?
    pub fn has(&self, kind: VerdictKind) -> bool {
        self.verdicts.iter().any(|v| v.kind == kind)
    }

    /// The first verdict of this kind.
    pub fn verdict(&self, kind: VerdictKind) -> Option<&Verdict> {
        self.verdicts.iter().find(|v| v.kind == kind)
    }

    /// Serialize deterministically as pretty JSON (two-space indent,
    /// insertion-ordered keys, shortest round-trip floats; non-finite
    /// numbers become `null`).
    pub fn to_json(&self, file: &Slog2File) -> String {
        let mut out = String::new();
        let name = |tl: TimelineId| file.timeline_name(tl).unwrap_or("?").to_string();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"workload\": {},", json_str(&self.workload));
        let _ = writeln!(out, "  \"makespan_seconds\": {},", json_num(self.makespan));
        let _ = writeln!(
            out,
            "  \"critical_path_seconds\": {},",
            json_num(self.critical_path_length)
        );
        out.push_str("  \"critical_share\": [\n");
        for (i, (tl, secs)) in self.critical_share.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"timeline\": {}, \"name\": {}, \"seconds\": {}}}",
                tl,
                json_str(&name(*tl)),
                json_num(*secs)
            );
            out.push_str(if i + 1 < self.critical_share.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"verdicts\": [\n");
        for (i, v) in self.verdicts.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"kind\": {},", json_str(v.kind.name()));
            let _ = writeln!(
                out,
                "      \"window\": {{\"t0\": {}, \"t1\": {}}},",
                json_num(v.window.t0),
                json_num(v.window.t1)
            );
            let tls: Vec<String> = v.timelines.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(out, "      \"timelines\": [{}],", tls.join(", "));
            match v.blamed {
                Some(b) => {
                    let _ = writeln!(
                        out,
                        "      \"blamed\": {{\"timeline\": {}, \"name\": {}}},",
                        b,
                        json_str(&name(b))
                    );
                }
                None => {
                    let _ = writeln!(out, "      \"blamed\": null,");
                }
            }
            let _ = writeln!(
                out,
                "      \"recoverable_seconds\": {},",
                json_num(v.recoverable_seconds)
            );
            let _ = writeln!(out, "      \"detail\": {}", json_str(&v.detail));
            out.push_str("    }");
            out.push_str(if i + 1 < self.verdicts.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Which timelines are the "workers" — everything except `PI_MAIN`
/// (all of them when no timeline carries that name).
pub fn worker_timelines(file: &Slog2File) -> Vec<TimelineId> {
    let workers: Vec<TimelineId> = file
        .timeline_ids()
        .filter(|&tl| file.timeline_name(tl) != Some("PI_MAIN"))
        .collect();
    if workers.len() == file.timelines.len() || workers.is_empty() {
        file.timeline_ids().collect()
    } else {
        workers
    }
}

/// Run every detector over `file` and assemble the [`Diagnosis`].
pub fn diagnose(file: &Slog2File, workload: &str) -> Diagnosis {
    TraceAnalyzer::new(file).diagnose(workload)
}

impl TraceAnalyzer<'_> {
    /// Run every detector and assemble the diagnosis.
    pub fn diagnose(&self, workload: &str) -> Diagnosis {
        let file = self.file();
        let cp = self.critical_path();
        let makespan = cp.makespan();
        let workers = worker_timelines(file);
        let mut verdicts = Vec::new();

        if makespan > 0.0 {
            if let Some(v) = detect_serialized_phase(self, &workers, makespan) {
                verdicts.push(v);
            }
            if let Some(v) = detect_late_producer(self, &workers, makespan) {
                verdicts.push(v);
            }
            if let Some(v) = detect_load_imbalance(self, &workers, makespan) {
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
}

fn detect_serialized_phase(
    az: &TraceAnalyzer,
    workers: &[TimelineId],
    makespan: f64,
) -> Option<Verdict> {
    // Sweep worker busy intervals for the last instant two of them
    // overlap; everything after is the serial tail.
    let busy: BTreeMap<TimelineId, &[(f64, f64)]> = workers
        .iter()
        .map(|&tl| (tl, az.index().busy(tl)))
        .collect();
    let mut events: Vec<(f64, i32)> = Vec::new();
    let mut t_end = f64::NEG_INFINITY;
    let mut t_begin = f64::INFINITY;
    for iv in busy.values() {
        for &(s, e) in *iv {
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
    // At least two distinct workers must take turns inside the window,
    // and their overlap there must be ~zero.
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
    let overlap = az.parallel_overlap(workers, Some(window));
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
    az: &TraceAnalyzer,
    workers: &[TimelineId],
    makespan: f64,
) -> Option<Verdict> {
    let (file, ix) = (az.file(), az.index());
    let idle = az.idle_until_first_arrival();
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
    // Blame the sender that eventually released each implicated
    // worker's first explained wait; majority wins.
    let mut votes: BTreeMap<TimelineId, usize> = BTreeMap::new();
    for &(tl, _) in &implicated {
        let blocks = ix.lane(tl).map_or(&[][..], |l| &l.blocks);
        if let Some(r) = blocks
            .iter()
            .find_map(|&(s, e)| ix.releasing_send(tl, s, e))
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
    az: &TraceAnalyzer,
    workers: &[TimelineId],
    makespan: f64,
) -> Option<Verdict> {
    let loads: Vec<(TimelineId, f64)> = workers
        .iter()
        .map(|&tl| (tl, total_seconds(az.index().busy(tl))))
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
        window: az.file().range,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::parallel_overlap;
    use crate::fixtures::{file_with, instance_a, instance_b, state};

    #[test]
    fn instance_a_is_convicted_of_serialization() {
        let f = instance_a();
        let d = diagnose(&f, "instance-a");
        let v = d.verdict(VerdictKind::SerializedPhase).expect("verdict");
        assert_eq!(v.timelines.len(), 4);
        assert!(v.recoverable_seconds > 5.0, "{v:?}");
        // The serial window covers the query phase and overlap is ~0.
        let workers = worker_timelines(&f);
        assert!(parallel_overlap(&f, &workers, Some(v.window)) < 0.05);
        // No late producer: the chunks go out early.
        assert!(!d.has(VerdictKind::LateProducer), "{:?}", d.verdicts);
    }

    #[test]
    fn instance_b_is_convicted_of_late_production() {
        let d = diagnose(&instance_b(), "instance-b");
        let v = d.verdict(VerdictKind::LateProducer).expect("verdict");
        assert_eq!(v.blamed, Some(TimelineId(0))); // PI_MAIN
        assert!(v.recoverable_seconds >= 11.0, "{v:?}");
        assert!(!d.has(VerdictKind::SerializedPhase), "{:?}", d.verdicts);
        // The master also dominates the critical path.
        let dom = d.verdict(VerdictKind::CriticalRankDominance).expect("dom");
        assert_eq!(dom.blamed, Some(TimelineId(0)));
    }

    #[test]
    fn load_imbalance_fires_on_skewed_busy_time() {
        let f = file_with(vec![
            state(0, 1, 0.0, 9.0),
            state(0, 2, 0.0, 2.0),
            state(0, 3, 0.0, 2.0),
            state(0, 4, 0.0, 2.0),
        ]);
        let d = diagnose(&f, "skew");
        let v = d.verdict(VerdictKind::LoadImbalance).expect("verdict");
        assert_eq!(v.blamed, Some(TimelineId(1)));
        assert!(v.recoverable_seconds > 4.0, "{v:?}");
    }

    #[test]
    fn balanced_parallel_run_is_acquitted() {
        let f = file_with(vec![
            state(0, 1, 0.0, 5.0),
            state(0, 2, 0.0, 5.0),
            state(0, 3, 0.0, 5.0),
            state(0, 4, 0.0, 5.0),
        ]);
        let d = diagnose(&f, "clean");
        assert!(
            !d.has(VerdictKind::SerializedPhase) && !d.has(VerdictKind::LoadImbalance),
            "{:?}",
            d.verdicts
        );
    }

    #[test]
    fn json_is_deterministic_and_parseable_shape() {
        let f = instance_b();
        let d = diagnose(&f, "instance-b");
        let a = d.to_json(&f);
        let b = diagnose(&f, "instance-b").to_json(&f);
        assert_eq!(a, b);
        assert!(a.contains("\"kind\": \"LateProducer\""));
        assert!(a.contains("\"name\": \"PI_MAIN\""));
        assert!(a.contains("\"recoverable_seconds\""));
        assert!(a.trim_start().starts_with('{') && a.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_trace_yields_no_verdicts() {
        let f = file_with(vec![]);
        let d = diagnose(&f, "empty");
        assert!(d.verdicts.is_empty());
        assert_eq!(d.makespan, 0.0);
    }
}

//! Verdict-level diffing and per-phase measurements.
//!
//! The before and after traces are each diagnosed by the `analysis`
//! engine; this module matches the two verdict lists by kind and
//! pronounces every detected issue [`DeltaVerdict::Fixed`],
//! [`DeltaVerdict::Regressed`], or [`DeltaVerdict::Unchanged`], with
//! the recoverable-seconds delta as evidence. It also measures each
//! issue's window on both sides (parallel overlap, busy, blocked), so
//! the report can show "overlap 0.02 → 0.97" for a de-serialized
//! query phase.

use analysis::{worker_timelines, Diagnosis, TraceAnalyzer, VerdictKind};
use slog2::{Slog2File, TimeWindow};

/// A recoverable-seconds change within this fraction of the before
/// value counts as noise, not a fix or regression.
pub const UNCHANGED_REL_TOL: f64 = 0.10;
/// Absolute floor for the same tolerance, seconds.
pub const UNCHANGED_ABS_TOL_S: f64 = 0.05;

/// Detection order — fixed, so reports are deterministic.
pub const KINDS: [VerdictKind; 4] = [
    VerdictKind::SerializedPhase,
    VerdictKind::LateProducer,
    VerdictKind::LoadImbalance,
    VerdictKind::CriticalRankDominance,
];

/// What happened to one issue between the two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaVerdict {
    /// Gone after, or recoverable seconds dropped beyond tolerance.
    Fixed,
    /// New after, or recoverable seconds grew beyond tolerance.
    Regressed,
    /// Present on both sides with ~equal recoverable seconds (or a
    /// bench metric inside the gate threshold).
    Unchanged,
}

impl DeltaVerdict {
    /// Stable wire name (used in `DIFF.json` / `BENCH_DIFF.json`).
    pub const fn name(self) -> &'static str {
        match self {
            DeltaVerdict::Fixed => "Fixed",
            DeltaVerdict::Regressed => "Regressed",
            DeltaVerdict::Unchanged => "Unchanged",
        }
    }
}

impl std::fmt::Display for DeltaVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One issue's fate across the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct IssueDiff {
    /// Which detector.
    pub kind: VerdictKind,
    /// The pronouncement.
    pub verdict: DeltaVerdict,
    /// Recoverable seconds before (None = not detected).
    pub recoverable_before: Option<f64>,
    /// Recoverable seconds after (None = not detected).
    pub recoverable_after: Option<f64>,
    /// `before - after` recoverable seconds (positive = improvement;
    /// a missing side counts as zero).
    pub recovered_seconds: f64,
    /// Human-readable evidence.
    pub detail: String,
}

/// Match the two diagnoses' verdicts by kind and judge each.
pub fn diff_issues(before: &Diagnosis, after: &Diagnosis) -> Vec<IssueDiff> {
    let mut out = Vec::new();
    for kind in KINDS {
        let vb = before.verdict(kind);
        let va = after.verdict(kind);
        let issue = match (vb, va) {
            (None, None) => continue,
            (Some(b), None) => IssueDiff {
                kind,
                verdict: DeltaVerdict::Fixed,
                recoverable_before: Some(b.recoverable_seconds),
                recoverable_after: None,
                recovered_seconds: b.recoverable_seconds,
                detail: format!("present before ({}); absent after", b.detail),
            },
            (None, Some(a)) => IssueDiff {
                kind,
                verdict: DeltaVerdict::Regressed,
                recoverable_before: None,
                recoverable_after: Some(a.recoverable_seconds),
                recovered_seconds: -a.recoverable_seconds,
                detail: format!("absent before; new after ({})", a.detail),
            },
            (Some(b), Some(a)) => {
                let d = b.recoverable_seconds - a.recoverable_seconds;
                let tol = UNCHANGED_ABS_TOL_S.max(UNCHANGED_REL_TOL * b.recoverable_seconds);
                let verdict = if d.abs() <= tol {
                    DeltaVerdict::Unchanged
                } else if d > 0.0 {
                    DeltaVerdict::Fixed
                } else {
                    DeltaVerdict::Regressed
                };
                let detail = format!(
                    "present on both sides: recoverable {:.3}s -> {:.3}s{}",
                    b.recoverable_seconds,
                    a.recoverable_seconds,
                    if verdict == DeltaVerdict::Fixed {
                        " (partially fixed, still detected)"
                    } else {
                        ""
                    }
                );
                IssueDiff {
                    kind,
                    verdict,
                    recoverable_before: Some(b.recoverable_seconds),
                    recoverable_after: Some(a.recoverable_seconds),
                    recovered_seconds: d,
                    detail,
                }
            }
        };
        out.push(issue);
    }
    out
}

/// One phase (the whole run, or one detected issue's window) measured
/// on both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// `"whole-run"` or a `VerdictKind` name.
    pub label: String,
    /// The before-side window (None = issue absent there; metrics
    /// then cover the whole range).
    pub window_before: Option<TimeWindow>,
    /// Same for the after side.
    pub window_after: Option<TimeWindow>,
    /// Worker parallel-overlap fraction, `(before, after)`.
    pub overlap: (f64, f64),
    /// Total worker busy seconds inside the window.
    pub busy_s: (f64, f64),
    /// Total worker blocked seconds inside the window.
    pub blocked_s: (f64, f64),
}

/// `(overlap, busy, blocked)` of the workers within `w` (whole range
/// when `None`).
fn lane_metrics(az: &TraceAnalyzer, w: Option<TimeWindow>) -> (f64, f64, f64) {
    let (file, ix) = (az.file(), az.index());
    let workers = worker_timelines(file);
    let window = w.unwrap_or(file.range);
    let overlap = az.parallel_overlap(&workers, Some(window));
    let mut busy = 0.0;
    let mut blocked = 0.0;
    let stats = jumpshot::duration_stats(file, window);
    let read = file.category_by_name("PI_Read").map(|c| c.index);
    let select = file.category_by_name("PI_Select").map(|c| c.index);
    for &tl in &workers {
        for &(s, e) in ix.busy(tl) {
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

/// Build the phase table: the whole run first, then one row per issue
/// kind either diagnosis detected, each side measured over its own
/// verdict window.
pub fn measure_phases(
    before: &Slog2File,
    after: &Slog2File,
    diag_before: &Diagnosis,
    diag_after: &Diagnosis,
) -> Vec<PhaseDelta> {
    measure_phases_indexed(
        &TraceAnalyzer::new(before),
        &TraceAnalyzer::new(after),
        diag_before,
        diag_after,
    )
}

/// [`measure_phases`] over the two sides' analyzers.
pub(crate) fn measure_phases_indexed(
    before: &TraceAnalyzer,
    after: &TraceAnalyzer,
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
        Some(before.file().range),
        Some(after.file().range),
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

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::fixtures::{instance_a, instance_fixed};

    #[test]
    fn a_vs_fixed_pronounces_serialized_phase_fixed() {
        let a = instance_a();
        let fixed = instance_fixed();
        let da = TraceAnalyzer::new(&a).diagnose("a");
        let df = TraceAnalyzer::new(&fixed).diagnose("fixed");
        let issues = diff_issues(&da, &df);
        let sp = issues
            .iter()
            .find(|i| i.kind == VerdictKind::SerializedPhase)
            .expect("SerializedPhase issue");
        assert_eq!(sp.verdict, DeltaVerdict::Fixed);
        assert!(sp.recovered_seconds > 0.0, "{sp:?}");
        assert!(sp.recoverable_after.is_none());
        // Nothing regressed.
        assert!(
            issues.iter().all(|i| i.verdict != DeltaVerdict::Regressed),
            "{issues:?}"
        );
    }

    #[test]
    fn reversed_direction_regresses() {
        let a = instance_a();
        let fixed = instance_fixed();
        let da = TraceAnalyzer::new(&a).diagnose("a");
        let df = TraceAnalyzer::new(&fixed).diagnose("fixed");
        let issues = diff_issues(&df, &da);
        assert!(issues.iter().any(|i| i.kind == VerdictKind::SerializedPhase
            && i.verdict == DeltaVerdict::Regressed
            && i.recovered_seconds < 0.0));
    }

    #[test]
    fn self_diff_is_unchanged() {
        let a = instance_a();
        let d = TraceAnalyzer::new(&a).diagnose("a");
        let issues = diff_issues(&d, &d);
        assert!(!issues.is_empty());
        for i in &issues {
            assert_eq!(i.verdict, DeltaVerdict::Unchanged, "{i:?}");
            assert_eq!(i.recovered_seconds, 0.0);
        }
    }

    #[test]
    fn phases_show_overlap_recovered() {
        let a = instance_a();
        let fixed = instance_fixed();
        let da = TraceAnalyzer::new(&a).diagnose("a");
        let df = TraceAnalyzer::new(&fixed).diagnose("fixed");
        let phases = measure_phases(&a, &fixed, &da, &df);
        assert_eq!(phases[0].label, "whole-run");
        let sp = phases
            .iter()
            .find(|p| p.label == "SerializedPhase")
            .expect("phase row");
        // Before: the serialized window has ~zero overlap. After: the
        // same issue is absent, so the whole (parallel) run is measured.
        assert!(sp.overlap.0 < 0.05, "{sp:?}");
        assert!(sp.overlap.1 > 0.5, "{sp:?}");
        assert!(sp.window_after.is_none());
    }
}

//! Alignment and diff edge cases: empty traces, rank-count
//! mismatches, identical-trace self-diffs, and salvaged torn logs
//! diffed against their clean counterparts.

use analysis::fixtures::{arrow, file_with, instance_a, instance_b, state};
use diff::{align, diff_traces, DeltaVerdict};
use mpelog::Color;
use slog2::{
    Category, CategoryId, CategoryKind, Drawable, FrameTree, Slog2File, StateDrawable, TimeWindow,
    TimelineId,
};

#[test]
fn empty_vs_empty_diff_is_quiet_and_deterministic() {
    let a = file_with(vec![]);
    let b = file_with(vec![]);
    let d = diff_traces(&a, &b, ("empty-a", "empty-b"));
    assert!(d.issues.is_empty());
    assert_eq!(d.makespan_delta(), 0.0);
    assert_eq!(d.delta.drawables, (0, 0));
    for td in &d.delta.timelines {
        assert_eq!(td.busy_s, (0.0, 0.0));
        assert_eq!(td.blocked_s, (0.0, 0.0));
        assert!(td.states.is_empty());
        // Two empty sequences are perfectly similar.
        assert_eq!(td.similarity, 1.0);
    }
    assert_eq!(
        diff_traces(&a, &b, ("empty-a", "empty-b")).to_json(),
        d.to_json()
    );
}

/// A three-timeline file (PI_MAIN + two workers) for rank-count
/// mismatch tests.
fn three_rank_file() -> Slog2File {
    let full = file_with(vec![
        state(0, 0, 0.0, 5.0),
        state(0, 1, 0.0, 5.0),
        state(0, 2, 0.0, 5.0),
        arrow(0, 1, 1.0, 1.1, 7),
    ]);
    let ds: Vec<Drawable> = full
        .tree
        .query(TimeWindow::ALL)
        .into_iter()
        .cloned()
        .collect();
    Slog2File {
        timelines: vec!["PI_MAIN".into(), "W0".into(), "W1".into()],
        categories: full.categories.clone(),
        range: full.range,
        warnings: vec![],
        tree: FrameTree::build(ds, full.range.t0, full.range.t1, 32, 8),
    }
}

#[test]
fn rank_count_mismatch_pairs_by_name_and_reports_leftovers() {
    let five = instance_a();
    let three = three_rank_file();
    let al = align(&five, &three);
    assert_eq!(al.pairs.len(), 5);
    assert_eq!(al.unmatched_before(), 2); // W2, W3 have no partner
    assert_eq!(al.unmatched_after(), 0);
    for name in ["PI_MAIN", "W0", "W1"] {
        let p = al.pairs.iter().find(|p| p.name == name).unwrap();
        assert!(p.before.is_some() && p.after.is_some(), "{p:?}");
    }
    // The full diff still runs without panicking and stays deterministic.
    let d = diff_traces(&five, &three, ("five", "three"));
    assert_eq!(
        d.to_json(),
        diff_traces(&five, &three, ("five", "three")).to_json()
    );
    let w3 = d.delta.timelines.iter().find(|t| t.name == "W3").unwrap();
    assert!(w3.after.is_none());
    assert_eq!(w3.busy_s.1, 0.0);
}

#[test]
fn self_diff_has_exactly_zero_deltas_and_identical_json() {
    let a = instance_a();
    let d = diff_traces(&a, &a, ("a", "a"));
    assert_eq!(d.makespan_delta(), 0.0);
    for td in &d.delta.timelines {
        assert_eq!(td.busy_s.0, td.busy_s.1);
        assert_eq!(td.blocked_s.0, td.blocked_s.1);
        assert_eq!(td.sent.0, td.sent.1);
        assert_eq!(td.received.0, td.received.1);
        assert_eq!(td.similarity, 1.0);
        for c in &td.states {
            assert_eq!(c.delta_s(), 0.0, "{c:?}");
        }
    }
    for i in &d.issues {
        assert_eq!(i.verdict, DeltaVerdict::Unchanged, "{i:?}");
        assert_eq!(i.recovered_seconds, 0.0);
    }
    // Byte-identical across runs.
    assert_eq!(d.to_json(), diff_traces(&a, &a, ("a", "a")).to_json());
}

/// Clone `instance_b` and append a salvaged `ABORTED` tail on W3, the
/// shape salvage conversion (`TornPolicy::Salvage`) produces for a torn log.
fn torn_instance_b() -> Slog2File {
    let clean = instance_b();
    let mut categories = clean.categories.clone();
    let aborted = CategoryId(categories.len() as u32);
    categories.push(Category {
        index: aborted,
        name: "ABORTED".into(),
        color: Color::RED,
        kind: CategoryKind::State,
    });
    let mut ds: Vec<Drawable> = clean
        .tree
        .query(TimeWindow::ALL)
        .into_iter()
        .cloned()
        .collect();
    ds.push(Drawable::State(StateDrawable {
        category: aborted,
        timeline: TimelineId(4),
        start: 14.0,
        end: clean.range.t1,
        nest_level: 0,
        text: "rank aborted".into(),
    }));
    Slog2File {
        timelines: clean.timelines.clone(),
        categories,
        range: clean.range,
        warnings: vec!["torn tail salvaged".into()],
        tree: FrameTree::build(ds, clean.range.t0, clean.range.t1, 32, 8),
    }
}

#[test]
fn torn_log_diffs_against_clean_counterpart() {
    let clean = instance_b();
    let torn = torn_instance_b();
    let al = align(&clean, &torn);
    let w3 = al.pairs.iter().find(|p| p.name == "W3").unwrap();
    assert!(w3.truncated_after, "{w3:?}");
    assert!(!w3.truncated_before);
    // The terminal state is excluded from the similarity sequence, so
    // the rest of the timeline still matches perfectly.
    assert_eq!(w3.similarity, 1.0, "{w3:?}");

    let d = diff_traces(&clean, &torn, ("clean", "torn"));
    let w3d = d.delta.timelines.iter().find(|t| t.name == "W3").unwrap();
    assert_eq!(w3d.truncated, (false, true));
    // The ABORTED state surfaces in the per-category table.
    let ab = w3d.states.iter().find(|c| c.category == "ABORTED").unwrap();
    assert_eq!(ab.before_s, 0.0);
    assert!(ab.after_s > 0.0);
    // Both sides still convict the late producer, at equal strength.
    let lp = d
        .issue(analysis::VerdictKind::LateProducer)
        .expect("late producer on both sides");
    assert_eq!(lp.verdict, DeltaVerdict::Unchanged);
    // And the JSON stays deterministic despite the torn tail.
    assert_eq!(
        d.to_json(),
        diff_traces(&clean, &torn, ("clean", "torn")).to_json()
    );
}

#[test]
fn side_by_side_render_survives_mismatched_ranks() {
    let five = instance_a();
    let three = three_rank_file();
    let al = align(&five, &three);
    let delta = diff::trace_delta(&five, &three, &al, (15.0, 5.0));
    for backend in ["svg", "ascii", "hist", "html"] {
        let (_, body) =
            diff::render_side_by_side(&five, &three, &delta, backend, 640).expect("backend");
        assert!(!body.is_empty(), "{backend}");
    }
}

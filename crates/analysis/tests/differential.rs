//! Differential tests: the indexed analyses against the per-call
//! reference copy in `tests/reference`, byte for byte.
//!
//! Results are compared through their `Debug` form, which prints every
//! float in shortest round-trip notation and keeps `-0.0` apart from
//! `0.0`, so "equal" here means bit-identical (NaN aside, which
//! prints as `NaN` whatever its payload).

mod reference;

use analysis::{fixtures, worker_timelines, TraceAnalyzer};
use proptest::prelude::*;
use reference::traces::spec;
use slog2::{CategoryId, Slog2File, TimeWindow, TimelineId};

/// Every analysis the index serves, against the reference.
fn assert_matches_reference(file: &Slog2File) {
    let az = TraceAnalyzer::new(file);
    let d = az.diagnose("diff");
    let want = reference::diagnose(file, "diff");
    prop_assert_eq!(d.to_json(file), want.to_json(file));
    prop_assert_eq!(format!("{d:?}"), format!("{want:?}"));
    prop_assert_eq!(
        format!("{:?}", az.critical_path()),
        format!("{:?}", reference::critical_path(file))
    );
    prop_assert_eq!(
        format!("{:?}", az.blocked_intervals()),
        format!("{:?}", reference::attribute_blocks(file))
    );
    prop_assert_eq!(
        format!("{:?}", az.idle_until_first_arrival()),
        format!("{:?}", reference::idle_until_first_arrival(file))
    );
    // One past the table: a timeline no drawable names.
    let tls: Vec<TimelineId> = (0..=file.timelines.len() as u32).map(TimelineId).collect();
    for &tl in &tls {
        prop_assert_eq!(
            format!("{:?}", az.busy_intervals(tl)),
            format!("{:?}", reference::busy_intervals(file, tl))
        );
        prop_assert_eq!(
            format!("{:?}", az.timeline_activity(tl)),
            format!("{:?}", reference::timeline_activity(file, tl))
        );
    }
    let workers = worker_timelines(file);
    let windows = [
        None,
        Some(file.range),
        Some(TimeWindow::new(1.0, 4.5)),
        Some(TimeWindow::new(2.0, 2.0)),
        Some(TimeWindow::ALL),
    ];
    for set in [
        &workers[..],
        &tls[..],
        &tls[..1],
        &[TimelineId(0), TimelineId(0)][..],
    ] {
        for w in windows {
            prop_assert_eq!(
                az.parallel_overlap(set, w).to_bits(),
                reference::parallel_overlap(file, set, w).to_bits(),
                "{set:?} {w:?}"
            );
        }
    }
    // The free functions are wrappers over the same index.
    prop_assert_eq!(
        format!("{:?}", analysis::critical_path(file)),
        format!("{:?}", reference::critical_path(file))
    );
    prop_assert_eq!(
        format!("{:?}", analysis::diagnose(file, "diff")),
        format!("{want:?}")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn indexed_analyses_match_the_reference(s in spec(5, 48)) {
        assert_matches_reference(&s.file());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// A malformed file whose `PI_Read` shares Compute's category
    /// index: such states count as Compute for the busy sweep and as
    /// blocks for attribution, exactly as in the reference.
    #[test]
    fn duplicate_category_indices_match_the_reference(s in spec(4, 40)) {
        let mut file = s.file();
        file.categories[1].index = CategoryId(0);
        assert_matches_reference(&file);
    }
}

#[test]
fn fixtures_match_the_reference() {
    for file in [
        fixtures::instance_a(),
        fixtures::instance_b(),
        fixtures::instance_fixed(),
    ] {
        assert_matches_reference(&file);
    }
}

//! Differential test: `diff_traces` (one indexed analyzer per side)
//! against the per-call reference copy in `tests/reference`, byte for
//! byte — the `DIFF.json` body and the full `Debug` form, which keeps
//! `-0.0` apart from `0.0`.

mod reference;

use analysis::fixtures;
use diff::{align, diff_traces, measure_phases, trace_delta};
use proptest::prelude::*;
use reference::analysis_ref::traces::spec;
use slog2::Slog2File;

fn assert_matches_reference(before: &Slog2File, after: &Slog2File) {
    let got = diff_traces(before, after, ("before", "after"));
    let want = reference::diff_traces(before, after, ("before", "after"));
    assert_eq!(got.to_json(), want.to_json());
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    // The public per-stage entry points are wrappers over the same
    // analyzers.
    let al = align(before, after);
    assert_eq!(format!("{al:?}"), format!("{:?}", want.alignment));
    assert_eq!(
        format!("{:?}", trace_delta(before, after, &al, want.delta.makespan)),
        format!("{:?}", want.delta)
    );
    assert_eq!(
        format!(
            "{:?}",
            measure_phases(before, after, &want.diag_before, &want.diag_after)
        ),
        format!("{:?}", want.phases)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn diff_matches_the_reference(b in spec(4, 40), a in spec(5, 40)) {
        assert_matches_reference(&b.file(), &a.file());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Past `MAX_SEQ_LEN` states on a timeline the alignment
    /// downsamples; the interned ranks must pick the same states.
    #[test]
    fn long_sequences_match_the_reference(b in spec(1, 12000), a in spec(2, 12000)) {
        assert_matches_reference(&b.file(), &a.file());
    }
}

#[test]
fn fixture_diffs_match_the_reference() {
    let files = [
        fixtures::instance_a(),
        fixtures::instance_b(),
        fixtures::instance_fixed(),
    ];
    for before in &files {
        for after in &files {
            assert_matches_reference(before, after);
        }
    }
}

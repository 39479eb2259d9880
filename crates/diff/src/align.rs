//! Timeline alignment between two traces.
//!
//! Two runs of the same program rarely produce byte-compatible traces:
//! ranks may be renamed, a rank count may differ (a fix that changes
//! the worker pool), and a crashed run carries a salvaged tail ending
//! in an `ABORTED` or `DEADLOCKED` terminal state. Alignment pairs
//! timelines by **name first**, then the leftovers **by position**,
//! and scores every pair with a longest-common-subsequence similarity
//! over the two category sequences — so a report can say "W2 before ≈
//! W2 after (0.93)" instead of silently comparing unrelated rows.

use std::collections::{BTreeMap, BTreeSet};

use analysis::TraceAnalyzer;
use slog2::{CategoryId, Slog2File, TimelineId};

/// Category sequences longer than this are stride-downsampled before
/// the `O(n·m)` LCS table is filled, bounding alignment cost for
/// full-size production traces. Similarity becomes approximate above
/// the cap — fine for a pairing score.
pub const MAX_SEQ_LEN: usize = 1024;

/// Terminal categories a salvaged torn log appends; they mark a
/// truncated timeline rather than real program behaviour, so they are
/// excluded from the similarity sequence.
const TERMINAL_CATEGORIES: [&str; 2] = ["ABORTED", "DEADLOCKED"];

/// One aligned row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedPair {
    /// Display name (the before-side name when both exist).
    pub name: String,
    /// Timeline in the before trace, if present.
    pub before: Option<TimelineId>,
    /// Timeline in the after trace, if present.
    pub after: Option<TimelineId>,
    /// `2·LCS/(n+m)` over the category sequences (1.0 when both are
    /// empty or the pair is one-sided-empty-vs-empty; 0.0 marks a
    /// one-sided pair).
    pub similarity: f64,
    /// The before side ends in a terminal (`ABORTED`/`DEADLOCKED`)
    /// state — a salvaged torn log.
    pub truncated_before: bool,
    /// Same for the after side.
    pub truncated_after: bool,
}

/// The full pairing of two traces' timelines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Alignment {
    /// All rows: matched pairs first (before-trace order), then
    /// after-only leftovers.
    pub pairs: Vec<AlignedPair>,
}

impl Alignment {
    /// Rows present in both traces.
    pub fn matched(&self) -> impl Iterator<Item = &AlignedPair> {
        self.pairs
            .iter()
            .filter(|p| p.before.is_some() && p.after.is_some())
    }

    /// Timelines only the before trace has.
    pub fn unmatched_before(&self) -> usize {
        self.pairs.iter().filter(|p| p.after.is_none()).count()
    }

    /// Timelines only the after trace has.
    pub fn unmatched_after(&self) -> usize {
        self.pairs.iter().filter(|p| p.before.is_none()).count()
    }
}

/// Category names of both traces (plus `"?"` for an unknown id),
/// interned to ranks in name order: comparing ranks orders and
/// equates exactly as comparing the names would.
fn name_ranks<'f>(before: &'f Slog2File, after: &'f Slog2File) -> BTreeMap<&'f str, u32> {
    let names: BTreeSet<&str> = before
        .categories
        .iter()
        .chain(&after.categories)
        .map(|c| c.name.as_str())
        .chain(["?"])
        .collect();
    names.into_iter().zip(0..).collect()
}

/// Per-timeline category-rank sequence (states only, in start order,
/// terminal categories stripped) plus the truncation flag.
fn sequences(az: &TraceAnalyzer, ranks: &BTreeMap<&str, u32>) -> Vec<(Vec<u32>, bool)> {
    let file = az.file();
    // Per category id: (rank, terminal?), resolved once.
    let mut resolved: BTreeMap<CategoryId, (u32, bool)> = BTreeMap::new();
    file.timeline_ids()
        .map(|tl| {
            let mut truncated = false;
            let mut states: Vec<(f64, f64, u32)> = Vec::new();
            for &(start, end, cat) in az.index().states(tl) {
                let (rank, terminal) = *resolved.entry(cat).or_insert_with(|| {
                    let name = file.category(cat).map_or("?", |c| c.name.as_str());
                    (ranks[name], TERMINAL_CATEGORIES.contains(&name))
                });
                if terminal {
                    truncated = true;
                } else {
                    states.push((start, end, rank));
                }
            }
            // Equal keys are equal tuples: the unstable sort is exact.
            states.sort_unstable_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            let stride = states.len().div_ceil(MAX_SEQ_LEN).max(1);
            let seq = states.into_iter().step_by(stride).map(|s| s.2).collect();
            (seq, truncated)
        })
        .collect()
}

/// Longest common subsequence length of two sequences.
fn lcs_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
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

fn similarity<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    2.0 * lcs_len(a, b) as f64 / (a.len() + b.len()) as f64
}

/// Pair up the two traces' timelines and score every pair.
pub fn align(before: &Slog2File, after: &Slog2File) -> Alignment {
    align_indexed(&TraceAnalyzer::new(before), &TraceAnalyzer::new(after))
}

/// [`align`] over the two sides' analyzers.
pub(crate) fn align_indexed(before_az: &TraceAnalyzer, after_az: &TraceAnalyzer) -> Alignment {
    let (before, after) = (before_az.file(), after_az.file());
    let ranks = name_ranks(before, after);
    let seq_b = sequences(before_az, &ranks);
    let seq_a = sequences(after_az, &ranks);

    // Name-first matching: each before timeline claims the first
    // unclaimed after timeline with the same name.
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
    // Positional matching for the leftovers, in index order.
    let mut free_after: Vec<u32> = claimed
        .iter()
        .enumerate()
        .filter(|(_, c)| !**c)
        .map(|(i, _)| i as u32)
        .collect();
    free_after.reverse(); // pop() from the front
    for p in partner.iter_mut() {
        if p.is_none() {
            if let Some(ai) = free_after.pop() {
                *p = Some(TimelineId(ai));
            }
        }
    }

    let mut pairs = Vec::new();
    let mut taken = vec![false; after.timelines.len()];
    for (bi, p) in partner.iter().enumerate() {
        let b_tl = TimelineId(bi as u32);
        let (b_seq, b_trunc) = &seq_b[bi];
        match p {
            Some(a_tl) => {
                taken[a_tl.as_usize()] = true;
                let (a_seq, a_trunc) = &seq_a[a_tl.as_usize()];
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
            let (_, a_trunc) = &seq_a[ai];
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

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::fixtures::{instance_a, instance_fixed};

    fn s(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn lcs_and_similarity_basics() {
        assert_eq!(lcs_len(&s(&["a", "b", "c"]), &s(&["a", "c"])), 2);
        assert_eq!(lcs_len(&s(&[]), &s(&["a"])), 0);
        assert_eq!(similarity(&s(&[]), &s(&[])), 1.0);
        assert_eq!(similarity(&s(&["a", "b"]), &s(&["a", "b"])), 1.0);
        assert_eq!(similarity(&s(&["a"]), &s(&["b"])), 0.0);
    }

    #[test]
    fn same_names_align_one_to_one() {
        let al = align(&instance_a(), &instance_fixed());
        assert_eq!(al.pairs.len(), 5);
        assert_eq!(al.unmatched_before(), 0);
        assert_eq!(al.unmatched_after(), 0);
        for p in &al.pairs {
            assert_eq!(p.before.map(|t| t.as_u32()), p.after.map(|t| t.as_u32()));
            assert!(p.similarity > 0.3, "{p:?}");
            assert!(!p.truncated_before && !p.truncated_after);
        }
    }

    #[test]
    fn self_alignment_scores_full_similarity() {
        let f = instance_a();
        let al = align(&f, &f);
        for p in &al.pairs {
            assert!((p.similarity - 1.0).abs() < 1e-12, "{p:?}");
        }
    }

    #[test]
    fn long_sequences_are_downsampled_not_quadratic() {
        use analysis::fixtures::{file_with, state};
        let mut ds = Vec::new();
        for i in 0..20_000 {
            let t = i as f64 * 1e-4;
            ds.push(state(u32::from(i % 2 == 0), 1, t, t + 5e-5));
        }
        let f = file_with(ds);
        let al = align(&f, &f);
        let p = al.pairs.iter().find(|p| p.name == "W0").unwrap();
        assert!((p.similarity - 1.0).abs() < 1e-12, "{p:?}");
    }
}

//! The duration-statistics view.
//!
//! Jumpshot "can also draw a picture from user-selected duration which
//! allows for ease of data analysis on the statistics of a logfile. For
//! example, it enables easy detection of load imbalance across
//! processes among timelines." This module reproduces that histogram
//! window: for a selected `[t0, t1]`, per-timeline stacked bars of each
//! category's clipped state coverage, rendered to SVG and available as
//! data for tests and analyses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use slog2::{CategoryId, Drawable, Slog2File, TimeWindow, TimelineId};

use crate::render::RenderOptions;

/// One timeline's per-category coverage within the selected duration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineHistogram {
    /// `category index -> clipped seconds` (states only).
    pub coverage: BTreeMap<CategoryId, f64>,
}

impl TimelineHistogram {
    /// Total covered seconds on this timeline.
    pub fn total(&self) -> f64 {
        self.coverage.values().sum()
    }
}

/// Compute the per-timeline, per-category state coverage clipped to
/// the window `w`.
pub fn duration_stats(file: &Slog2File, w: TimeWindow) -> BTreeMap<TimelineId, TimelineHistogram> {
    let mut out: BTreeMap<TimelineId, TimelineHistogram> = BTreeMap::new();
    for tl in file.timeline_ids() {
        out.insert(tl, TimelineHistogram::default());
    }
    for d in file.tree.query(w) {
        if let Drawable::State(s) = d {
            let clipped = w.clip_span(s.start, s.end);
            if clipped > 0.0 {
                *out.entry(s.timeline)
                    .or_default()
                    .coverage
                    .entry(s.category)
                    .or_insert(0.0) += clipped;
            }
        }
    }
    out
}

/// The load-imbalance indicator the paper mentions: the ratio between
/// the busiest and the least-busy timeline's coverage of `category`
/// within the window (1.0 = perfectly balanced; `f64::INFINITY` when a
/// timeline has none). Timelines listed in `among` only.
pub fn load_imbalance(
    file: &Slog2File,
    category: CategoryId,
    among: &[TimelineId],
    w: TimeWindow,
) -> f64 {
    let stats = duration_stats(file, w);
    let loads: Vec<f64> = among
        .iter()
        .map(|tl| {
            stats
                .get(tl)
                .and_then(|h| h.coverage.get(&category))
                .copied()
                .unwrap_or(0.0)
        })
        .collect();
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        if max <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max / min
    }
}

pub(crate) fn histogram_string(file: &Slog2File, w: TimeWindow, opts: &RenderOptions) -> String {
    let width_px = opts.width.max(1);
    let overlay = opts.overlay.as_ref();
    let (t0, t1) = (w.t0, w.t1);
    let stats = duration_stats(file, w);
    let row_h = 24.0;
    let gutter = 90.0;
    let bar_w = width_px as f64 - gutter - 80.0;
    let height = stats.len() as f64 * row_h + 30.0;
    let max_total = stats
        .values()
        .map(TimelineHistogram::total)
        .fold(1e-12, f64::max);

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{height}\" \
         viewBox=\"0 0 {w} {height}\" font-family=\"monospace\" font-size=\"11\">\n\
         <rect x=\"0\" y=\"0\" width=\"{w}\" height=\"{height}\" fill=\"#101018\"/>\n\
         <text x=\"4\" y=\"14\" fill=\"#ddd\">Duration statistics [{t0:.6}s, {t1:.6}s]</text>\n",
        w = width_px
    );
    for (i, (tl, hist)) in stats.iter().enumerate() {
        let y = 22.0 + i as f64 * row_h;
        // Two-lane layouts get a divider above the "after" lane.
        if opts.lane_split == Some(i as u32) && i > 0 {
            let _ = writeln!(
                svg,
                "<line x1=\"0\" y1=\"{ly:.2}\" x2=\"{w}\" y2=\"{ly:.2}\" stroke=\"#ff9800\" \
                 stroke-width=\"1.5\" stroke-dasharray=\"8 4\" class=\"lane-split\"/>",
                ly = y - 2.0,
                w = width_px
            );
        }
        let name = file.timeline_name(*tl).unwrap_or("?");
        let _ = writeln!(
            svg,
            "<text x=\"4\" y=\"{ty}\" fill=\"#ddd\">{name}</text>",
            ty = y + row_h / 2.0 + 4.0
        );
        let mut x = gutter;
        for (cat, secs) in &hist.coverage {
            let wpx = secs / max_total * bar_w;
            let color = file
                .category(*cat)
                .map(|c| c.color.to_hex())
                .unwrap_or_else(|| "#888888".into());
            let cname = file.category(*cat).map(|c| c.name.as_str()).unwrap_or("?");
            let _ = writeln!(
                svg,
                "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{wpx:.2}\" height=\"{h:.2}\" \
                 fill=\"{color}\" class=\"histbar\"><title>{cname}: {secs:.6}s</title></rect>",
                h = row_h - 6.0
            );
            x += wpx;
        }
        let crit = overlay.map(|ov| ov.seconds_on(*tl, t0, t1)).unwrap_or(0.0);
        let note = opts
            .row_note(*tl)
            .map(|n| format!(" {}", crate::svgout::escape(n)))
            .unwrap_or_default();
        if crit > 0.0 {
            let _ = writeln!(
                svg,
                "<text x=\"{tx:.2}\" y=\"{ty}\" fill=\"#ff4081\" class=\"critical-path\">\
                 {total:.4}s (crit {crit:.4}s){note}</text>",
                tx = x + 6.0,
                ty = y + row_h / 2.0 + 4.0,
                total = hist.total()
            );
        } else {
            let _ = writeln!(
                svg,
                "<text x=\"{tx:.2}\" y=\"{ty}\" fill=\"#aaa\">{total:.4}s{note}</text>",
                tx = x + 6.0,
                ty = y + row_h / 2.0 + 4.0,
                total = hist.total()
            );
        }
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::PathOverlay;
    use mpelog::Color;
    use slog2::{Category, CategoryKind, FrameTree, StateDrawable};

    fn file() -> Slog2File {
        let categories = vec![
            Category {
                index: CategoryId(0),
                name: "Compute".into(),
                color: Color::GRAY,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(1),
                name: "PI_Read".into(),
                color: Color::RED,
                kind: CategoryKind::State,
            },
        ];
        let ds = vec![
            Drawable::State(StateDrawable {
                category: CategoryId(0),
                timeline: TimelineId(0),
                start: 0.0,
                end: 10.0,
                nest_level: 0,
                text: String::new(),
            }),
            Drawable::State(StateDrawable {
                category: CategoryId(0),
                timeline: TimelineId(1),
                start: 0.0,
                end: 4.0,
                nest_level: 0,
                text: String::new(),
            }),
            Drawable::State(StateDrawable {
                category: CategoryId(1),
                timeline: TimelineId(1),
                start: 4.0,
                end: 6.0,
                nest_level: 0,
                text: String::new(),
            }),
        ];
        Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into()],
            categories,
            range: TimeWindow::new(0.0, 10.0),
            warnings: vec![],
            tree: FrameTree::build(ds, 0.0, 10.0, 8, 8),
        }
    }

    #[test]
    fn duration_stats_clip_to_window() {
        let stats = duration_stats(&file(), TimeWindow::new(2.0, 5.0));
        // Timeline 0: Compute clipped to [2,5] = 3s.
        assert!((stats[&TimelineId(0)].coverage[&CategoryId(0)] - 3.0).abs() < 1e-12);
        // Timeline 1: Compute [2,4] = 2s, Read [4,5] = 1s.
        assert!((stats[&TimelineId(1)].coverage[&CategoryId(0)] - 2.0).abs() < 1e-12);
        assert!((stats[&TimelineId(1)].coverage[&CategoryId(1)] - 1.0).abs() < 1e-12);
        assert!((stats[&TimelineId(1)].total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn full_window_matches_raw_durations() {
        let stats = duration_stats(&file(), TimeWindow::new(0.0, 10.0));
        assert!((stats[&TimelineId(0)].coverage[&CategoryId(0)] - 10.0).abs() < 1e-12);
        assert!((stats[&TimelineId(1)].coverage[&CategoryId(0)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_uneven_compute() {
        let f = file();
        let both = [TimelineId(0), TimelineId(1)];
        // Compute: 10s on timeline 0 vs 4s on timeline 1 -> 2.5x.
        let imb = load_imbalance(&f, CategoryId(0), &both, TimeWindow::new(0.0, 10.0));
        assert!((imb - 2.5).abs() < 1e-12);
        // Reads: only timeline 1 has any -> infinite imbalance vs 0.
        assert!(load_imbalance(&f, CategoryId(1), &both, TimeWindow::new(0.0, 10.0)).is_infinite());
        // Nobody has category 99 -> balanced by convention.
        assert_eq!(
            load_imbalance(&f, CategoryId(99), &both, TimeWindow::new(0.0, 10.0)),
            1.0
        );
    }

    #[test]
    fn histogram_svg_contains_bars_and_labels() {
        let opts = RenderOptions::default().with_width(800);
        let svg = histogram_string(&file(), TimeWindow::new(0.0, 10.0), &opts);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("class=\"histbar\""));
        assert!(svg.contains("PI_MAIN"));
        assert!(svg.contains("Compute: 10.000000s"));
        assert!(svg.contains("#808080"));
    }

    #[test]
    fn empty_window_renders_without_bars() {
        let opts = RenderOptions::default().with_width(800);
        let svg = histogram_string(&file(), TimeWindow::new(20.0, 30.0), &opts);
        assert!(!svg.contains("class=\"histbar\""));
    }

    #[test]
    fn lane_split_and_row_notes_annotate_histogram() {
        let opts = RenderOptions::default()
            .with_width(800)
            .with_lane_split(1)
            .with_row_notes(vec![(TimelineId(1), "Δ +2.0s".to_string())]);
        let svg = histogram_string(&file(), TimeWindow::new(0.0, 10.0), &opts);
        assert_eq!(svg.matches("class=\"lane-split\"").count(), 1, "{svg}");
        assert!(svg.contains("Δ +2.0s"), "{svg}");
    }

    #[test]
    fn overlay_annotates_critical_seconds_per_row() {
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 7.5)],
            hops: vec![],
            dim_others: false,
        };
        let opts = RenderOptions::default().with_width(800).with_overlay(ov);
        let svg = histogram_string(&file(), TimeWindow::new(0.0, 10.0), &opts);
        // Timeline 0 carries 7.5s of the critical path; timeline 1 none.
        assert!(svg.contains("(crit 7.5000s)"), "{svg}");
        assert_eq!(svg.matches("(crit ").count(), 1, "{svg}");
    }
}

//! SVG timeline rendering.
//!
//! Coordinates match Jumpshot's: the X axis is global time in seconds,
//! the Y axis is process rank (0 = `PI_MAIN` at the top). Each drawable
//! is rendered the way Jumpshot renders it:
//!
//! * a **state** wide enough on screen becomes a filled rectangle whose
//!   height shrinks with nesting level (inner rectangles inside outer
//!   ones); its popup text becomes an SVG `<title>` tooltip;
//! * a state **too narrow to see** (below `min_state_px`) instead
//!   contributes to its pixel bucket's *preview stripe* — an outlined
//!   rectangle filled with horizontal colour bands whose heights are
//!   proportional to each category's share of that interval, exactly the
//!   zoomed-out representation the paper describes under Fig. 1;
//! * a **solo event** becomes a small circle ("bubble");
//! * a **message arrow** becomes a line from the sender's timeline to
//!   the receiver's, with the envelope in its tooltip.
//!
//! The writer is one pass that allocates nothing per drawable, because
//! a full-trace document carries a tooltip per arrow and bubble (22 MB
//! for a 256 k-drawable trace). Each category's colour and escaped name
//! are computed once per render; popup text is escaped straight into
//! the document; coordinates and times go through an integer
//! fixed-point writer that hands NaN, infinities, huge values and
//! near-ties to `std`'s `{:.N}`; narrow states are summed per preview
//! cell from one flat, stable-sorted list, so the float additions keep
//! their order. The output is byte-identical to formatting every
//! drawable with `format!`: `timeline`'s `render_digests` test and the
//! whole-document fixtures below pin it.

use std::collections::HashSet;
use std::fmt::Write as _;

use slog2::{
    ArrowDrawable, CategoryId, Drawable, EventDrawable, Slog2File, StateDrawable, TimeWindow,
    TimelineId,
};

use crate::svgout::{escape, SvgOut};
use crate::viewport::Viewport;

/// A critical-path overlay: the on-timeline segments and cross-timeline
/// hops of a causal critical path (as computed by the `analysis`
/// crate), drawn highlighted over the normal canvas. Every backend of
/// the [`Renderer`](crate::Renderer) trait honours it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathOverlay {
    /// On-timeline path segments `(timeline, t0, t1)`.
    pub segments: Vec<(TimelineId, f64, f64)>,
    /// Cross-timeline hops `(from, to, send_time, recv_time)` — the
    /// message arrows the path rides between timelines.
    pub hops: Vec<(TimelineId, TimelineId, f64, f64)>,
    /// Dim everything that is not on the path.
    pub dim_others: bool,
}

impl PathOverlay {
    /// Seconds of path segments on `tl` clipped to `[t0, t1]`.
    pub fn seconds_on(&self, tl: TimelineId, t0: f64, t1: f64) -> f64 {
        self.segments
            .iter()
            .filter(|(s_tl, _, _)| *s_tl == tl)
            .map(|&(_, s0, s1)| (s1.min(t1) - s0.max(t0)).max(0.0))
            .sum()
    }

    /// Does any segment on `tl` overlap `[t0, t1]` (closed interval)?
    pub fn on_path(&self, tl: TimelineId, t0: f64, t1: f64) -> bool {
        self.segments
            .iter()
            .any(|&(s_tl, s0, s1)| s_tl == tl && s0 <= t1 && s1 >= t0)
    }
}

/// Rendering options shared by every [`Renderer`](crate::Renderer)
/// backend. Construct with [`Default`] and refine with the `with_*`
/// builder methods.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Time window to render; `None` = the file's full range.
    pub window: Option<TimeWindow>,
    /// Output width: pixels for the SVG/HTML/histogram backends,
    /// characters for the ascii backend.
    pub width: u32,
    /// Height of one timeline row in pixels.
    pub row_height: u32,
    /// States narrower than this many pixels go into preview stripes.
    pub min_state_px: f64,
    /// Preview bucket width in pixels.
    pub bucket_px: u32,
    /// Draw message arrows?
    pub show_arrows: bool,
    /// Draw event bubbles?
    pub show_events: bool,
    /// Cap on the ascii backend's arrow list (0 = unlimited).
    pub max_arrows: usize,
    /// If set, only these category indices are drawn (legend visibility
    /// toggles).
    pub visible_categories: Option<HashSet<CategoryId>>,
    /// Canvas background colour.
    pub background: String,
    /// Left gutter for timeline labels, pixels.
    pub label_gutter: u32,
    /// Bottom strip for the time axis, pixels.
    pub axis_height: u32,
    /// Critical-path overlay: highlight these segments and hops, and
    /// (optionally) dim everything off the path.
    pub overlay: Option<PathOverlay>,
    /// Two-lane comparison layout: draw a bright divider above this
    /// timeline row, splitting the canvas into a "before" lane (rows
    /// `0..split`) and an "after" lane (rows `split..`). Used by the
    /// trace-diff side-by-side render; `None` = single-lane as usual.
    pub lane_split: Option<u32>,
    /// Per-row annotations appended after the row content (ascii) or
    /// the per-row totals (histogram) — the diff backends use these for
    /// delta columns. SVG/HTML ignore them.
    pub row_notes: Vec<(TimelineId, String)>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            window: None,
            width: 1280,
            row_height: 28,
            min_state_px: 1.5,
            bucket_px: 4,
            show_arrows: true,
            show_events: true,
            max_arrows: 20,
            visible_categories: None,
            background: "#101018".to_string(),
            label_gutter: 80,
            axis_height: 26,
            overlay: None,
            lane_split: None,
            row_notes: Vec::new(),
        }
    }
}

impl RenderOptions {
    /// Render only this time window instead of the full file range.
    pub fn with_window(mut self, w: TimeWindow) -> Self {
        self.window = Some(w);
        self
    }

    /// Set the output width (pixels, or characters for ascii).
    pub fn with_width(mut self, width: u32) -> Self {
        self.width = width;
        self
    }

    /// Toggle message arrows.
    pub fn with_arrows(mut self, show: bool) -> Self {
        self.show_arrows = show;
        self
    }

    /// Toggle event bubbles.
    pub fn with_events(mut self, show: bool) -> Self {
        self.show_events = show;
        self
    }

    /// Cap the ascii arrow list.
    pub fn with_max_arrows(mut self, cap: usize) -> Self {
        self.max_arrows = cap;
        self
    }

    /// Restrict drawing to these category indices.
    pub fn with_visible_categories(mut self, cats: HashSet<CategoryId>) -> Self {
        self.visible_categories = Some(cats);
        self
    }

    /// Highlight a critical path over the canvas.
    pub fn with_overlay(mut self, overlay: PathOverlay) -> Self {
        self.overlay = Some(overlay);
        self
    }

    /// Split the canvas into before/after lanes at this timeline row.
    pub fn with_lane_split(mut self, split: u32) -> Self {
        self.lane_split = Some(split);
        self
    }

    /// Attach per-row annotations (delta columns).
    pub fn with_row_notes(mut self, notes: Vec<(TimelineId, String)>) -> Self {
        self.row_notes = notes;
        self
    }

    /// The note attached to `tl`, if any.
    pub(crate) fn row_note(&self, tl: TimelineId) -> Option<&str> {
        self.row_notes
            .iter()
            .find(|(n_tl, _)| *n_tl == tl)
            .map(|(_, s)| s.as_str())
    }
}

struct Layout {
    gutter: f64,
    row_h: f64,
    /// Preview bucket width in pixels (at least 1).
    bucket_w: f64,
    axis_h: f64,
    rows: usize,
    canvas_w: f64,
}

impl Layout {
    fn row_top(&self, timeline: TimelineId) -> f64 {
        timeline.as_u32() as f64 * self.row_h
    }

    fn row_mid(&self, timeline: TimelineId) -> f64 {
        self.row_top(timeline) + self.row_h / 2.0
    }

    fn total_height(&self) -> f64 {
        self.rows as f64 * self.row_h + self.axis_h
    }

    fn total_width(&self) -> f64 {
        self.gutter + self.canvas_w
    }
}

/// What every drawable of a category writes, computed once per render:
/// its `#rrggbb` colour and its XML-escaped name.
struct Styles {
    colors: Vec<String>,
    names: Vec<String>,
}

impl Styles {
    fn of(file: &Slog2File) -> Styles {
        Styles {
            colors: file.categories.iter().map(|c| c.color.to_hex()).collect(),
            names: file.categories.iter().map(|c| escape(&c.name)).collect(),
        }
    }

    /// The category's colour, or `fallback` for an index the file's
    /// category table does not have.
    fn color<'a>(&'a self, cat: CategoryId, fallback: &'a str) -> &'a str {
        self.colors
            .get(cat.as_usize())
            .map_or(fallback, String::as_str)
    }

    /// The category's escaped name, or `?` for an unknown index.
    fn name(&self, cat: CategoryId) -> &str {
        self.names.get(cat.as_usize()).map_or("?", String::as_str)
    }
}

/// One narrow state's clipped coverage of its preview cell:
/// `(timeline, bucket, category, seconds)`.
type Cell = (TimelineId, u32, CategoryId, f64);

/// The window's visible drawables, split by how they are drawn and put
/// in output order.
struct Canvas<'a> {
    /// Narrow states, stable-sorted by `(timeline, bucket, category)`:
    /// each cell's coverage of one category stays in hit order.
    cells: Vec<Cell>,
    /// States wide enough to draw as rectangles.
    states: Vec<&'a StateDrawable>,
    events: Vec<&'a EventDrawable>,
    arrows: Vec<&'a ArrowDrawable>,
}

impl<'a> Canvas<'a> {
    fn partition(
        file: &'a Slog2File,
        vp: &Viewport,
        lay: &Layout,
        opts: &RenderOptions,
    ) -> Canvas<'a> {
        let visible = |cat: CategoryId| -> bool {
            opts.visible_categories
                .as_ref()
                .is_none_or(|set| set.contains(&cat))
        };
        let mut c = Canvas {
            cells: Vec::new(),
            states: Vec::new(),
            events: Vec::new(),
            arrows: Vec::new(),
        };
        for d in file.tree.query(TimeWindow::new(vp.t0, vp.t1)) {
            if !visible(d.category()) {
                continue;
            }
            match d {
                Drawable::State(s) => {
                    if vp.px_of_span(s.end - s.start) >= opts.min_state_px {
                        c.states.push(s);
                    } else {
                        let clipped0 = s.start.max(vp.t0);
                        let clipped1 = s.end.min(vp.t1);
                        let x = vp.x_of((clipped0 + clipped1) / 2.0);
                        let b = (x / lay.bucket_w).floor().max(0.0) as u32;
                        c.cells
                            .push((s.timeline, b, s.category, clipped1 - clipped0));
                    }
                }
                Drawable::Event(e) if opts.show_events => c.events.push(e),
                Drawable::Arrow(a) if opts.show_arrows => c.arrows.push(a),
                _ => {}
            }
        }
        c.cells.sort_by_key(|&(tl, b, cat, _)| (tl, b, cat));
        c.states.sort_by(|a, b| {
            a.timeline
                .cmp(&b.timeline)
                .then(a.start.total_cmp(&b.start))
                .then(a.nest_level.cmp(&b.nest_level))
        });
        c.events
            .sort_by(|a, b| a.timeline.cmp(&b.timeline).then(a.time.total_cmp(&b.time)));
        c.arrows.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.from_timeline.cmp(&b.from_timeline))
                .then(a.to_timeline.cmp(&b.to_timeline))
        });
        c
    }
}

pub(crate) fn svg_string(file: &Slog2File, vp: &Viewport, opts: &RenderOptions) -> String {
    let lay = Layout {
        gutter: opts.label_gutter as f64,
        row_h: opts.row_height as f64,
        bucket_w: opts.bucket_px.max(1) as f64,
        axis_h: opts.axis_height as f64,
        rows: file.timelines.len(),
        canvas_w: vp.width_px as f64,
    };
    let styles = Styles::of(file);
    let canvas = Canvas::partition(file, vp, &lay, opts);
    let mut out = SvgOut::default();

    write_frame(&mut out, file, &lay, opts);
    // Preview stripes first (behind individual rectangles).
    write_stripes(&mut out, &canvas.cells, &styles, &lay);

    // Individual state rectangles.
    for s in &canvas.states {
        let x0 = lay.gutter + vp.x_of(s.start.max(vp.t0)).max(0.0);
        let x1 = lay.gutter + vp.x_of(s.end.min(vp.t1)).min(lay.canvas_w);
        let shrink = (s.nest_level as f64 * 4.0).min(lay.row_h / 2.0 - 2.0);
        let y = lay.row_top(s.timeline) + 2.0 + shrink;
        let h = (lay.row_h - 4.0 - 2.0 * shrink).max(2.0);
        out.raw("<rect x=\"")
            .fixed(x0, 2)
            .raw("\" y=\"")
            .fixed(y, 2)
            .raw("\" width=\"")
            .fixed((x1 - x0).max(0.5), 2)
            .raw("\" height=\"")
            .fixed(h, 2)
            .raw("\" fill=\"")
            .raw(styles.color(s.category, "#000000"))
            .raw("\" stroke=\"#000\" stroke-width=\"0.3\" class=\"state\"><title>")
            .raw(styles.name(s.category))
            .raw(" [")
            .fixed(s.start, 6)
            .raw("s, ")
            .fixed(s.end, 6)
            .raw("s] dur ")
            .fixed(s.end - s.start, 6)
            .raw("s\n")
            .text(&s.text)
            .raw("</title></rect>\n");
    }

    // Arrows (drawn over states, like Jumpshot's white arrows).
    for a in &canvas.arrows {
        out.raw("<line x1=\"")
            .fixed(lay.gutter + vp.x_of(a.start), 2)
            .raw("\" y1=\"")
            .fixed(lay.row_mid(a.from_timeline), 2)
            .raw("\" x2=\"")
            .fixed(lay.gutter + vp.x_of(a.end), 2)
            .raw("\" y2=\"")
            .fixed(lay.row_mid(a.to_timeline), 2)
            .raw("\" stroke=\"")
            .raw(styles.color(a.category, "#ffffff"))
            .raw("\" stroke-width=\"1\" class=\"arrow\"><title>message ")
            .int(a.from_timeline.as_u32())
            .raw("-&gt;")
            .int(a.to_timeline.as_u32())
            .raw(" tag ")
            .int(a.tag)
            .raw(" size ")
            .int(a.size)
            .raw("B\nstart ")
            .fixed(a.start, 6)
            .raw("s end ")
            .fixed(a.end, 6)
            .raw("s dur ")
            .fixed(a.end - a.start, 6)
            .raw("s</title></line>\n");
    }

    // Event bubbles on top.
    for e in &canvas.events {
        out.raw("<circle cx=\"")
            .fixed(lay.gutter + vp.x_of(e.time), 2)
            .raw("\" cy=\"")
            .fixed(lay.row_mid(e.timeline), 2)
            .raw("\" r=\"2.5\" fill=\"")
            .raw(styles.color(e.category, "#ffff00"))
            .raw("\" class=\"bubble\"><title>")
            .raw(styles.name(e.category))
            .raw(" @ ")
            .fixed(e.time, 6)
            .raw("s\n")
            .text(&e.text)
            .raw("</title></circle>\n");
    }

    if let Some(ov) = &opts.overlay {
        write_overlay(&mut out, ov, vp, &lay);
    }
    write_axis(&mut out, vp, &lay);
    out.raw("</svg>\n");
    out.into_string()
}

/// The document header, background, row separators and labels, and
/// the lane divider of two-lane layouts.
fn write_frame(out: &mut SvgOut, file: &Slog2File, lay: &Layout, opts: &RenderOptions) {
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"monospace\" font-size=\"11\">",
        w = lay.total_width(),
        h = lay.total_height()
    );
    let _ = write!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{}\" height=\"{}\" fill=\"",
        lay.total_width(),
        lay.total_height(),
    );
    out.text(&opts.background).raw("\"/>\n");

    for (r, name) in file.timelines.iter().enumerate() {
        let y = lay.row_top(TimelineId(r as u32));
        let _ = writeln!(
            out,
            "<line x1=\"{g}\" y1=\"{y}\" x2=\"{x2}\" y2=\"{y}\" stroke=\"#333\" stroke-width=\"0.5\"/>",
            g = lay.gutter,
            y = y,
            x2 = lay.total_width()
        );
        let _ = write!(
            out,
            "<text x=\"4\" y=\"{}\" fill=\"#ddd\" class=\"tl-label\">",
            lay.row_mid(TimelineId(r as u32)) + 4.0,
        );
        out.text(name).raw("</text>\n");
    }

    if let Some(split) = opts.lane_split {
        if (1..lay.rows as u32).contains(&split) {
            let y = lay.row_top(TimelineId(split));
            let _ = writeln!(
                out,
                "<line x1=\"0\" y1=\"{y}\" x2=\"{x2}\" y2=\"{y}\" stroke=\"#ff9800\" \
                 stroke-width=\"1.5\" stroke-dasharray=\"8 4\" class=\"lane-split\"/>",
                x2 = lay.total_width()
            );
        }
    }
}

/// One outlined group per preview cell, its bands stacked in category
/// order with heights proportional to each category's coverage.
fn write_stripes(out: &mut SvgOut, cells: &[Cell], styles: &Styles, lay: &Layout) {
    let (bucket_w, h) = (lay.bucket_w, lay.row_h - 4.0);
    // One cell's per-category sums, reused across cells.
    let mut sums: Vec<(CategoryId, f64)> = Vec::new();
    for cell in cells.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (timeline, bucket) = (cell[0].0, cell[0].1);
        sums.clear();
        for run in cell.chunk_by(|a, b| a.2 == b.2) {
            sums.push((run[0].2, run.iter().fold(0.0, |acc, c| acc + c.3)));
        }
        let total: f64 = sums.iter().map(|(_, cov)| cov).sum();
        if total <= 0.0 {
            continue;
        }
        let x = lay.gutter + bucket as f64 * bucket_w;
        let y = lay.row_top(timeline) + 2.0;
        out.raw("<g class=\"preview\"><rect x=\"")
            .fixed(x, 2)
            .raw("\" y=\"")
            .fixed(y, 2)
            .raw("\" width=\"")
            .fixed(bucket_w, 2)
            .raw("\" height=\"")
            .fixed(h, 2)
            .raw("\" fill=\"none\" stroke=\"#888\" stroke-width=\"0.5\"/>\n");
        let mut yoff = y;
        for &(cat, cov) in &sums {
            let sh = cov / total * h;
            out.raw("<rect x=\"")
                .fixed(x, 2)
                .raw("\" y=\"")
                .fixed(yoff, 2)
                .raw("\" width=\"")
                .fixed(bucket_w, 2)
                .raw("\" height=\"")
                .fixed(sh, 2)
                .raw("\" fill=\"")
                .raw(styles.color(cat, "#000000"))
                .raw("\" class=\"stripe\"/>\n");
            yoff += sh;
        }
        out.raw("</g>\n");
    }
}

/// Critical-path overlay: dim everything, then trace the path.
fn write_overlay(out: &mut SvgOut, ov: &PathOverlay, vp: &Viewport, lay: &Layout) {
    if ov.dim_others {
        let _ = writeln!(
            out,
            "<rect x=\"{g}\" y=\"0\" width=\"{w:.2}\" height=\"{h:.2}\" \
             fill=\"#000\" opacity=\"0.55\" class=\"dim\"/>",
            g = lay.gutter,
            w = lay.canvas_w,
            h = lay.rows as f64 * lay.row_h
        );
    }
    for &(tl, s0, s1) in &ov.segments {
        let (c0, c1) = (s0.max(vp.t0), s1.min(vp.t1));
        if c1 < c0 {
            continue;
        }
        let x0 = lay.gutter + vp.x_of(c0).max(0.0);
        let x1 = lay.gutter + vp.x_of(c1).min(lay.canvas_w);
        let y = lay.row_mid(tl);
        let _ = writeln!(
            out,
            "<line x1=\"{x0:.2}\" y1=\"{y:.2}\" x2=\"{x1:.2}\" y2=\"{y:.2}\" \
             stroke=\"#ff4081\" stroke-width=\"4\" stroke-linecap=\"round\" \
             opacity=\"0.9\" class=\"critical-path\"><title>critical path: {tl} \
             [{s0:.6}s, {s1:.6}s]</title></line>"
        );
    }
    for &(from, to, t_send, t_recv) in &ov.hops {
        if t_recv < vp.t0 || t_send > vp.t1 {
            continue;
        }
        let x0 = lay.gutter + vp.x_of(t_send);
        let x1 = lay.gutter + vp.x_of(t_recv);
        let y0 = lay.row_mid(from);
        let y1 = lay.row_mid(to);
        let _ = writeln!(
            out,
            "<line x1=\"{x0:.2}\" y1=\"{y0:.2}\" x2=\"{x1:.2}\" y2=\"{y1:.2}\" \
             stroke=\"#ff4081\" stroke-width=\"2\" stroke-dasharray=\"5 3\" \
             class=\"critical-hop\"><title>critical hop {from}->{to} \
             [{t_send:.6}s, {t_recv:.6}s]</title></line>"
        );
    }
}

/// The time axis and its nine ticks.
fn write_axis(out: &mut SvgOut, vp: &Viewport, lay: &Layout) {
    let axis_y = lay.rows as f64 * lay.row_h;
    let _ = writeln!(
        out,
        "<line x1=\"{g}\" y1=\"{axis_y}\" x2=\"{x2}\" y2=\"{axis_y}\" stroke=\"#aaa\" stroke-width=\"1\"/>",
        g = lay.gutter,
        x2 = lay.total_width()
    );
    for i in 0..=8 {
        let t = vp.t0 + vp.span() * i as f64 / 8.0;
        let x = lay.gutter + vp.x_of(t);
        let _ = writeln!(
            out,
            "<line x1=\"{x:.2}\" y1=\"{axis_y}\" x2=\"{x:.2}\" y2=\"{y2}\" stroke=\"#aaa\" stroke-width=\"1\"/>\
             <text x=\"{x:.2}\" y=\"{ty}\" fill=\"#ccc\" text-anchor=\"middle\" class=\"tick\">{t:.4}s</text>",
            y2 = axis_y + 4.0,
            ty = axis_y + 16.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpelog::Color;
    use slog2::{ArrowDrawable, EventDrawable, StateDrawable};
    use slog2::{Category, CategoryKind, FrameTree};

    fn test_file(drawables: Vec<Drawable>) -> Slog2File {
        let categories = vec![
            Category {
                index: CategoryId(0),
                name: "PI_Read".into(),
                color: Color::RED,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(1),
                name: "arrival".into(),
                color: Color::YELLOW,
                kind: CategoryKind::Event,
            },
            Category {
                index: CategoryId(2),
                name: "message".into(),
                color: Color::WHITE,
                kind: CategoryKind::Arrow,
            },
        ];
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        for d in &drawables {
            t0 = t0.min(d.start());
            t1 = t1.max(d.end());
        }
        if !t0.is_finite() {
            t0 = 0.0;
            t1 = 1.0;
        }
        Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into()],
            categories,
            range: TimeWindow::new(t0, t1),
            warnings: vec![],
            tree: FrameTree::build(drawables, t0, t1, 16, 8),
        }
    }

    fn state(tl: u32, start: f64, end: f64) -> Drawable {
        Drawable::State(StateDrawable {
            category: CategoryId(0),
            timeline: TimelineId(tl),
            start,
            end,
            nest_level: 0,
            text: "Line: 42".into(),
        })
    }

    #[test]
    fn wide_state_renders_as_rect_with_tooltip() {
        let f = test_file(vec![state(0, 0.0, 1.0)]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 800), &RenderOptions::default());
        assert!(svg.contains("class=\"state\""));
        assert!(svg.contains("#ff0000"));
        assert!(svg.contains("Line: 42"));
        assert!(svg.contains("PI_MAIN"));
    }

    #[test]
    fn narrow_states_become_preview_stripes() {
        // 1000 states of 1 µs each across 1 s: far below min_state_px at
        // 800 px, so nothing should render individually.
        let ds: Vec<_> = (0..1000)
            .map(|i| state(0, i as f64 * 1e-3, i as f64 * 1e-3 + 1e-6))
            .collect();
        let f = test_file(ds);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 800), &RenderOptions::default());
        assert!(!svg.contains("class=\"state\""));
        assert!(svg.contains("class=\"preview\""));
        assert!(svg.contains("class=\"stripe\""));
    }

    #[test]
    fn zooming_in_turns_stripes_into_rects() {
        let ds: Vec<_> = (0..1000)
            .map(|i| state(0, i as f64 * 1e-3, i as f64 * 1e-3 + 9e-4))
            .collect();
        let f = test_file(ds);
        // Zoomed to 5 ms: each 0.9 ms state is ~144 px wide.
        let svg = svg_string(
            &f,
            &Viewport::new(0.0, 0.005, 800),
            &RenderOptions::default(),
        );
        assert!(svg.contains("class=\"state\""));
    }

    #[test]
    fn events_render_as_bubbles() {
        let f = test_file(vec![Drawable::Event(EventDrawable {
            category: CategoryId(1),
            timeline: TimelineId(1),
            time: 0.5,
            text: "Chan: C3".into(),
        })]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.contains("class=\"bubble\""));
        assert!(svg.contains("Chan: C3"));
        assert!(svg.contains("#ffff00"));
    }

    #[test]
    fn arrows_connect_timelines() {
        let f = test_file(vec![Drawable::Arrow(ArrowDrawable {
            category: CategoryId(2),
            from_timeline: TimelineId(0),
            to_timeline: TimelineId(1),
            start: 0.2,
            end: 0.4,
            tag: 9,
            size: 128,
        })]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.contains("class=\"arrow\""));
        assert!(svg.contains("tag 9"));
        assert!(svg.contains("size 128B"));
    }

    #[test]
    fn visibility_toggle_hides_category() {
        let f = test_file(vec![
            state(0, 0.0, 1.0),
            Drawable::Event(EventDrawable {
                category: CategoryId(1),
                timeline: TimelineId(0),
                time: 0.5,
                text: String::new(),
            }),
        ]);
        let opts = RenderOptions {
            visible_categories: Some([CategoryId(1)].into_iter().collect()),
            ..Default::default()
        };
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &opts);
        assert!(!svg.contains("class=\"state\""));
        assert!(svg.contains("class=\"bubble\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let ds: Vec<_> = (0..100)
            .map(|i| state(i % 2, i as f64 * 0.01, i as f64 * 0.01 + 0.008))
            .collect();
        let f = test_file(ds);
        let vp = Viewport::new(0.0, 1.0, 640);
        let a = svg_string(&f, &vp, &RenderOptions::default());
        let b = svg_string(&f, &vp, &RenderOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn off_window_drawables_are_not_rendered() {
        let f = test_file(vec![state(0, 0.0, 1.0), state(0, 5.0, 6.0)]);
        let svg = svg_string(&f, &Viewport::new(4.5, 6.5, 400), &RenderOptions::default());
        // Only the second state is in the window.
        assert_eq!(svg.matches("class=\"state\"").count(), 1);
    }

    #[test]
    fn xml_specials_are_escaped() {
        let f = test_file(vec![Drawable::Event(EventDrawable {
            category: CategoryId(1),
            timeline: TimelineId(0),
            time: 0.5,
            text: "a<b & \"c\"".into(),
        })]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.contains("a&lt;b &amp; &quot;c&quot;"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn empty_file_renders_frame_only() {
        let f = test_file(vec![]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(!svg.contains("class=\"state\""));
    }

    #[test]
    fn overlay_highlights_path_and_dims_rest() {
        let f = test_file(vec![state(0, 0.0, 1.0), state(1, 0.2, 0.8)]);
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 0.4), (TimelineId(1), 0.5, 0.8)],
            hops: vec![(TimelineId(0), TimelineId(1), 0.4, 0.5)],
            dim_others: true,
        };
        let opts = RenderOptions::default().with_overlay(ov);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 800), &opts);
        assert_eq!(svg.matches("class=\"critical-path\"").count(), 2);
        assert_eq!(svg.matches("class=\"critical-hop\"").count(), 1);
        assert!(svg.contains("class=\"dim\""));
    }

    #[test]
    fn overlay_clips_to_viewport() {
        let f = test_file(vec![state(0, 0.0, 10.0)]);
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 1.0), (TimelineId(0), 8.0, 9.0)],
            hops: vec![],
            dim_others: false,
        };
        let opts = RenderOptions::default().with_overlay(ov);
        // Window [2, 5] excludes both segments entirely? No: [0,1] ends
        // before 2 and [8,9] starts after 5 — nothing drawn, no dim.
        let svg = svg_string(&f, &Viewport::new(2.0, 5.0, 400), &opts);
        assert!(!svg.contains("class=\"critical-path\""));
        assert!(!svg.contains("class=\"dim\""));
    }

    #[test]
    fn lane_split_draws_divider() {
        let f = test_file(vec![state(0, 0.0, 1.0), state(1, 0.2, 0.8)]);
        let opts = RenderOptions::default().with_lane_split(1);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &opts);
        assert_eq!(svg.matches("class=\"lane-split\"").count(), 1, "{svg}");
        // A split at row 0 or past the last row is meaningless: no line.
        for bad in [0, 2, 9] {
            let opts = RenderOptions::default().with_lane_split(bad);
            let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &opts);
            assert!(!svg.contains("lane-split"), "split {bad}: {svg}");
        }
    }

    /// `(length, FNV-1a digest)` of a render: the fixtures below pin
    /// whole documents byte for byte.
    fn pin(svg: &str) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in svg.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (svg.len(), h)
    }

    fn event(tl: u32, cat: u32, time: f64, text: &str) -> Drawable {
        Drawable::Event(EventDrawable {
            category: CategoryId(cat),
            timeline: TimelineId(tl),
            time,
            text: text.into(),
        })
    }

    fn arrow(from: u32, to: u32, cat: u32, start: f64, end: f64) -> Drawable {
        Drawable::Arrow(ArrowDrawable {
            category: CategoryId(cat),
            from_timeline: TimelineId(from),
            to_timeline: TimelineId(to),
            start,
            end,
            tag: 7,
            size: 4096,
        })
    }

    /// Every kind of drawable, nested and narrow states included.
    fn mixed() -> Vec<Drawable> {
        let mut ds = vec![
            state(0, 0.0, 1.0),
            Drawable::State(StateDrawable {
                nest_level: 1,
                ..state_of(0, 0.1, 0.6)
            }),
            Drawable::State(StateDrawable {
                nest_level: 9,
                ..state_of(0, 0.2, 0.3)
            }),
            state(1, 0.25, 0.5),
            event(1, 1, 0.375, "Chan: C1"),
            event(0, 1, 0.9, ""),
            arrow(0, 1, 2, 0.3, 0.45),
            arrow(1, 0, 2, 0.55, 0.7),
        ];
        ds.extend((0..40).map(|i| state(1, 0.6 + i as f64 * 1e-3, 0.6 + i as f64 * 1e-3 + 2e-5)));
        ds
    }

    fn state_of(tl: u32, start: f64, end: f64) -> StateDrawable {
        match state(tl, start, end) {
            Drawable::State(s) => s,
            _ => unreachable!(),
        }
    }

    #[test]
    fn fixture_lane_split() {
        let f = test_file(mixed());
        let opts = RenderOptions::default().with_lane_split(1);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 640), &opts);
        assert_eq!(pin(&svg), (5012, 7972153070638980106));
    }

    #[test]
    fn fixture_visible_categories() {
        let f = test_file(mixed());
        for (cats, want) in [
            (vec![0], (4260, 16682050392973128544)),
            (vec![1, 2], (2628, 13718878005931086051)),
            (vec![], (1994, 7269549518512813909)),
        ] {
            let opts = RenderOptions::default()
                .with_visible_categories(cats.iter().map(|&c| CategoryId(c)).collect());
            let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 640), &opts);
            assert_eq!(pin(&svg), want, "visible {cats:?}");
        }
    }

    #[test]
    fn fixture_xml_specials_in_names_and_text() {
        let mut ds = mixed();
        ds.push(Drawable::State(StateDrawable {
            text: "a<b & \"c\" > d".into(),
            ..state_of(1, 0.05, 0.2)
        }));
        ds.push(event(0, 1, 0.95, "<&\">"));
        let mut f = test_file(ds);
        f.categories[0].name = "R&D <\"x\">".into();
        f.categories[1].name = "<arrival>".into();
        f.timelines = vec!["<main & co>".into(), "\"P1\"".into()];
        let opts = RenderOptions {
            background: "#1&<\">".into(),
            ..Default::default()
        };
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 640), &opts);
        assert!(
            svg.contains("R&amp;D &lt;&quot;x&quot;&gt; [0.050000s"),
            "{svg}"
        );
        assert_eq!(pin(&svg), (5420, 12572823653605283658));
    }

    #[test]
    fn fixture_zero_length_states() {
        let ds = vec![
            state(0, 0.0, 0.0),
            state(0, 0.5, 0.5),
            state(1, 1.0, 1.0),
            state(1, 0.25, 0.75),
            event(1, 1, 0.5, "x"),
        ];
        let f = test_file(ds);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 640), &RenderOptions::default());
        assert_eq!(pin(&svg), (2304, 11315127197834863649));
    }

    #[test]
    fn fixture_states_straddling_the_window() {
        let f = test_file(mixed());
        for (t0, t1, want) in [
            (0.25, 0.75, (6055, 9834235936389164858)),
            (0.59, 0.61, (4712, 6658892538860600326)),
            (0.0, 0.3, (2970, 1168200672154325518)),
        ] {
            let svg = svg_string(&f, &Viewport::new(t0, t1, 640), &RenderOptions::default());
            assert_eq!(pin(&svg), want, "window [{t0}, {t1}]");
        }
    }

    #[test]
    fn fixture_unknown_categories_fall_back() {
        let ds = vec![
            Drawable::State(StateDrawable {
                category: CategoryId(7),
                ..state_of(0, 0.0, 1.0)
            }),
            Drawable::State(StateDrawable {
                category: CategoryId(8),
                ..state_of(1, 0.5, 0.50001)
            }),
            event(1, 9, 0.25, "lost"),
            arrow(0, 1, 9, 0.1, 0.2),
        ];
        let f = test_file(ds);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 640), &RenderOptions::default());
        assert_eq!(pin(&svg), (2705, 17940024247513044296));
    }

    #[test]
    fn fixture_multi_category_stripes() {
        // Narrow states of three categories interleaved in the same
        // buckets, in descending category order, with uneven widths.
        let ds: Vec<_> = (0..300)
            .map(|i| {
                let t = 0.2 + (i / 3) as f64 * 2e-3 + (i % 3) as f64 * 1e-4;
                Drawable::State(StateDrawable {
                    category: CategoryId(2 - i % 3),
                    ..state_of(i % 2, t, t + 1e-5 * (1 + i % 7) as f64)
                })
            })
            .collect();
        let f = test_file(ds);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 640), &RenderOptions::default());
        assert_eq!(pin(&svg), (26556, 16603529053865440996));
    }

    #[test]
    fn fixture_overlay() {
        let f = test_file(mixed());
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 0.4), (TimelineId(1), 0.5, 0.8)],
            hops: vec![(TimelineId(0), TimelineId(1), 0.4, 0.5)],
            dim_others: true,
        };
        let opts = RenderOptions::default().with_overlay(ov);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 640), &opts);
        assert_eq!(pin(&svg), (5590, 17358448747913497556));
    }

    #[test]
    fn overlay_helpers_measure_path_seconds() {
        let ov = PathOverlay {
            segments: vec![(TimelineId(1), 1.0, 3.0), (TimelineId(1), 5.0, 6.0)],
            hops: vec![],
            dim_others: false,
        };
        assert!((ov.seconds_on(TimelineId(1), 0.0, 10.0) - 3.0).abs() < 1e-12);
        assert!((ov.seconds_on(TimelineId(1), 2.0, 5.5) - 1.5).abs() < 1e-12);
        assert_eq!(ov.seconds_on(TimelineId(0), 0.0, 10.0), 0.0);
        assert!(ov.on_path(TimelineId(1), 3.0, 4.0)); // touching counts
        assert!(!ov.on_path(TimelineId(1), 3.5, 4.5));
    }
}

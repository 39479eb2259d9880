//! The unified render entry point.
//!
//! The ascii, html, svg, and histogram views each grew their own free
//! function with its own window-argument convention. [`Renderer`] puts
//! them behind one trait so every consumer — the `jumpshot` CLI and the
//! `pilotd` query service alike — drives all four backends through the
//! same `(file, options) -> String` code path, with the window expressed
//! as a [`TimeWindow`] in [`RenderOptions`].

use slog2::{Slog2File, TimeWindow};

use crate::render::RenderOptions;
use crate::viewport::Viewport;

/// A rendering backend: turns a file plus options into one document.
pub trait Renderer {
    /// The MIME type of what [`render`](Renderer::render) produces, as
    /// an HTTP server should label it.
    fn content_type(&self) -> &'static str;

    /// Render `file` using `opts`. The window is
    /// `opts.window.unwrap_or(file.range)`; implementations must be
    /// deterministic (same inputs, same bytes).
    fn render(&self, file: &Slog2File, opts: &RenderOptions) -> String;
}

/// The window every backend renders: `opts.window`, or the file's
/// range. A NaN bound (say, `t0=NaN` parsed from a query string) is
/// replaced by the file range's bound on that side, so no backend ever
/// sees a window it cannot order.
pub(crate) fn effective_window(file: &Slog2File, opts: &RenderOptions) -> TimeWindow {
    let Some(w) = opts.window else {
        return file.range;
    };
    let or_range = |t: f64, bound: f64| if t.is_nan() { bound } else { t };
    TimeWindow::new(or_range(w.t0, file.range.t0), or_range(w.t1, file.range.t1))
}

/// The SVG timeline canvas (states, preview stripes, bubbles, arrows).
#[derive(Debug, Clone, Copy, Default)]
pub struct SvgRenderer;

impl Renderer for SvgRenderer {
    fn content_type(&self) -> &'static str {
        "image/svg+xml"
    }

    fn render(&self, file: &Slog2File, opts: &RenderOptions) -> String {
        let w = effective_window(file, opts);
        let vp = Viewport::new(w.t0, w.t1.max(w.t0 + f64::MIN_POSITIVE), opts.width.max(1))
            .clamp_to(file.range);
        crate::render::svg_string(file, &vp, opts)
    }
}

/// The plain-text timeline view. `opts.width` is interpreted as a
/// character count here, not pixels.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsciiRenderer;

impl Renderer for AsciiRenderer {
    fn content_type(&self) -> &'static str {
        "text/plain; charset=utf-8"
    }

    fn render(&self, file: &Slog2File, opts: &RenderOptions) -> String {
        crate::ascii::ascii_string(file, effective_window(file, opts), opts)
    }
}

/// The self-contained interactive HTML page (embedded SVG + legend
/// table + warnings + pan/zoom script).
#[derive(Debug, Clone, Copy, Default)]
pub struct HtmlRenderer;

impl Renderer for HtmlRenderer {
    fn content_type(&self) -> &'static str {
        "text/html; charset=utf-8"
    }

    fn render(&self, file: &Slog2File, opts: &RenderOptions) -> String {
        crate::html::html_string(file, opts)
    }
}

/// The duration-statistics histogram (per-timeline stacked bars).
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramRenderer;

impl Renderer for HistogramRenderer {
    fn content_type(&self) -> &'static str {
        "image/svg+xml"
    }

    fn render(&self, file: &Slog2File, opts: &RenderOptions) -> String {
        crate::histogram::histogram_string(file, effective_window(file, opts), opts)
    }
}

/// Look a renderer up by its wire name (`svg`, `ascii`, `html`,
/// `hist`). This is the one switch shared by the CLI and the server.
pub fn renderer_by_name(name: &str) -> Option<Box<dyn Renderer + Send + Sync>> {
    match name {
        "svg" | "render" => Some(Box::new(SvgRenderer)),
        "ascii" | "text" => Some(Box::new(AsciiRenderer)),
        "html" => Some(Box::new(HtmlRenderer)),
        "hist" | "histogram" => Some(Box::new(HistogramRenderer)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::PathOverlay;
    use mpelog::Color;
    use slog2::{
        Category, CategoryId, CategoryKind, Drawable, FrameTree, StateDrawable, TimelineId,
    };

    fn file() -> Slog2File {
        let ds = vec![Drawable::State(StateDrawable {
            category: CategoryId(0),
            timeline: TimelineId(0),
            start: 0.0,
            end: 1.0,
            nest_level: 0,
            text: "Line: 7".into(),
        })];
        Slog2File {
            timelines: vec!["PI_MAIN".into()],
            categories: vec![Category {
                index: CategoryId(0),
                name: "PI_Write".into(),
                color: Color::GREEN,
                kind: CategoryKind::State,
            }],
            range: TimeWindow::new(0.0, 1.0),
            warnings: vec![],
            tree: FrameTree::build(ds, 0.0, 1.0, 8, 4),
        }
    }

    #[test]
    fn every_backend_renders_something() {
        let f = file();
        let opts = RenderOptions::default();
        for (name, prefix) in [
            ("svg", "<svg"),
            ("ascii", "PI_MAIN"),
            ("html", "<!DOCTYPE html>"),
            ("hist", "<svg"),
        ] {
            let r = renderer_by_name(name).unwrap();
            let out = r.render(&f, &opts);
            assert!(
                out.starts_with(prefix),
                "{name}: {}",
                &out[..40.min(out.len())]
            );
            assert!(!r.content_type().is_empty());
        }
        assert!(renderer_by_name("nope").is_none());
    }

    #[test]
    fn windowed_svg_render_clips() {
        let f = file();
        let opts = RenderOptions::default().with_window(TimeWindow::new(2.0, 3.0));
        // Window past all activity, clamped back into range: still valid SVG.
        let svg = SvgRenderer.render(&f, &opts);
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn all_four_backends_render_the_overlay() {
        let f = file();
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 1.0)],
            hops: vec![],
            dim_others: false,
        };
        let opts = RenderOptions::default().with_overlay(ov);
        for (name, marker) in [
            ("svg", "class=\"critical-path\""),
            ("ascii", "critical path: 1 segment(s)"),
            ("html", "class=\"critical-path\""),
            ("hist", "(crit 1.0000s)"),
        ] {
            let out = renderer_by_name(name).unwrap().render(&f, &opts);
            assert!(out.contains(marker), "{name} missing overlay: {out}");
        }
    }

    #[test]
    fn nan_window_bounds_fall_back_to_the_file_range() {
        let f = file();
        for name in ["svg", "ascii", "html", "hist"] {
            let r = renderer_by_name(name).unwrap();
            for (w, same_as) in [
                (TimeWindow::new(f64::NAN, 0.5), TimeWindow::new(0.0, 0.5)),
                (TimeWindow::new(0.25, f64::NAN), TimeWindow::new(0.25, 1.0)),
                (TimeWindow::new(f64::NAN, f64::NAN), f.range),
                (TimeWindow::new(2.0, f64::NAN), TimeWindow::new(1.0, 2.0)),
            ] {
                let got = r.render(&f, &RenderOptions::default().with_window(w));
                let want = r.render(&f, &RenderOptions::default().with_window(same_as));
                assert_eq!(got, want, "{name} window {w:?}");
            }
        }
    }

    #[test]
    fn trait_object_dispatch_works() {
        let f = file();
        let backends: Vec<Box<dyn Renderer + Send + Sync>> = vec![
            Box::new(SvgRenderer),
            Box::new(AsciiRenderer),
            Box::new(HtmlRenderer),
            Box::new(HistogramRenderer),
        ];
        for b in &backends {
            assert!(!b.render(&f, &RenderOptions::default()).is_empty());
        }
    }
}

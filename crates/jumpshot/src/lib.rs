//! # jumpshot — a headless Jumpshot-4 equivalent
//!
//! Jumpshot-4 is the Argonne viewer for SLOG-2 files: per-process
//! timelines with state rectangles, event "bubbles" and message arrows,
//! seamless zoom at any level (drawing proportional colour stripes when
//! a region is too dense to show individual states), a legend table with
//! count / inclusive / exclusive statistics, and a search-and-scan
//! facility. This crate reproduces those capabilities as a deterministic
//! renderer with SVG output, so every figure of the paper can be
//! regenerated and *asserted on* in tests:
//!
//! * [`viewport`] — the zoom/scroll model (time ↔ pixel mapping).
//! * [`render`] — SVG timeline canvas. Per drawable it makes the same
//!   decision Jumpshot makes: wide enough → individual rectangle;
//!   otherwise it contributes to a per-bucket *preview stripe* whose
//!   bands show each category's share (the outlined rectangles of the
//!   paper's Fig. 1). Popup content becomes SVG `<title>` tooltips.
//! * [`legend`] — the legend table (sortable, with visibility toggles).
//! * [`histogram`] — the duration-statistics window ("draw a picture
//!   from user-selected duration"), including the load-imbalance
//!   indicator.
//! * [`search`] — search-and-scan over the frame tree.
//! * [`renderer`] — the unified [`Renderer`] trait putting the svg,
//!   ascii, html, and histogram backends behind one
//!   `(file, RenderOptions) -> String` entry point, shared by this
//!   crate's CLI and the `pilotd` query service.
//! * [`popup`] — the popup info model, including a faithful reproduction
//!   of the text-reordering bug the paper hit ("%d lines" displaying as
//!   "lines 42") and the literal-prefix workaround it adopted.

pub mod ascii;
pub mod histogram;
pub mod html;
pub mod legend;
pub mod popup;
pub mod render;
pub mod renderer;
pub mod search;
mod svgout;
pub mod viewport;

pub use histogram::{duration_stats, load_imbalance, TimelineHistogram};
pub use legend::{render_legend_text, Legend, LegendRow, LegendSort};
pub use popup::{jumpshot_display, InfoArg};
pub use render::{PathOverlay, RenderOptions};
pub use renderer::{
    renderer_by_name, AsciiRenderer, HistogramRenderer, HtmlRenderer, Renderer, SvgRenderer,
};
pub use search::{find_next, find_prev, scan, SearchQuery};
pub use viewport::Viewport;

//! Self-contained interactive HTML export.
//!
//! The paper's pedagogical pitch is that "one can interact with the
//! display" — walking a class through the timeline, zooming into
//! regions. The Swing GUI is out of scope, but this module produces a
//! single HTML file embedding the rendered SVG plus a small script for
//! grasp-and-scroll (drag) and wheel zoom via `viewBox` manipulation,
//! with the legend as an HTML table beside it.
//!
//! Limitation (documented): the geometry is rendered once at the full
//! range, so preview stripes do not re-resolve into individual
//! rectangles as you zoom — use the CLI's `render --window` for a true
//! re-render of a sub-range.

use std::fmt::Write as _;

use slog2::Slog2File;

use crate::legend::{Legend, LegendSort};
use crate::render::{svg_string, RenderOptions};
use crate::viewport::Viewport;

pub(crate) fn html_string(file: &Slog2File, opts: &RenderOptions) -> String {
    // Render wide so zooming has detail to reveal.
    let w = crate::renderer::effective_window(file, opts);
    let vp = Viewport::new(w.t0, w.t1.max(w.t0 + f64::MIN_POSITIVE), 2400).clamp_to(file.range);
    let svg = svg_string(file, &vp, opts);
    let legend = Legend::for_file(file);

    let mut rows = String::new();
    for r in legend.sorted(LegendSort::Index) {
        let _ = writeln!(
            rows,
            "<tr><td><span class=\"swatch\" style=\"background:{}\"></span></td>\
             <td>{}</td><td>{}</td><td>{:.6}</td><td>{:.6}</td></tr>",
            r.color,
            html_escape(&r.name),
            r.count,
            r.inclusive,
            r.exclusive
        );
    }

    let mut warn = String::new();
    if !file.warnings.is_empty() {
        warn.push_str("<details><summary>converter warnings</summary><ul>");
        for w in &file.warnings {
            let _ = write!(warn, "<li>{}</li>", html_escape(w));
        }
        warn.push_str("</ul></details>");
    }

    format!(
        r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Pilot log visualization</title>
<style>
  body {{ background: #181820; color: #ddd; font-family: monospace; margin: 0; }}
  #wrap {{ display: flex; gap: 12px; padding: 12px; }}
  #canvas {{ flex: 1; border: 1px solid #444; overflow: hidden; cursor: grab; }}
  #canvas svg {{ display: block; width: 100%; height: auto; }}
  table {{ border-collapse: collapse; font-size: 12px; }}
  td, th {{ border: 1px solid #444; padding: 2px 6px; }}
  .swatch {{ display: inline-block; width: 12px; height: 12px; border: 1px solid #000; }}
  #hint {{ padding: 0 12px 12px; color: #888; font-size: 12px; }}
</style>
</head>
<body>
<div id="wrap">
  <div id="canvas">{svg}</div>
  <div>
    <table>
      <tr><th></th><th>name</th><th>count</th><th>incl(s)</th><th>excl(s)</th></tr>
      {rows}
    </table>
    {warn}
  </div>
</div>
<div id="hint">drag to scroll &middot; wheel to zoom &middot; double-click to reset</div>
<script>
(function() {{
  const svg = document.querySelector('#canvas svg');
  if (!svg) return;
  const vb0 = svg.getAttribute('viewBox').split(' ').map(Number);
  let vb = vb0.slice();
  const apply = () => svg.setAttribute('viewBox', vb.join(' '));
  let drag = null;
  svg.addEventListener('mousedown', e => {{ drag = {{x: e.clientX, y: e.clientY, vb: vb.slice()}}; }});
  window.addEventListener('mouseup', () => {{ drag = null; }});
  window.addEventListener('mousemove', e => {{
    if (!drag) return;
    const scale = vb[2] / svg.clientWidth;
    vb[0] = drag.vb[0] - (e.clientX - drag.x) * scale;
    vb[1] = drag.vb[1] - (e.clientY - drag.y) * scale;
    apply();
  }});
  svg.addEventListener('wheel', e => {{
    e.preventDefault();
    const f = e.deltaY < 0 ? 0.8 : 1.25;
    const r = svg.getBoundingClientRect();
    const cx = vb[0] + (e.clientX - r.left) / r.width * vb[2];
    vb[0] = cx - (cx - vb[0]) * f;
    vb[2] *= f;
    apply();
  }}, {{passive: false}});
  svg.addEventListener('dblclick', () => {{ vb = vb0.slice(); apply(); }});
}})();
</script>
</body>
</html>
"#
    )
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::PathOverlay;
    use mpelog::Color;
    use slog2::{
        Category, CategoryId, CategoryKind, Drawable, FrameTree, StateDrawable, TimeWindow,
        TimelineId,
    };

    fn file() -> Slog2File {
        let ds = vec![Drawable::State(StateDrawable {
            category: CategoryId(0),
            timeline: TimelineId(0),
            start: 0.0,
            end: 1.0,
            nest_level: 0,
            text: "Line: 3".into(),
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
            warnings: vec!["Equal Drawables: demo".into()],
            tree: FrameTree::build(ds, 0.0, 1.0, 8, 4),
        }
    }

    #[test]
    fn html_embeds_svg_legend_and_warnings() {
        let html = html_string(&file(), &RenderOptions::default());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("PI_Write"));
        assert!(html.contains("#00ff00"));
        assert!(html.contains("Equal Drawables: demo"));
        assert!(html.contains("viewBox"));
        assert!(html.contains("addEventListener"));
    }

    #[test]
    fn html_page_inherits_critical_path_overlay() {
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 1.0)],
            hops: vec![],
            dim_others: true,
        };
        let html = html_string(&file(), &RenderOptions::default().with_overlay(ov));
        assert!(html.contains("class=\"critical-path\""));
        assert!(html.contains("class=\"dim\""));
    }

    #[test]
    fn html_escapes_warning_text() {
        let mut f = file();
        f.warnings = vec!["a<b & c".into()];
        let html = html_string(&f, &RenderOptions::default());
        assert!(html.contains("a&lt;b &amp; c"));
    }
}

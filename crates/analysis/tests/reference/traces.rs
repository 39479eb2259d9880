//! Random traces built to break an indexed analysis that is only
//! *almost* equal to the per-call reference:
//!
//! * times on a coarse half-second grid, so receives tie with sends,
//!   arrows land exactly on block edges, and blocks touch, nest or
//!   have zero length;
//! * drifted arrows (receive before send);
//! * `±0.0`, NaN and `±inf` endpoints;
//! * timelines that carry no state at all;
//! * a small frame-tree capacity, so the query order is a deep
//!   tree walk rather than insertion order;
//! * optionally no Pilot blocking categories at all.

use mpelog::Color;
use proptest::prelude::*;
use slog2::{
    ArrowDrawable, Category, CategoryId, CategoryKind, Drawable, EventDrawable, FrameTree,
    Slog2File, StateDrawable, TimeWindow, TimelineId,
};

/// Category layout: 0 Compute, 1 PI_Read, 2 PI_Select, 3 PI_Write,
/// 4 ABORTED (states), 5 msg arrival (event), 6 message (arrow).
const CATEGORIES: [(&str, CategoryKind); 7] = [
    ("Compute", CategoryKind::State),
    ("PI_Read", CategoryKind::State),
    ("PI_Select", CategoryKind::State),
    ("PI_Write", CategoryKind::State),
    ("ABORTED", CategoryKind::State),
    ("msg arrival", CategoryKind::Event),
    ("message", CategoryKind::Arrow),
];

/// A timestamp: mostly on the half-second grid, sometimes signed
/// zero, non-finite or off-grid.
pub fn time() -> impl Strategy<Value = f64> {
    (0u32..20, 0u32..24, 0.0f64..12.0).prop_map(|(pick, k, x)| match pick {
        0 => -0.0,
        1 => 0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5..=7 => x,
        _ => f64::from(k) * 0.5,
    })
}

/// An end time after `start`: a grid step (zero-length included), a
/// drifted half step before it, or (pick 7) an independent wild time.
fn end_after(start: f64, pick: i32, wild: f64) -> f64 {
    if pick < 7 {
        start + f64::from(pick - 1) * 0.5
    } else {
        wild
    }
}

/// One drawable on timelines `0..max_tl`.
pub fn drawable(max_tl: u32) -> impl Strategy<Value = Drawable> {
    let state =
        (0u32..11, 0..max_tl, time(), 0i32..8, time()).prop_map(|(pick, tl, start, step, wild)| {
            // Compute, then PI_Read, PI_Select, PI_Write, ABORTED in
            // falling proportions.
            let cat = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4][pick as usize];
            Drawable::State(StateDrawable {
                category: CategoryId(cat),
                timeline: TimelineId(tl),
                start,
                end: end_after(start, step, wild),
                nest_level: u32::from(cat != 0),
                text: String::new(),
            })
        });
    let arrow = ((0..max_tl, 0..max_tl), time(), 0i32..8, time(), 0u32..3).prop_map(
        |((from, to), send, step, wild, tag)| {
            Drawable::Arrow(ArrowDrawable {
                category: CategoryId(6),
                from_timeline: TimelineId(from),
                to_timeline: TimelineId(to),
                start: send,
                end: end_after(send, step, wild),
                tag,
                size: 8,
            })
        },
    );
    let event = (0..max_tl, time()).prop_map(|(tl, time)| {
        Drawable::Event(EventDrawable {
            category: CategoryId(5),
            timeline: TimelineId(tl),
            time,
            text: String::new(),
        })
    });
    let (state, arrow) = (state.boxed(), arrow.boxed());
    prop_oneof![state.clone(), state, arrow.clone(), arrow, event]
}

/// A random trace description.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The drawables, in insertion order.
    pub drawables: Vec<Drawable>,
    /// Timeline names (at least one more than the drawables use, so
    /// some timeline is always empty).
    pub timelines: Vec<String>,
    /// Whether `PI_Read`/`PI_Select` keep their well-known names.
    pub blocking: bool,
    /// Frame-tree leaf capacity.
    pub capacity: usize,
}

/// A trace over up to `max_tl` timelines with drawables, with up to
/// `max_drawables` drawables.
pub fn spec(max_tl: u32, max_drawables: usize) -> impl Strategy<Value = Spec> {
    (
        proptest::collection::vec(drawable(max_tl), 0..max_drawables),
        1..=max_tl,
        0u32..5,
        2usize..9,
        any::<u64>(),
    )
        .prop_map(move |(mut drawables, ntl, flags, capacity, names)| {
            // Fold timelines onto the first `ntl`; `ntl..=max_tl` stay
            // empty.
            for d in &mut drawables {
                match d {
                    Drawable::State(s) => s.timeline.0 %= ntl,
                    Drawable::Event(e) => e.timeline.0 %= ntl,
                    Drawable::Arrow(a) => {
                        a.from_timeline.0 %= ntl;
                        a.to_timeline.0 %= ntl;
                    }
                }
            }
            // Names from a small pool (duplicates allowed) so alignment
            // exercises both its by-name and its positional pass.
            let pool = ["W0", "W1", "W2", "W3"];
            let timelines = (0..=max_tl)
                .map(|i| {
                    if i == 0 && flags % 2 == 0 {
                        "PI_MAIN".to_string()
                    } else {
                        pool[((names >> (2 * i)) & 3) as usize].to_string()
                    }
                })
                .collect();
            Spec {
                drawables,
                timelines,
                blocking: flags != 0,
                capacity,
            }
        })
}

impl Spec {
    /// Build the file.
    pub fn file(&self) -> Slog2File {
        let categories = CATEGORIES
            .iter()
            .enumerate()
            .map(|(i, &(name, kind))| {
                let name = match (self.blocking, name) {
                    (false, "PI_Read") => "Recv",
                    (false, "PI_Select") => "Poll",
                    _ => name,
                };
                Category {
                    index: CategoryId(i as u32),
                    name: name.into(),
                    color: Color::GRAY,
                    kind,
                }
            })
            .collect();
        let (mut t0, mut t1) = (0.0f64, 1.0f64);
        for d in &self.drawables {
            if d.start().is_finite() {
                t0 = t0.min(d.start());
            }
            if d.end().is_finite() {
                t1 = t1.max(d.end());
            }
        }
        Slog2File {
            timelines: self.timelines.clone(),
            categories,
            range: TimeWindow::new(t0, t1),
            warnings: vec![],
            tree: FrameTree::build(self.drawables.clone(), t0, t1, self.capacity, 6),
        }
    }
}

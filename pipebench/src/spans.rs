//! The benchmark's own spans: name, start, end, parent and session,
//! kept in memory and written out as Chrome trace-event JSON when the
//! run ends. Spans are recorded around calls into each layer from the
//! benchmark's side; none are added inside the program.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One completed span. Times are microseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// One id per session: a pipeline pass or a zoom/pan session.
    pub session: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Client thread that recorded the span.
    pub tid: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span that is open; see [`SpanLog::open`].
pub struct Open {
    id: Option<u64>,
    parent: Option<u64>,
    session: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id to give child spans as their parent (`None` when the log
    /// is disabled).
    pub fn id(&self) -> Option<u64> {
        self.id
    }
}

/// Per-thread span sink. When disabled it still times the spans it is
/// given (the untraced run needs the durations) but keeps nothing.
pub struct SpanLog {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            tid,
            enabled,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.tid) << 48) | self.next
    }

    /// Open a span; [`close`](Self::close) records it and returns its
    /// duration. Disabled logs still time, but record nothing.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, session: u64) -> Open {
        Open {
            id: self.enabled.then(|| self.fresh_id()),
            parent,
            session,
            name,
            start: Instant::now(),
        }
    }

    pub fn close(&mut self, o: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = o.id {
            self.push(id, o.parent, o.session, o.name, o.start, end);
        }
        end - o.start
    }

    fn push(
        &mut self,
        id: u64,
        parent: Option<u64>,
        session: u64,
        name: &str,
        s: Instant,
        e: Instant,
    ) {
        let span = Span {
            id,
            parent,
            session,
            name: name.to_string(),
            start_us: self.us(s),
            end_us: self.us(e),
            tid: self.tid,
        };
        self.spans.push(span);
    }

    /// Adopt spans a layer recorded in its own `obs::Tracer` (whose
    /// timestamps count from `tracer_epoch`) as children of `parent`,
    /// each renamed `prefix.<name>`.
    pub fn adopt(
        &mut self,
        parent: Option<u64>,
        session: u64,
        prefix: &str,
        tracer_epoch: Instant,
        events: &[obs::TraceEvent],
    ) {
        if !self.enabled {
            return;
        }
        for ev in events {
            let s = tracer_epoch + Duration::from_micros(ev.ts_us);
            let e = s + Duration::from_micros(ev.dur_us);
            let id = self.fresh_id();
            self.push(id, parent, session, &format!("{prefix}.{}", ev.name), s, e);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval its children cover (children clipped to the parent, and
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.dur_us() - covered).max(0.0))
        })
        .collect()
}

/// What a composite time leaves once the layer times inside it are
/// taken away: the `unattributed` remainder. It is negative only by
/// measurement noise; callers check it against a tolerance.
pub fn remainder(composite: f64, layers: &[f64]) -> f64 {
    composite - layers.iter().sum::<f64>()
}

/// Layer spans whose self times make up `first_tile_s`: the upload's
/// parse, conversion (stages included), index build and the cold tile.
pub const FIRST_TILE_LAYERS: [&str; 9] = [
    "mpelog.parse",
    "slog2.convert",
    "slog2.scan",
    "slog2.merge",
    "slog2.arrow-match",
    "slog2.diagnose",
    "slog2.tree-build",
    "timeline.index_build",
    "timeline.tile_cold",
];

/// Per session that uploaded a trace: the client-measured composite
/// from the start of `from` to the end of `to`, minus the summed self
/// times of the `layers` spans of that session. Seconds.
pub fn unattributed(spans: &[Span], from: &str, to: &str, layers: &[&str]) -> Vec<(f64, f64)> {
    let selfs = self_times(spans);
    let mut sessions: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        sessions.entry(s.session).or_default().push(s);
    }
    let mut out: Vec<(u64, f64, f64)> = sessions
        .into_iter()
        .filter_map(|(session, ss)| {
            let start = ss.iter().find(|s| s.name == from)?.start_us;
            let end = ss.iter().find(|s| s.name == to)?.end_us;
            let layer_us: Vec<f64> = ss
                .iter()
                .filter(|s| layers.contains(&s.name.as_str()))
                .map(|s| selfs[&s.id])
                .collect();
            if layer_us.is_empty() {
                return None;
            }
            let composite = (end - start) / 1e6;
            let layer_s: Vec<f64> = layer_us.iter().map(|us| us / 1e6).collect();
            Some((session, composite, remainder(composite, &layer_s)))
        })
        .collect();
    out.sort_by_key(|(session, ..)| *session);
    out.into_iter().map(|(_, c, r)| (c, r)).collect()
}

/// Whether a remainder is non-negative within `tolerance` (a share of
/// the composite).
pub fn remainder_ok(composite: f64, remainder: f64, tolerance: f64) -> bool {
    remainder >= -tolerance * composite.abs()
}

/// The spans as Chrome trace-event JSON; `args` carries id, parent and
/// session so the tree survives the export.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":{:?},\"cat\":\"pipebench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"session\":{}}}}}",
            s.name,
            s.start_us,
            s.dur_us(),
            s.tid,
            s.id,
            parent,
            s.session
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            session: 1,
            name: format!("s{id}"),
            start_us: a,
            end_us: b,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 40.0),
            span(3, Some(1), 30.0, 50.0),  // overlaps 2
            span(4, Some(1), 90.0, 120.0), // runs past the parent
            span(5, Some(2), 10.0, 20.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100.0 - 40.0 - 10.0);
        assert_eq!(st[&2], 20.0);
        assert_eq!(st[&5], 10.0);
        // Self times of a fully covered tree add up to the root.
        let tree = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 4.0, 9.0),
        ];
        let st = self_times(&tree);
        assert_eq!(st.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn unattributed_subtracts_layer_self_times_per_session() {
        let mut spans = vec![
            span(1, None, 0.0, 1000.0),       // upload
            span(2, None, 1000.0, 1500.0),    // first_tile
            span(3, None, 2000.0, 2900.0),    // replay parent
            span(4, Some(3), 2000.0, 2300.0), // parse
            span(5, Some(3), 2300.0, 2800.0), // convert
            span(6, Some(5), 2300.0, 2500.0), // a convert stage
        ];
        for (s, name) in spans
            .iter_mut()
            .zip(["upload", "first_tile", "oracle", "p", "c", "c.s"])
        {
            s.name = name.into();
        }
        let u = unattributed(&spans, "upload", "first_tile", &["p", "c", "c.s"]);
        assert_eq!(u.len(), 1);
        let (composite, rest) = u[0];
        assert!((composite - 1500e-6).abs() < 1e-12);
        // Parse 300 + convert self 300 + stage 200 = 800 µs of layers.
        assert!((rest - 700e-6).abs() < 1e-12);
        assert!(remainder_ok(composite, rest, 0.0));
        // A session without the composite's spans contributes nothing.
        assert!(unattributed(&spans, "upload", "verdict", &["p"]).is_empty());
    }

    #[test]
    fn unattributed_remainder_is_non_negative_within_tolerance() {
        // Layers measured on a replay sum to slightly more than the
        // composite: noise, accepted within 5 %.
        let r = remainder(1.00, &[0.40, 0.35, 0.27]);
        assert!(r < 0.0);
        assert!(remainder_ok(1.00, r, 0.05));
        assert!(!remainder_ok(1.00, remainder(1.0, &[0.8, 0.4]), 0.05));
        let r = remainder(2.0, &[0.5, 0.5]);
        assert_eq!(r, 1.0);
        assert!(remainder_ok(2.0, r, 0.0));
    }

    #[test]
    fn disabled_log_times_but_keeps_nothing() {
        let mut log = SpanLog::new(Instant::now(), 0, false);
        let o = log.open("x", None, 1);
        assert!(o.id().is_none());
        assert!(log.close(o) >= Duration::ZERO);
        assert!(log.into_spans().is_empty());

        let mut log = SpanLog::new(Instant::now(), 3, true);
        let outer = log.open("outer", None, 9);
        let inner = log.open("inner", outer.id(), 9);
        log.close(inner);
        log.close(outer);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(chrome_json(&spans).contains("\"session\":9"));
    }
}

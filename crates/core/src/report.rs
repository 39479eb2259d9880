//! Machine-readable run reports (JSON) — what the benchmark harness
//! stores next to each regenerated figure.

use slog2::{TimeWindow, TimelineId};

use ::analysis::TraceAnalyzer;

use crate::json::Json;
use crate::pipeline::VisRun;

/// One legend row in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportLegendRow {
    /// Category name.
    pub name: String,
    /// Colour hex.
    pub color: String,
    /// Instance count.
    pub count: u64,
    /// Inclusive seconds.
    pub inclusive: f64,
    /// Exclusive seconds.
    pub exclusive: f64,
}

/// Per-timeline activity in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTimeline {
    /// Rank.
    pub rank: u32,
    /// Display name.
    pub name: String,
    /// Seconds in the Compute state.
    pub compute_span: f64,
    /// Seconds blocked (PI_Read / PI_Select).
    pub blocked: f64,
    /// Computing seconds (compute minus blocked).
    pub busy: f64,
}

/// The full report for one visualized run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Whether the run was clean.
    pub clean: bool,
    /// Global time range of the log.
    pub range: TimeWindow,
    /// Total drawables.
    pub drawables: usize,
    /// Conversion warnings (stringified).
    pub warnings: Vec<String>,
    /// Legend rows.
    pub legend: Vec<ReportLegendRow>,
    /// Per-timeline activity.
    pub timelines: Vec<ReportTimeline>,
    /// Overlap fraction across the worker timelines (ranks ≥ 1).
    pub worker_overlap: f64,
    /// Per-worker idle time before the first message arrival.
    pub idle_until_first_arrival: Vec<(u32, f64)>,
    /// Wrap-up seconds, if measured.
    pub wrapup_seconds: Option<f64>,
}

/// Build a report from a visualized run. `None` if the run produced no
/// log.
pub fn run_report(run: &VisRun) -> Option<RunReport> {
    let slog = run.slog.as_ref()?;
    let az = TraceAnalyzer::new(slog);
    let legend = jumpshot::Legend::for_file(slog);
    let legend_rows = legend
        .rows()
        .iter()
        .map(|r| ReportLegendRow {
            name: r.name.clone(),
            color: r.color.clone(),
            count: r.count,
            inclusive: r.inclusive,
            exclusive: r.exclusive,
        })
        .collect();
    let timelines: Vec<ReportTimeline> = slog
        .timelines
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let act = az.timeline_activity(TimelineId(i as u32));
            ReportTimeline {
                rank: i as u32,
                name: name.clone(),
                compute_span: act.compute_span,
                blocked: act.blocked,
                busy: act.busy,
            }
        })
        .collect();
    let workers: Vec<TimelineId> = (1..slog.timelines.len() as u32).map(TimelineId).collect();
    RunReport {
        clean: run.is_clean(),
        range: slog.range,
        drawables: slog.total_drawables(),
        warnings: run.warnings.iter().map(|w| w.to_string()).collect(),
        legend: legend_rows,
        worker_overlap: az.parallel_overlap(&workers, None),
        idle_until_first_arrival: az
            .idle_until_first_arrival()
            .into_iter()
            .map(|(tl, idle)| (tl.as_u32(), idle))
            .collect(),
        timelines,
        wrapup_seconds: run.outcome.artifacts.wrapup_seconds,
    }
    .into()
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn string(v: &Json, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?
        .to_string())
}

fn arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

impl ReportLegendRow {
    fn to_value(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("color", Json::Str(self.color.clone())),
            ("count", Json::Num(self.count as f64)),
            ("inclusive", Json::Num(self.inclusive)),
            ("exclusive", Json::Num(self.exclusive)),
        ])
    }

    fn from_value(v: &Json) -> Result<ReportLegendRow, String> {
        Ok(ReportLegendRow {
            name: string(v, "name")?,
            color: string(v, "color")?,
            count: field(v, "count")?
                .as_u64()
                .ok_or_else(|| "field `count` is not an integer".to_string())?,
            inclusive: num(v, "inclusive")?,
            exclusive: num(v, "exclusive")?,
        })
    }
}

impl ReportTimeline {
    fn to_value(&self) -> Json {
        obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            ("name", Json::Str(self.name.clone())),
            ("compute_span", Json::Num(self.compute_span)),
            ("blocked", Json::Num(self.blocked)),
            ("busy", Json::Num(self.busy)),
        ])
    }

    fn from_value(v: &Json) -> Result<ReportTimeline, String> {
        Ok(ReportTimeline {
            rank: field(v, "rank")?
                .as_u64()
                .ok_or_else(|| "field `rank` is not an integer".to_string())?
                as u32,
            name: string(v, "name")?,
            compute_span: num(v, "compute_span")?,
            blocked: num(v, "blocked")?,
            busy: num(v, "busy")?,
        })
    }
}

impl RunReport {
    /// The report as a JSON value tree.
    pub fn to_value(&self) -> Json {
        obj(vec![
            ("clean", Json::Bool(self.clean)),
            (
                "range",
                Json::Arr(vec![Json::Num(self.range.t0), Json::Num(self.range.t1)]),
            ),
            ("drawables", Json::Num(self.drawables as f64)),
            (
                "warnings",
                Json::Arr(self.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
            ),
            (
                "legend",
                Json::Arr(self.legend.iter().map(|r| r.to_value()).collect()),
            ),
            (
                "timelines",
                Json::Arr(self.timelines.iter().map(|t| t.to_value()).collect()),
            ),
            ("worker_overlap", Json::Num(self.worker_overlap)),
            (
                "idle_until_first_arrival",
                Json::Arr(
                    self.idle_until_first_arrival
                        .iter()
                        .map(|&(rank, idle)| {
                            Json::Arr(vec![Json::Num(rank as f64), Json::Num(idle)])
                        })
                        .collect(),
                ),
            ),
            (
                "wrapup_seconds",
                match self.wrapup_seconds {
                    Some(s) => Json::Num(s),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Parse a report back from [`to_json`](Self::to_json) output.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let range = arr(&v, "range")?;
        if range.len() != 2 {
            return Err("field `range` must have two elements".to_string());
        }
        let pair = |item: &Json| -> Result<(u32, f64), String> {
            let xs = item.as_arr().ok_or("idle entry is not a pair")?;
            match xs {
                [rank, idle] => Ok((
                    rank.as_u64().ok_or("idle rank is not an integer")? as u32,
                    idle.as_f64().ok_or("idle seconds is not a number")?,
                )),
                _ => Err("idle entry is not a pair".to_string()),
            }
        };
        Ok(RunReport {
            clean: field(&v, "clean")?
                .as_bool()
                .ok_or_else(|| "field `clean` is not a bool".to_string())?,
            range: TimeWindow::new(
                range[0].as_f64().ok_or("range start is not a number")?,
                range[1].as_f64().ok_or("range end is not a number")?,
            ),
            drawables: field(&v, "drawables")?
                .as_u64()
                .ok_or_else(|| "field `drawables` is not an integer".to_string())?
                as usize,
            warnings: arr(&v, "warnings")?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "warning is not a string".to_string())
                })
                .collect::<Result<_, _>>()?,
            legend: arr(&v, "legend")?
                .iter()
                .map(ReportLegendRow::from_value)
                .collect::<Result<_, _>>()?,
            timelines: arr(&v, "timelines")?
                .iter()
                .map(ReportTimeline::from_value)
                .collect::<Result<_, _>>()?,
            worker_overlap: num(&v, "worker_overlap")?,
            idle_until_first_arrival: arr(&v, "idle_until_first_arrival")?
                .iter()
                .map(pair)
                .collect::<Result<_, _>>()?,
            wrapup_seconds: match field(&v, "wrapup_seconds")? {
                Json::Null => None,
                other => Some(
                    other
                        .as_f64()
                        .ok_or("field `wrapup_seconds` is not a number")?,
                ),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{visualize, VisOptions};
    use pilot::{PilotConfig, RSlot, Services, WSlot, PI_MAIN};

    #[test]
    fn report_roundtrips_as_json() {
        let cfg = PilotConfig::new(2).with_services(Services::parse("j").unwrap());
        let run = visualize(cfg, VisOptions::default(), |pi| {
            let w = pi.create_process(0)?;
            let c = pi.create_channel(PI_MAIN, w)?;
            pi.assign_work(w, move |pi, _| {
                let mut x = 0i64;
                pi.read(c, "%d", &mut [RSlot::Int(&mut x)]).unwrap();
                0
            })?;
            pi.start_all()?;
            pi.write(c, "%d", &[WSlot::Int(1)])?;
            pi.stop_main(0)
        });
        let report = run_report(&run).expect("report");
        assert!(report.clean);
        assert!(report.drawables > 0);
        assert!(report
            .legend
            .iter()
            .any(|r| r.name == "PI_Write" && r.count == 1));
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        // Rust's shortest-round-trip float formatting means the parse
        // recovers every field bit-for-bit.
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn no_log_no_report() {
        let run = visualize(PilotConfig::new(1), VisOptions::default(), |pi| {
            pi.start_all()?;
            pi.stop_main(0)
        });
        assert!(run_report(&run).is_none());
    }
}

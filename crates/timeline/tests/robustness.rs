//! Integration tests of the hardened server: per-request deadlines
//! surfacing as 503 + `Retry-After` with the dying phase visible in the
//! flight recorder, registry occupancy in `/v1/stats`, and — the fuzz
//! backstop — arbitrary byte garbage at the socket never killing a
//! worker: every outcome is a well-formed 4xx/5xx or a clean close,
//! and the server keeps serving.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mpelog::Color;
use pilot_vis::json::Json;
use proptest::prelude::*;
use slog2::{
    Category, CategoryId, CategoryKind, Drawable, FrameTree, Slog2File, StateDrawable, TimeWindow,
    TimelineId,
};
use timeline::{serve, App, Client, Limits, TimelineService};

fn test_file(ranks: u32, states: usize) -> Slog2File {
    let mut ds = Vec::new();
    for r in 0..ranks {
        for i in 0..states {
            ds.push(Drawable::State(StateDrawable {
                category: CategoryId(0),
                timeline: TimelineId(r),
                start: i as f64,
                end: i as f64 + 0.5,
                nest_level: 0,
                text: String::new(),
            }));
        }
    }
    let range = TimeWindow::new(0.0, states as f64);
    Slog2File {
        timelines: (0..ranks)
            .map(|r| {
                if r == 0 {
                    "PI_MAIN".into()
                } else {
                    format!("P{r}")
                }
            })
            .collect(),
        categories: vec![Category {
            index: CategoryId(0),
            name: "Compute".into(),
            color: Color::GRAY,
            kind: CategoryKind::State,
        }],
        range,
        warnings: vec![],
        tree: FrameTree::build(ds, range.t0, range.t1, 16, 8),
    }
}

/// The satellite acceptance: a request that blows its deadline answers
/// 503 with `Retry-After`, its flight trace shows which phase it died
/// in, the compute still warmed the cache (so the retry is admitted),
/// and the worker goes on serving.
#[test]
fn deadline_exceeded_is_503_with_flight_evidence_and_warm_retry() {
    let mut svc = TimelineService::from_file(test_file(2, 8));
    svc.set_test_tile_delay(Duration::from_millis(60));
    let limits = Limits {
        deadline: Duration::from_millis(25),
        ..Limits::default()
    };
    let app = Arc::new(App::new(svc, limits));
    app.enable_tracing();
    let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();

    // First hit: cold tile, 60ms forced compute under a 25ms deadline.
    let resp = client
        .send(
            "GET",
            "/v1/tile?rank=0&zoom=2&tile=1",
            &[("X-Trace-Id", "deadline-victim")],
            None,
        )
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));

    // The flight recorder names the phase the request died in: the
    // forced delay runs under `render` (inside the cache-miss compute),
    // so the victim's trace must carry cache and render phase spans.
    let (_, flight) = client.get("/v1/obs/flight").unwrap();
    let events = Json::parse(&flight).unwrap();
    let events = events.as_arr().unwrap();
    let victim = events
        .iter()
        .find(|e| {
            e.get("cat").and_then(Json::as_str) == Some("request")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_str)
                    == Some("deadline-victim")
        })
        .expect("timed-out request lands in the flight recorder");
    assert_eq!(
        victim
            .get("args")
            .and_then(|a| a.get("status"))
            .and_then(Json::as_u64),
        Some(503)
    );
    let victim_phases: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(Json::as_str) == Some("phase")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_str)
                    == Some("deadline-victim")
        })
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        victim_phases.contains(&"render"),
        "the dying phase must be visible: {victim_phases:?}"
    );

    // The same worker pool keeps serving...
    let (status, _) = client.get("/v1/info").unwrap();
    assert_eq!(status, 200);
    // ...and the late compute warmed the cache: the retry now fits the
    // 25ms deadline and is admitted.
    let retry = client.get_full("/v1/tile?rank=0&zoom=2&tile=1").unwrap();
    assert_eq!(retry.status, 200, "{}", retry.body);
    assert!(!retry.body.is_empty());
    server.stop();
}

/// `/v1/stats` reports registry occupancy alongside the cache counters.
#[test]
fn stats_report_registry_occupancy() {
    let app = App::single(TimelineService::from_file(test_file(1, 4)));
    let (status, _, stats) = timeline::route(&app, "/v1/stats");
    assert_eq!(status, 200);
    let v = Json::parse(&stats).unwrap();
    let reg = v.get("registry").expect("registry occupancy in stats");
    assert_eq!(reg.get("traces").and_then(Json::as_u64), Some(1));
    assert!(reg.get("bytes").and_then(Json::as_u64).unwrap() > 0);
    assert!(reg.get("budget_bytes").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(reg.get("evictions").and_then(Json::as_u64), Some(0));
}

/// A NaN window bound parses as an `f64`; `/v1/render` must answer it
/// with a 400 on every backend, not panic the worker that renders it.
#[test]
fn nan_render_bounds_are_400_and_never_panic_a_worker() {
    let app = App::single(TimelineService::from_file(test_file(2, 8)));
    let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
    for backend in ["svg", "html", "ascii", "hist"] {
        for (query, bad) in [
            ("t0=NaN", "t0"),
            ("t0=1&t1=nan", "t1"),
            ("t0=NaN&t1=NaN", "t0"),
        ] {
            let path = format!("/v1/render?backend={backend}&{query}");
            let resp = client.get_full(&path).unwrap();
            assert_eq!(resp.status, 400, "{path}: {}", resp.body);
            assert!(
                resp.body.starts_with(&format!("bad {bad}: ")),
                "{path}: {}",
                resp.body
            );
        }
        // Infinite bounds are a window (the whole trace), not an error.
        let (status, body) = client
            .get(&format!("/v1/render?backend={backend}&t0=-inf&t1=inf"))
            .unwrap();
        assert_eq!(status, 200, "{backend}: {body}");
    }
    assert_eq!(
        app.obs_handle()
            .snapshot()
            .counter("serve.http.worker_panic"),
        0
    );
    server.stop();
}

/// One shared server for the whole fuzz run: the point is precisely
/// that state (a worker that just ate garbage) carries over to the next
/// case, so a leaked-thread or poisoned-lock bug compounds and shows.
fn fuzz_server() -> (u16, &'static Arc<App>) {
    static SERVER: OnceLock<(u16, Arc<App>)> = OnceLock::new();
    let (port, app) = SERVER.get_or_init(|| {
        let app = App::single(TimelineService::from_file(test_file(2, 6)));
        let server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let port = server.port();
        // Leak the server on purpose: it must outlive every proptest
        // case, and the process exit reaps the threads.
        std::mem::forget(server);
        (port, app)
    });
    (*port, app)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes at the socket never panic a worker and never get
    /// a 2xx: the connection either closes cleanly or answers a
    /// well-formed 4xx/5xx — and the server still serves real clients.
    #[test]
    fn byte_garbage_never_kills_the_worker(
        garbage in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let (port, app) = fuzz_server();
        let addr = format!("127.0.0.1:{port}");
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&garbage).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut resp = Vec::new();
        let _ = s.read_to_end(&mut resp);
        if !resp.is_empty() {
            let line = resp.split(|&b| b == b'\n').next().unwrap_or(&resp);
            let line = String::from_utf8_lossy(line);
            prop_assert!(
                line.starts_with("HTTP/1.1 4") || line.starts_with("HTTP/1.1 5"),
                "garbage must never be admitted: {line:?}"
            );
        }
        drop(s);

        // No worker died, and the pool still answers.
        prop_assert_eq!(
            app.obs_handle().snapshot().counter("serve.http.worker_panic"),
            0
        );
        let mut probe = Client::connect(&addr).unwrap();
        let (status, _) = probe.get("/v1/info").unwrap();
        prop_assert_eq!(status, 200);
    }
}

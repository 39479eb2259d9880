//! pipebench — the pipeline benchmark: from a Pilot run to its first
//! tile and verdict, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload logrun|ingest|browse --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the benchmark's spans on, replays every upload layer
//! by layer, runs the layer probes, and prints the per-layer metrics.
//! Every output is checked; a mismatch exits 1. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. The
//! end-to-end times are read from the process's CPU clock, with the
//! process pinned to one CPU (see `clock.rs`). See `pipebench/README.md`
//! for the workloads and metrics.

mod clock;
mod harness;
mod spans;
mod stats;

use std::time::Instant;

use clock::Watch;

use harness::{
    pass, rss_kb, run_chain, start_server, synthetic, Acc, ClientState, Conn, Oracle, PassPlan,
    Program, SessionShape,
};
use pilot_vis::json::Json;
use spans::SpanLog;
use stats::{paired_alternation, Samples};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Passes every workload makes at least, whatever `--seconds` says.
const MIN_PASSES: u64 = 3;

/// logrun: chain rounds per pass ("a few thousand"; ≈60 k drawables).
const LOGRUN_ROUNDS: usize = 3000;
/// ingest: 16 ranks × 8000 calls ≈ 256 k drawables, ≈9.5 MB of CLOG2.
const INGEST_RANKS: usize = 16;
const INGEST_CALLS: usize = 8000;
/// ingest: distinct inputs, cycled (their oracles are built once).
const INGEST_VARIANTS: u64 = 3;
/// ingest: uploads kept resident (ids rotate, so the oldest is
/// replaced), which makes the run's peak RSS independent of its pass
/// count.
const INGEST_KEEP: u64 = 6;
/// ingest: diff every Nth pass (a 256 k-drawable diff takes 2–3 s on
/// a 2-core box).
const INGEST_DIFF_EVERY: u64 = 3;
/// browse: the preloaded trace, 8 ranks × 8000 calls ≈ 128 k drawables.
const BROWSE_RANKS: usize = 8;
const BROWSE_CALLS: usize = 8000;
/// The zoom/pan session of a logrun pass: a fixed depth and pan count,
/// so every pass reads the same mix of cold and warm tiles. Its three
/// cold whole-trace tiles (rank 0's is the cached first tile) are 2.6 %
/// of the requests, so the 99th percentile sits well inside that group.
const LOGRUN_SESSION: SessionShape = SessionShape {
    rows: 4,
    depth: (12, 12),
    pans: (4, 4),
    laps: 1,
};
/// The session of an ingest pass, walked twice: on the wide trace a
/// single lap puts the median on the edge between cache hits and cheap
/// cold tiles, a second lap (all hits) moves it clear of that edge.
const INGEST_SESSION: SessionShape = SessionShape {
    laps: 2,
    ..LOGRUN_SESSION
};
/// browse: sessions over all 8 ranks, down to 2^7–2^14 tiles per rank.
const BROWSE_SESSION: SessionShape = SessionShape {
    rows: BROWSE_RANKS as u32,
    depth: (7, 14),
    pans: (2, 6),
    laps: 1,
};
/// browse: the writer's small chain, uploaded after every session.
const WRITER_ROUNDS: usize = 200;
/// Chain passes alternate between N and N + this many rounds: a rerun
/// after a small change, which the diff then compares.
const RERUN_EXTRA_ROUNDS: usize = 50;
/// The default (pinned) trace every server boots with.
const DEFAULT_ROUNDS: usize = 50;
/// Traced run: logged/unlogged pairs of the layer probe.
const PROBE_PAIRS: usize = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {name}"))
    };
    let workload = get("--workload")?.to_string();
    if !["logrun", "ingest", "browse"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|_| format!("bad {name}"))
    };
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
    })
}

/// What a workload hands back for reporting.
struct Outcome {
    acc: Acc,
    setup_s: Samples,
    tiles: u64,
    /// CPU seconds of the browse sessions.
    tile_busy_s: f64,
    /// Peak RSS when the measured window closed, before the checks and
    /// probes that follow it.
    peak_rss_kb: u64,
    spans: Vec<spans::Span>,
}

/// Set the workload up `SETUPS` times, tearing down all but the last;
/// returns the last set-up and every set-up's duration.
fn repeated_setup<S>(mut make: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, Samples) {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(s) = last.take() {
            teardown(s);
        }
        release_freed_memory();
        let t = Watch::start();
        last = Some(make());
        times.push(t.lap().cpu_s);
    }
    release_freed_memory();
    (last.expect("SETUPS > 0"), times)
}

/// Hand freed heap pages back to the OS between set-ups. A torn-down
/// set-up leaves its garbage in whichever server worker's malloc arena
/// served it; without this, a run's peak RSS would depend on that draw.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only returns
        // free memory at the top of each arena to the OS; it is safe to
        // call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Whether pass `i` of a traced run records spans: on for two passes,
/// off for two, so `obs.trace_overhead_pct` compares like with like
/// even where consecutive passes alternate program sizes.
fn spans_on(trace: bool, i: u64) -> bool {
    trace && (i / 2).is_multiple_of(2)
}

/// The small chain every server boots with as its pinned default.
fn default_trace(seed: u64) -> Vec<u8> {
    run_chain(DEFAULT_ROUNDS, seed, true, None)
        .expect("default chain runs cleanly")
        .expect("logged")
        .to_bytes()
}

fn logrun(a: &Args, epoch: Instant) -> Outcome {
    single_client(a, epoch, |i| {
        // Two program sizes alternate, so each pass diffs against a run
        // that differs from it, and each repeats (the byte-identity check).
        let prog = Program::Chain {
            rounds: LOGRUN_ROUNDS + (i % 2) as usize * RERUN_EXTRA_ROUNDS,
            vseed: a.seed,
        };
        let plan = PassPlan {
            id: format!("run{i}"),
            browse: Some((harness::CHAIN_RANKS as u32, LOGRUN_SESSION)),
            diff: true,
            delete: true,
        };
        (prog, plan)
    })
}

fn ingest(a: &Args, epoch: Instant) -> Outcome {
    single_client(a, epoch, |i| {
        let prog = Program::Synthetic {
            ranks: INGEST_RANKS,
            calls: INGEST_CALLS,
            seed: a.seed,
            variant: i % INGEST_VARIANTS,
        };
        let plan = PassPlan {
            id: format!("ingest{}", i % INGEST_KEEP),
            browse: Some((INGEST_RANKS as u32, INGEST_SESSION)),
            diff: i % INGEST_DIFF_EVERY == 1,
            delete: false,
        };
        (prog, plan)
    })
}

/// logrun and ingest: one client making pass after pass (`plan` gives
/// pass `i`) until the window closes.
fn single_client(a: &Args, epoch: Instant, plan: impl Fn(u64) -> (Program, PassPlan)) -> Outcome {
    let (mut server, setup_s) =
        repeated_setup(|| start_server(&default_trace(a.seed)), |mut s| s.stop());
    let mut st = ClientState::new(server.port(), a.seed, a.trace, 0);
    let mut log = SpanLog::new(epoch, 0, a.trace);
    let start = Instant::now();
    let mut i = 0u64;
    while i < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
        log.set_enabled(spans_on(a.trace, i));
        let (prog, plan) = plan(i);
        pass(&mut st, &mut log, prog, &plan);
        i += 1;
    }
    log.set_enabled(a.trace);
    let peak = rss_kb("VmHWM");
    finish(a, &mut server, st, log, setup_s, peak, LOGRUN_ROUNDS)
}

fn browse(a: &Args, epoch: Instant) -> Outcome {
    const PRELOAD: &str = "preload";
    let mut setup_acc = Acc::default();
    let ((mut server, preload), setup_s) = repeated_setup(
        || {
            let preload = synthetic(BROWSE_RANKS, BROWSE_CALLS, a.seed, 0).to_bytes();
            let server = start_server(&default_trace(a.seed));
            let mut conn = Conn::new(server.port());
            let path = format!("/v1/traces?id={PRELOAD}");
            conn.request(&mut setup_acc, "POST", &path, Some(&preload));
            (server, preload)
        },
        |(mut s, _)| s.stop(),
    );
    let oracle = Oracle::build(&preload);
    drop(preload);

    // Two clients, A and B, each with its own connection, take turns
    // from this one thread: A browses; B browses, then runs, uploads,
    // checks, diffs and deletes a small chain. One thread keeps the
    // load closed-loop and leaves the process's CPU clock to one
    // interval at a time.
    let port = server.port();
    let client = |tid: u32| {
        let st = ClientState::new(
            port,
            a.seed ^ (u64::from(tid) << 40),
            a.trace,
            u64::from(tid) << 32,
        );
        (st, SpanLog::new(epoch, tid, a.trace))
    };
    let (mut sa, mut la) = client(1);
    let (mut sb, mut lb) = client(2);
    let start = Instant::now();
    let mut n = 0u64;
    while n < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
        for (st, log) in [(&mut sa, &mut la), (&mut sb, &mut lb)] {
            let session = st.next_session();
            st.browse(
                log,
                None,
                session,
                PRELOAD,
                BROWSE_RANKS as u32,
                BROWSE_SESSION,
            );
        }
        lb.set_enabled(spans_on(a.trace, n));
        let plan = PassPlan {
            id: format!("w{n}"),
            browse: None,
            diff: true,
            delete: true,
        };
        let prog = Program::Chain {
            rounds: WRITER_ROUNDS + (n % 2) as usize * RERUN_EXTRA_ROUNDS,
            vseed: a.seed,
        };
        pass(&mut sb, &mut lb, prog, &plan);
        lb.set_enabled(a.trace);
        n += 1;
    }
    let peak = rss_kb("VmHWM");
    sa.verify_tiles(PRELOAD, &oracle);
    sb.verify_tiles(PRELOAD, &oracle);
    drop(oracle);

    sb.acc.merge(sa.acc);
    sb.acc.merge(setup_acc);
    sb.tiles += sa.tiles;
    sb.browse_s += sa.browse_s;
    let mut out = finish(a, &mut server, sb, lb, setup_s, peak, WRITER_ROUNDS);
    out.spans.append(&mut la.into_spans());
    out
}

/// After the measured window: the traced run's probes and server-side
/// readings, then shutdown.
fn finish(
    a: &Args,
    server: &mut timeline::Server,
    mut st: ClientState,
    mut log: SpanLog,
    setup_s: Samples,
    peak_rss_kb: u64,
    probe_rounds: usize,
) -> Outcome {
    if a.trace {
        server_readings(&mut st);
        probes(&mut st.acc, &mut log, probe_rounds, a.seed);
    }
    drop(st.conn);
    server.stop();
    Outcome {
        acc: st.acc,
        setup_s,
        tiles: st.tiles,
        tile_busy_s: st.browse_s,
        peak_rss_kb,
        spans: log.into_spans(),
    }
}

/// The tile endpoint's request phases read from `/v1/obs/endpoints`,
/// with the metrics their p50 and p99 are reported under.
const TILE_PHASES: [(&str, &str, &str); 3] = [
    (
        "queue",
        "timeline.tile_queue_p50_us",
        "timeline.tile_queue_p99_us",
    ),
    (
        "cache",
        "timeline.tile_cache_p50_us",
        "timeline.tile_cache_p99_us",
    ),
    (
        "render",
        "timeline.tile_render_p50_us",
        "timeline.tile_render_p99_us",
    ),
];

/// Cache counters from `/v1/stats` and the tile endpoint's phase
/// percentiles from `/v1/obs/endpoints`.
fn server_readings(st: &mut ClientState) {
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    if let Some(body) = st.conn.request(&mut st.acc, "GET", "/v1/stats", None) {
        let j = Json::parse(&body).unwrap_or(Json::Null);
        let (hits, misses) = (num(&j, "cache_hits"), num(&j, "cache_misses"));
        st.acc
            .add("timeline.cache_hit_ratio", hits / (hits + misses).max(1.0));
        st.acc
            .add("timeline.cache_evictions", num(&j, "cache_evictions"));
        st.acc.add(
            "timeline.singleflight_waits",
            num(&j, "cache_singleflight_waits"),
        );
    }
    if let Some(body) = st
        .conn
        .request(&mut st.acc, "GET", "/v1/obs/endpoints", None)
    {
        let j = Json::parse(&body).unwrap_or(Json::Null);
        let tile = j
            .get("endpoints")
            .and_then(Json::as_arr)
            .and_then(|eps| {
                eps.iter()
                    .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("tile"))
            })
            .cloned()
            .unwrap_or(Json::Null);
        let phases = tile.get("phases").cloned().unwrap_or(Json::Null);
        for (phase, p50, p99) in TILE_PHASES {
            let ph = phases.get(phase).cloned().unwrap_or(Json::Null);
            st.acc.add(p50, num(&ph, "p50_us"));
            st.acc.add(p99, num(&ph, "p99_us"));
        }
    }
}

/// Layer probes of the traced run: the chain logged vs unlogged in
/// alternating pairs (the paper's Table 1 quantity), the runtime's own
/// counts from one observed run, and diagnosis time at N and 2N rounds.
fn probes(acc: &mut Acc, log: &mut SpanLog, rounds: usize, seed: u64) {
    let session = u64::MAX;
    // One timed run; the log (if any) is dropped after the clock stops.
    let run = |logged: bool| {
        let t = Instant::now();
        let r = run_chain(rounds, seed, logged, None);
        let s = t.elapsed().as_secs_f64();
        (s, r.map(|clog| clog.map_or(0, |c| c.total_records())))
    };
    let sp = log.open("probe.paired", None, session);
    let pairs = paired_alternation(PROBE_PAIRS, |_| run(true), |_| run(false));
    log.close(sp);
    for ((logged, records), (unlogged, none)) in pairs {
        match (records, none) {
            (Ok(records), Ok(_)) => {
                acc.tally.succeeded();
                acc.tally.succeeded();
                acc.add("minimpi.run_nolog_s", unlogged);
                acc.add(
                    "mpelog.ns_per_record",
                    (logged - unlogged) / records.max(1) as f64 * 1e9,
                );
            }
            (Err(why), _) | (_, Err(why)) => acc.tally.check(&why, false),
        }
    }

    let o = obs::Obs::handle();
    match run_chain(rounds, seed, true, Some(std::sync::Arc::clone(&o))) {
        Ok(_) => acc.tally.succeeded(),
        Err(why) => acc.tally.check(&why, false),
    }
    let snap = o.snapshot();
    acc.add("minimpi.messages", snap.counter("minimpi.msgs_sent") as f64);
    let calls: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("pilot.calls."))
        .map(|(_, v)| v)
        .sum();
    acc.add("pilot.api_calls", calls as f64);

    // Diagnosis at N and 2N rounds: superlinear growth shows as > 2.
    let sp = log.open("probe.diagnose_growth", None, session);
    let diag_time = |n: usize| -> f64 {
        let clog = run_chain(n, seed, true, None)
            .expect("probe chain runs cleanly")
            .expect("logged");
        let file = harness::convert(&clog, None);
        let mut t = Samples::new();
        for _ in 0..3 {
            let s = Instant::now();
            std::hint::black_box(analysis::TraceAnalyzer::new(&file).diagnose("probe"));
            t.push(s.elapsed().as_secs_f64());
        }
        t.median().expect("three samples").value
    };
    let (one, two) = (diag_time(rounds), diag_time(2 * rounds));
    log.close(sp);
    acc.add("analysis.diagnose_growth", two / one.max(1e-9));
}

/// How far below zero a remainder may read (as a share of its
/// composite) before it is reported: the layers are timed on an
/// in-process replay of the upload, not inside the server.
const REMAINDER_TOLERANCE: f64 = 0.10;

/// Split `first_tile_s` and `verdict_s` of every traced pass into the
/// layers' self times plus the `unattributed` remainder (loopback
/// transfer, HTTP parsing, validation, admission).
fn attribute(o: &mut Outcome) {
    let mut verdict_layers = spans::FIRST_TILE_LAYERS.to_vec();
    verdict_layers.push("analysis.diagnose");
    for (key, to, layers) in [
        (
            "unattributed.first_tile_s",
            "first_tile",
            &spans::FIRST_TILE_LAYERS[..],
        ),
        ("unattributed.verdict_s", "verdict", &verdict_layers[..]),
    ] {
        let rows = spans::unattributed(&o.spans, "upload", to, layers);
        let below = rows
            .iter()
            .filter(|(c, r)| !spans::remainder_ok(*c, *r, REMAINDER_TOLERANCE))
            .count();
        if below > 0 {
            eprintln!("pipebench: {key}: {below} of {} passes read below -{REMAINDER_TOLERANCE} of the composite", rows.len());
        }
        for (_, r) in rows {
            o.acc.add(key, r);
        }
    }
}

/// Metric name, unit, and how to read it from an outcome.
type Reading = (&'static str, &'static str, Option<(f64, usize)>);

fn med(acc: &Acc, key: &str) -> Option<(f64, usize)> {
    acc.get(key)
        .and_then(Samples::median)
        .map(|p| (p.value, p.n))
}

fn end_to_end(o: &Outcome) -> Vec<Reading> {
    let tile = o.acc.get("tile_ms");
    let pct = |q: f64| tile.and_then(|s| s.pct(q)).map(|p| (p.value, p.n));
    vec![
        ("setup_s", "s", o.setup_s.median().map(|p| (p.value, p.n))),
        ("run_s", "s", med(&o.acc, "run_s")),
        ("first_tile_s", "s", med(&o.acc, "first_tile_s")),
        ("verdict_s", "s", med(&o.acc, "verdict_s")),
        ("diff_s", "s", med(&o.acc, "diff_s")),
        ("render_s", "s", med(&o.acc, "render_s")),
        ("tile_p50_ms", "ms", pct(0.50)),
        ("tile_p99_ms", "ms", pct(0.99)),
        (
            "tiles_per_s",
            "1/s",
            (o.tile_busy_s > 0.0).then(|| (o.tiles as f64 / o.tile_busy_s, o.tiles as usize)),
        ),
        (
            "peak_rss_mb",
            "MB",
            Some((o.peak_rss_kb as f64 / 1024.0, 1)),
        ),
    ]
}

/// The wall-clock reading of an end-to-end metric timed on the CPU
/// clock, printed beside it.
fn wall_twin(acc: &Acc, metric: &str) -> Option<f64> {
    let (key, q) = match metric {
        "tile_p50_ms" => ("tile_ms", 0.50),
        "tile_p99_ms" => ("tile_ms", 0.99),
        other => (other, 0.50),
    };
    acc.wall.get(key)?.pct(q).map(|p| p.value)
}

fn per_layer(o: &Outcome) -> Vec<Reading> {
    let acc = &o.acc;
    let tile = acc.get("tile_ms");
    let pct = |q: f64| tile.and_then(|s| s.pct(q)).map(|p| (p.value, p.n));
    let overhead = match (
        med(acc, "obs.first_tile_on_s"),
        med(acc, "obs.first_tile_off_s"),
    ) {
        (Some((on, n)), Some((off, m))) => Some(((on / off - 1.0) * 100.0, n + m)),
        _ => None,
    };
    let t = acc.tally;
    let mut v: Vec<Reading> = vec![
        ("minimpi.run_nolog_s", "s", med(acc, "minimpi.run_nolog_s")),
        ("minimpi.messages", "count", med(acc, "minimpi.messages")),
        ("pilot.api_calls", "count", med(acc, "pilot.api_calls")),
        (
            "mpelog.ns_per_record",
            "ns",
            med(acc, "mpelog.ns_per_record"),
        ),
        ("mpelog.encode_s", "s", med(acc, "mpelog.encode_s")),
        ("mpelog.parse_s", "s", med(acc, "mpelog.parse_s")),
        ("mpelog.records", "count", med(acc, "mpelog.records")),
        ("mpelog.clog_bytes", "bytes", med(acc, "mpelog.clog_bytes")),
        ("slog2.convert_s", "s", med(acc, "slog2.convert_s")),
    ];
    for (_, key) in harness::STAGES {
        v.push((key, "s", med(acc, key)));
    }
    v.extend([
        ("slog2.drawables", "count", med(acc, "slog2.drawables")),
        (
            "slog2.drawables_per_s",
            "1/s",
            med(acc, "slog2.drawables_per_s"),
        ),
        (
            "timeline.index_build_s",
            "s",
            med(acc, "timeline.index_build_s"),
        ),
        (
            "timeline.tile_cold_ms",
            "ms",
            med(acc, "timeline.tile_cold_ms"),
        ),
        (
            "timeline.tile_warm_us",
            "us",
            med(acc, "timeline.tile_warm_us"),
        ),
        (
            "timeline.cache_hit_ratio",
            "ratio",
            med(acc, "timeline.cache_hit_ratio"),
        ),
        (
            "timeline.cache_evictions",
            "count",
            med(acc, "timeline.cache_evictions"),
        ),
        (
            "timeline.singleflight_waits",
            "count",
            med(acc, "timeline.singleflight_waits"),
        ),
    ]);
    for (_, p50, p99) in TILE_PHASES {
        v.push((p50, "us", med(acc, p50)));
        v.push((p99, "us", med(acc, p99)));
    }
    v.extend([
        ("timeline.tile_p999_ms", "ms", pct(0.999)),
        ("timeline.tile_max_ms", "ms", pct(1.0)),
        (
            "timeline.tile_samples",
            "count",
            tile.map(|s| (s.len() as f64, s.len())),
        ),
        (
            "timeline.rss_per_wire_byte",
            "ratio",
            med(acc, "timeline.rss_per_wire_byte"),
        ),
        ("analysis.diagnose_s", "s", med(acc, "analysis.diagnose_s")),
        (
            "analysis.critical_path_s",
            "s",
            med(acc, "analysis.critical_path_s"),
        ),
        (
            "analysis.diagnose_growth",
            "ratio",
            med(acc, "analysis.diagnose_growth"),
        ),
        ("diff.align_s", "s", med(acc, "diff.align_s")),
        ("diff.delta_s", "s", med(acc, "diff.delta_s")),
        ("jumpshot.render_s", "s", med(acc, "jumpshot.render_s")),
        (
            "jumpshot.svg_bytes",
            "bytes",
            med(acc, "jumpshot.svg_bytes"),
        ),
        (
            "unattributed.first_tile_s",
            "s",
            med(acc, "unattributed.first_tile_s"),
        ),
        (
            "unattributed.verdict_s",
            "s",
            med(acc, "unattributed.verdict_s"),
        ),
        ("obs.trace_overhead_pct", "%", overhead),
        (
            "fail_ratio",
            "ratio",
            Some((t.fail_ratio(), t.attempted as usize)),
        ),
    ]);
    v
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("pipebench: {why}");
            eprintln!(
                "usage: pipebench --workload logrun|ingest|browse --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = clock::pin_to_one_cpu().map_or("none".to_string(), |c| c.to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# pipebench workload={} seed={} seconds={} trace={} | host: nproc={nproc} pinned-cpu={pinned} profile={profile} os={} arch={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
    let epoch = Instant::now();
    let outcome = match args.workload.as_str() {
        "logrun" => logrun(&args, epoch),
        "ingest" => ingest(&args, epoch),
        _ => browse(&args, epoch),
    };
    let mut outcome = outcome;
    if args.trace {
        attribute(&mut outcome);
    }
    let readings = if args.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };

    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for (name, unit, r) in &readings {
        match r {
            Some((v, n)) => {
                let wall = match wall_twin(&outcome.acc, name) {
                    Some(w) if !args.trace => format!("  wall {w:.6}"),
                    _ => String::new(),
                };
                println!("{name:>32} = {v:<14.6} {unit:<6} (n={n}){wall}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            None => missing.push(*name),
        }
    }
    if args.trace {
        let dir = std::path::Path::new(".pipebench");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&outcome.spans)));
        match written {
            Ok(()) => println!(
                "# spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("pipebench: cannot write {}: {e}", path.display()),
        }
    }
    let t = outcome.acc.tally;
    let correct = t.mismatches == 0 && outcome.acc.lost == 0 && missing.is_empty();
    println!(
        "# attempted={} failed={} retried={} mismatches={} lost={}",
        t.attempted, t.failed, t.retried, t.mismatches, outcome.acc.lost
    );
    if !missing.is_empty() {
        eprintln!("pipebench: no samples for {}", missing.join(", "));
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

//! The pieces every workload shares: the in-process server at pilotd's
//! default settings, a retrying keep-alive connection, the programs
//! that produce CLOG2 bytes, the in-process oracle, and the pipeline
//! pass (run → upload → first tile → verdict → render → browse → diff).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpelog::{Clog2File, Record};
use pilot::PilotConfig;
use slog2::{Converter, SalvageReport, Slog2File, TornPolicy, TraceSource};
use timeline::{fnv1a, App, Client, Limits, TimelineService};

use crate::clock::{Lap, Watch};
use crate::spans::SpanLog;
use crate::stats::{Samples, Tally};

/// Ranks of every chain program: `PI_MAIN` plus three workers.
pub const CHAIN_RANKS: usize = 4;
/// Width of the full-trace render, pilotd's default.
const RENDER_WIDTH: u32 = 1280;
/// Tries per request before it counts as lost.
const MAX_TRIES: usize = 4;
/// The converter stages whose obs spans the traced run reads.
pub const STAGES: [(&str, &str); 5] = [
    ("scan", "slog2.scan_s"),
    ("merge", "slog2.merge_s"),
    ("arrow-match", "slog2.arrow_match_s"),
    ("diagnose", "slog2.diagnose_s"),
    ("tree-build", "slog2.tree_build_s"),
];

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Named samples plus the operation tally of one client thread.
#[derive(Default)]
pub struct Acc {
    pub tally: Tally,
    pub m: BTreeMap<&'static str, Samples>,
    /// Wall-clock twins of the intervals in `m` timed by a [`Watch`].
    pub wall: BTreeMap<&'static str, Samples>,
    /// Ops whose final answer was not a success, even after retries.
    pub lost: u64,
}

impl Acc {
    pub fn add(&mut self, key: &'static str, v: f64) {
        self.m.entry(key).or_default().push(v);
    }

    /// Record an interval: its CPU time under `key`, its wall-clock
    /// time beside it.
    pub fn add_lap(&mut self, key: &'static str, lap: Lap) {
        self.add(key, lap.cpu_s);
        self.wall.entry(key).or_default().push(lap.wall_s);
    }

    pub fn merge(&mut self, other: Acc) {
        self.tally.merge(&other.tally);
        self.lost += other.lost;
        for (k, v) in other.m {
            self.m.entry(k).or_default().extend(&v);
        }
        for (k, v) in other.wall {
            self.wall.entry(k).or_default().extend(&v);
        }
    }

    pub fn get(&self, key: &str) -> Option<&Samples> {
        self.m.get(key)
    }
}

/// Start a server the way `pilotd serve` does by default: default
/// limits (2 s deadline, 256 MiB registry budget), request tracing on,
/// the default worker count, loopback only.
pub fn start_server(default_trace: &[u8]) -> timeline::Server {
    let file = convert(&Clog2File::salvage_bytes(default_trace).file, None);
    let svc = TimelineService::with_obs(file, fnv1a(default_trace), obs::Obs::handle());
    let app = Arc::new(App::new(svc, Limits::default()));
    app.enable_tracing();
    timeline::serve(app, "127.0.0.1:0", timeline::DEFAULT_WORKERS).expect("bind a loopback port")
}

/// One keep-alive client connection that retries refusals (429/503)
/// after the server's `Retry-After`, and reconnects when the server
/// closes the connection.
pub struct Conn {
    addr: String,
    client: Option<Client>,
}

impl Conn {
    pub fn new(port: u16) -> Conn {
        Conn {
            addr: format!("127.0.0.1:{port}"),
            client: None,
        }
    }

    /// Issue a request; `Some(body)` on a 2xx answer. Every try's
    /// status goes into the tally (0 for a transport error).
    pub fn request(
        &mut self,
        acc: &mut Acc,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Option<String> {
        let mut tries = Vec::new();
        let mut out = None;
        while tries.len() < MAX_TRIES {
            if self.client.is_none() {
                match Client::connect(&self.addr) {
                    Ok(c) => self.client = Some(c),
                    Err(_) => {
                        tries.push(0);
                        continue;
                    }
                }
            }
            let client = self.client.as_mut().expect("connected above");
            let resp = match client.send(method, path, &[], body) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("pipebench: {method} {path}: {e}");
                    self.client = None;
                    tries.push(0);
                    continue;
                }
            };
            if resp.closed {
                self.client = None;
            }
            tries.push(resp.status);
            if resp.status == 429 || resp.status == 503 {
                let wait: u64 = resp
                    .header("retry-after")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1);
                std::thread::sleep(Duration::from_secs(wait));
                continue;
            }
            if (200..300).contains(&resp.status) {
                out = Some(resp.body);
            } else {
                eprintln!("pipebench: {method} {path}: HTTP {}", resp.status);
            }
            break;
        }
        acc.tally.record(&tries);
        if out.is_none() {
            acc.lost += 1;
        }
        out
    }
}

/// Convert a decoded CLOG2 log exactly as an upload is converted.
pub fn convert(clog: &Clog2File, obs: Option<obs::ObsHandle>) -> Slog2File {
    let mut c = Converter::new().on_torn(TornPolicy::Salvage(SalvageReport::default()));
    if let Some(o) = obs {
        c = c.observability(o);
    }
    c.convert(TraceSource::InMemory(clog))
        .expect("in-memory conversion cannot fail")
        .file
}

/// Run the `pipeline` token chain under the virtual engine. Checks the
/// token-sum oracle; returns the CLOG2 log when `logged`.
pub fn run_chain(
    rounds: usize,
    vseed: u64,
    logged: bool,
    observe: Option<obs::ObsHandle>,
) -> Result<Option<Clog2File>, String> {
    let mut cfg =
        PilotConfig::new(CHAIN_RANKS).with_engine(minimpi::Engine::Virtual { seed: vseed });
    cfg.services.jumpshot = logged;
    if let Some(o) = observe {
        cfg = cfg.with_observability(o);
    }
    let (mut out, res) = workloads::run_pipeline(cfg, rounds);
    if !out.is_clean() {
        return Err(format!("chain run (seed {vseed}) did not end cleanly"));
    }
    let res = res.ok_or("chain run produced no result")?;
    let want = workloads::pipeline::expected_token_sum(res.workers, rounds);
    if res.token_sum != want {
        return Err(format!("token sum {} != oracle {want}", res.token_sum));
    }
    if logged && out.artifacts.clog.is_none() {
        return Err("logged chain run produced no CLOG2".into());
    }
    Ok(out.artifacts.clog.take())
}

/// The wide synthetic trace under a time map: moved by a seeded offset
/// and stretched by `1 + variant/1000`, so each (seed, variant) has its
/// own bytes but the same shape (the same conversion work), and any
/// two consecutive variants differ alike whatever the seed.
pub fn synthetic(ranks: usize, calls: usize, seed: u64, variant: u64) -> Clog2File {
    let mut clog = workloads::synthetic_clog(ranks, calls);
    let offset = (seed % 1009) as f64 * 1e-3;
    let stretch = 1.0 + variant as f64 * 1e-3;
    for records in clog.blocks.values_mut() {
        for r in records {
            match r {
                Record::Event { ts, .. } | Record::Send { ts, .. } | Record::Recv { ts, .. } => {
                    *ts = offset + *ts * stretch
                }
            }
        }
    }
    clog
}

/// What a pass runs to get its CLOG2 bytes.
#[derive(Debug, Clone, Copy)]
pub enum Program {
    /// The `pipeline` chain with MPE logging on, virtual engine.
    Chain { rounds: usize, vseed: u64 },
    /// The wide synthetic generator (no Pilot program behind it).
    Synthetic {
        ranks: usize,
        calls: usize,
        seed: u64,
        variant: u64,
    },
}

impl Program {
    fn run(&self) -> Result<Clog2File, String> {
        match *self {
            Program::Chain { rounds, vseed } => {
                Ok(run_chain(rounds, vseed, true, None)?.expect("checked in run_chain"))
            }
            Program::Synthetic {
                ranks,
                calls,
                seed,
                variant,
            } => Ok(synthetic(ranks, calls, seed, variant)),
        }
    }
}

/// The in-process answer key for one uploaded trace: the same bytes
/// through `Converter` + `TimelineService`, and the digests of the
/// bodies the server must return.
pub struct Oracle {
    pub svc: TimelineService,
    pub diagnose: u64,
    pub render: u64,
}

impl Oracle {
    pub fn file(&self) -> &Slog2File {
        self.svc.file()
    }

    pub fn tile(&self, rank: u32, zoom: u8, tile: u32) -> u64 {
        self.svc
            .tile_json(rank, zoom, tile)
            .map_or(0, |b| fnv1a(b.as_bytes()))
    }

    /// Build without timing anything.
    pub fn build(bytes: &[u8]) -> Oracle {
        let file = convert(&Clog2File::salvage_bytes(bytes).file, None);
        Oracle::finish(TimelineService::with_obs(
            file,
            fnv1a(bytes),
            obs::Obs::handle(),
        ))
    }

    fn finish(svc: TimelineService) -> Oracle {
        let diagnose = fnv1a(svc.diagnose_json().as_bytes());
        let render = svc
            .render("svg", None, RENDER_WIDTH, false)
            .map_or(0, |(_, b)| fnv1a(b.as_bytes()));
        Oracle {
            svc,
            diagnose,
            render,
        }
    }

    /// Build layer by layer, timing each public call and recording it
    /// as a span: the traced run's per-layer measurement.
    pub fn replay(
        bytes: &[u8],
        log: &mut SpanLog,
        parent: Option<u64>,
        session: u64,
        acc: &mut Acc,
    ) -> Oracle {
        let sp = log.open("mpelog.parse", parent, session);
        let salvaged = Clog2File::salvage_bytes(bytes);
        let parse = log.close(sp).as_secs_f64();

        let obs = obs::Obs::handle();
        let tracer_epoch = Instant::now();
        let sp = log.open("slog2.convert", parent, session);
        let conv_id = sp.id();
        let file = convert(&salvaged.file, Some(Arc::clone(&obs)));
        let conv = log.close(sp).as_secs_f64();
        drop(salvaged);
        let stages: Vec<obs::TraceEvent> = obs
            .tracer
            .events()
            .into_iter()
            .filter(|e| STAGES.iter().any(|(n, _)| *n == e.name))
            .collect();
        log.adopt(conv_id, session, "slog2", tracer_epoch, &stages);
        for (name, key) in STAGES {
            let us: u64 = stages
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.dur_us)
                .sum();
            acc.add(key, us as f64 / 1e6);
        }
        let drawables = file.total_drawables() as f64;

        let sp = log.open("timeline.index_build", parent, session);
        let svc = TimelineService::with_obs(file, fnv1a(bytes), obs::Obs::handle());
        let index = log.close(sp).as_secs_f64();

        let sp = log.open("timeline.tile_cold", parent, session);
        let cold = svc.tile_json(0, 0, 0);
        let tile_cold = log.close(sp).as_secs_f64();
        let sp = log.open("timeline.tile_warm", parent, session);
        const WARM: u32 = 64;
        for _ in 0..WARM {
            std::hint::black_box(svc.tile_json(0, 0, 0));
        }
        let warm = log.close(sp).as_secs_f64() / f64::from(WARM);
        drop(cold);

        let sp = log.open("analysis.diagnose", parent, session);
        let diagnose = fnv1a(svc.diagnose_json().as_bytes());
        let diag = log.close(sp).as_secs_f64();
        let sp = log.open("analysis.critical_path", parent, session);
        std::hint::black_box(analysis::critical_path(svc.file()));
        let crit = log.close(sp).as_secs_f64();

        let sp = log.open("jumpshot.render", parent, session);
        let svg = svc.render("svg", None, RENDER_WIDTH, false).map(|(_, b)| b);
        let render_s = log.close(sp).as_secs_f64();
        let svg_bytes = svg.as_ref().map_or(0, String::len);
        let render = svg.map_or(0, |b| fnv1a(b.as_bytes()));

        acc.add("mpelog.parse_s", parse);
        acc.add("slog2.convert_s", conv);
        acc.add("slog2.drawables", drawables);
        acc.add("slog2.drawables_per_s", drawables / conv.max(1e-9));
        acc.add("timeline.index_build_s", index);
        acc.add("timeline.tile_cold_ms", tile_cold * 1e3);
        acc.add("timeline.tile_warm_us", warm * 1e6);
        acc.add("analysis.diagnose_s", diag);
        acc.add("analysis.critical_path_s", crit);
        acc.add("jumpshot.render_s", render_s);
        acc.add("jumpshot.svg_bytes", svg_bytes as f64);

        Oracle {
            svc,
            diagnose,
            render,
        }
    }
}

/// The shape of a zoom/pan session.
#[derive(Debug, Clone, Copy)]
pub struct SessionShape {
    /// Consecutive ranks per viewport (one tile request each).
    pub rows: u32,
    /// Depth of the drill-down, drawn from this range.
    pub depth: (u8, u8),
    /// Pans at the bottom, drawn from this range.
    pub pans: (u8, u8),
    /// Times the viewer walks the session's viewports (a second lap is
    /// all revisits).
    pub laps: u32,
}

/// The viewports of one seeded zoom/pan session: drill down from the
/// whole trace to a random depth, pan a few tiles, zoom back out. The
/// way out revisits tiles (cache hits); the deep tiles are new.
pub fn session_viewports(rng: &mut Rng, shape: SessionShape) -> Vec<(u8, u32)> {
    let depth = rng.range(u64::from(shape.depth.0), u64::from(shape.depth.1)) as u8;
    let mut path = vec![(0u8, 0u32)];
    let mut tile = 0u32;
    for z in 1..=depth {
        tile = tile * 2 + (rng.next() & 1) as u32;
        path.push((z, tile));
    }
    let last = (1u32 << depth) - 1;
    for _ in 0..rng.range(u64::from(shape.pans.0), u64::from(shape.pans.1)) {
        tile = if (rng.next() & 1 == 1 && tile < last) || tile == 0 {
            (tile + 1).min(last)
        } else {
            tile - 1
        };
        path.push((depth, tile));
    }
    for z in (0..depth).rev() {
        tile >>= 1;
        path.push((z, tile));
    }
    path
}

/// Per-thread client state that passes carry from one to the next.
pub struct ClientState {
    pub conn: Conn,
    pub acc: Acc,
    pub rng: Rng,
    /// Whether to replay every upload layer by layer (traced run).
    pub traced: bool,
    /// Oracles by wire digest, so a repeated input is checked without
    /// rebuilding its answer key.
    pub oracles: HashMap<u64, Arc<Oracle>>,
    /// CLOG2 digest of each program seen, for the byte-identity check.
    pub run_digests: HashMap<(usize, u64), u64>,
    /// The previous pass's trace, the left side of the next diff.
    pub prev: Option<Arc<Oracle>>,
    pub session_base: u64,
    pub sessions: u64,
    /// Tile bodies seen, by (trace, rank, zoom, tile) → digest.
    pub seen_tiles: HashMap<(u64, u32, u8, u32), u64>,
    /// CPU time of the browse sessions, for `tiles_per_s`.
    pub browse_s: f64,
    pub tiles: u64,
}

impl ClientState {
    pub fn new(port: u16, seed: u64, traced: bool, session_base: u64) -> ClientState {
        ClientState {
            conn: Conn::new(port),
            acc: Acc::default(),
            rng: Rng::new(seed),
            traced,
            oracles: HashMap::new(),
            run_digests: HashMap::new(),
            prev: None,
            session_base,
            sessions: 0,
            seen_tiles: HashMap::new(),
            browse_s: 0.0,
            tiles: 0,
        }
    }

    pub fn next_session(&mut self) -> u64 {
        self.sessions += 1;
        self.session_base + self.sessions
    }

    /// Fetch the tiles of one zoom/pan session on `trace`, a trace of
    /// `ranks` ranks; record latencies and digests.
    pub fn browse(
        &mut self,
        log: &mut SpanLog,
        parent: Option<u64>,
        session: u64,
        trace: &str,
        ranks: u32,
        shape: SessionShape,
    ) {
        let trace_key = fnv1a(trace.as_bytes());
        let rows = shape.rows;
        let first = self.rng.range(0, u64::from(ranks - rows)) as u32;
        let viewports = session_viewports(&mut self.rng, shape);
        let sp = log.open("browse", parent, session);
        let busy = Watch::start();
        let laps = viewports
            .iter()
            .cycle()
            .take(viewports.len() * shape.laps as usize);
        for &(zoom, tile) in laps {
            for rank in first..first + rows {
                let path = format!("/v1/tile?trace={trace}&rank={rank}&zoom={zoom}&tile={tile}");
                let t = Watch::start();
                let body = self.conn.request(&mut self.acc, "GET", &path, None);
                let lap = t.lap();
                let Some(body) = body else { continue };
                self.acc.add_lap(
                    "tile_ms",
                    Lap {
                        cpu_s: lap.cpu_s * 1e3,
                        wall_s: lap.wall_s * 1e3,
                    },
                );
                self.tiles += 1;
                let digest = fnv1a(body.as_bytes());
                let seen = *self
                    .seen_tiles
                    .entry((trace_key, rank, zoom, tile))
                    .or_insert(digest);
                self.acc
                    .tally
                    .check("tile body differs from an earlier fetch", seen == digest);
            }
        }
        log.close(sp);
        self.browse_s += busy.lap().cpu_s;
    }

    /// Check every tile seen on `trace` against `oracle`, then forget them.
    pub fn verify_tiles(&mut self, trace: &str, oracle: &Oracle) {
        let trace_key = fnv1a(trace.as_bytes());
        let mine: Vec<_> = self
            .seen_tiles
            .iter()
            .filter(|((t, ..), _)| *t == trace_key)
            .map(|(k, v)| (*k, *v))
            .collect();
        for ((_, rank, zoom, tile), digest) in mine {
            let ok = oracle.tile(rank, zoom, tile) == digest;
            self.acc
                .tally
                .check(&format!("tile {trace}/{rank}/{zoom}/{tile} vs oracle"), ok);
            self.seen_tiles.remove(&(trace_key, rank, zoom, tile));
        }
    }

    fn oracle_for(
        &mut self,
        bytes: &[u8],
        log: &mut SpanLog,
        parent: Option<u64>,
        session: u64,
    ) -> Arc<Oracle> {
        let digest = fnv1a(bytes);
        if self.traced {
            let o = Arc::new(Oracle::replay(bytes, log, parent, session, &mut self.acc));
            self.oracles.insert(digest, Arc::clone(&o));
            return o;
        }
        let o = self
            .oracles
            .entry(digest)
            .or_insert_with(|| Arc::new(Oracle::build(bytes)));
        Arc::clone(o)
    }
}

/// What one pass does beyond run → upload → first tile → verdict →
/// render.
pub struct PassPlan {
    pub id: String,
    /// `(ranks, shape)` of a zoom/pan session on the new trace.
    pub browse: Option<(u32, SessionShape)>,
    /// Diff against the previous pass's trace.
    pub diff: bool,
    /// Delete the trace at the end of the pass.
    pub delete: bool,
}

/// One pipeline pass, the user's loop end to end: run the program and
/// encode its log, upload it, fetch the first tile and the verdict,
/// render the whole trace, browse it, diff it against the previous
/// run. Every body is checked against the oracle.
pub fn pass(st: &mut ClientState, log: &mut SpanLog, prog: Program, plan: &PassPlan) {
    let session = st.next_session();
    let root = log.open("pass", None, session);
    let pid = root.id();

    // Run → CLOG2 bytes in hand.
    let sp = log.open("run", pid, session);
    let run_watch = Watch::start();
    let run_id = sp.id();
    let prog_sp = log.open("program", run_id, session);
    let clog = prog.run();
    log.close(prog_sp);
    let clog = match clog {
        Ok(c) => c,
        Err(why) => {
            log.close(sp);
            log.close(root);
            st.acc.tally.check(&why, false);
            return;
        }
    };
    st.acc.tally.succeeded();
    let enc = log.open("mpelog.encode", run_id, session);
    let bytes = clog.to_bytes();
    let encode_s = log.close(enc).as_secs_f64();
    st.acc.add_lap("run_s", run_watch.lap());
    log.close(sp);
    let records = clog.total_records();
    drop(clog);
    if st.traced {
        st.acc.add("mpelog.encode_s", encode_s);
        st.acc.add("mpelog.records", records as f64);
        st.acc.add("mpelog.clog_bytes", bytes.len() as f64);
    }
    let digest = fnv1a(&bytes);
    if let Program::Chain { rounds, vseed } = prog {
        let first = *st.run_digests.entry((rounds, vseed)).or_insert(digest);
        st.acc.tally.check(
            "CLOG2 bytes differ between runs of one seed",
            first == digest,
        );
    }

    // Upload → first tile → verdict.
    let id = plan.id.as_str();
    let rss_kb_if_traced = |traced: bool| if traced { rss_kb("VmRSS") } else { 0 };
    let rss_before = rss_kb_if_traced(st.traced);
    let t0 = Watch::start();
    let sp = log.open("upload", pid, session);
    let posted = st.conn.request(
        &mut st.acc,
        "POST",
        &format!("/v1/traces?id={id}"),
        Some(&bytes),
    );
    log.close(sp);
    let rss_after = rss_kb_if_traced(st.traced);
    let sp = log.open("first_tile", pid, session);
    let tile0 = st.conn.request(
        &mut st.acc,
        "GET",
        &format!("/v1/tile?trace={id}&rank=0&zoom=0&tile=0"),
        None,
    );
    let first_tile = t0.lap();
    log.close(sp);
    let sp = log.open("verdict", pid, session);
    let verdict = st.conn.request(
        &mut st.acc,
        "GET",
        &format!("/v1/diagnose?trace={id}"),
        None,
    );
    let verdict_lap = t0.lap();
    log.close(sp);
    let sp = log.open("render", pid, session);
    let render_watch = Watch::start();
    let svg = st.conn.request(
        &mut st.acc,
        "GET",
        &format!("/v1/render?trace={id}&backend=svg"),
        None,
    );
    let render_lap = render_watch.lap();
    log.close(sp);
    if posted.is_some() {
        st.acc.add_lap("first_tile_s", first_tile);
        if st.traced {
            let key = if log.enabled() {
                "obs.first_tile_on_s"
            } else {
                "obs.first_tile_off_s"
            };
            st.acc.add(key, first_tile.cpu_s);
        }
        st.acc.add_lap("verdict_s", verdict_lap);
        st.acc.add_lap("render_s", render_lap);
        if st.traced {
            let grown = rss_after.saturating_sub(rss_before) as f64 * 1024.0;
            st.acc
                .add("timeline.rss_per_wire_byte", grown / bytes.len() as f64);
        }
    }
    if let Some((ranks, shape)) = plan.browse {
        st.browse(log, pid, session, id, ranks, shape);
    }

    // The answer key, then the diff against the previous run.
    let sp = log.open("oracle", pid, session);
    let oracle = st.oracle_for(&bytes, log, sp.id(), session);
    log.close(sp);
    if plan.diff {
        if let Some(prev) = st.prev.clone() {
            let sp = log.open("diff", pid, session);
            let w = Watch::start();
            let d = diff::diff_traces(prev.file(), oracle.file(), ("before", "after"));
            st.acc.add_lap("diff_s", w.lap());
            log.close(sp);
            st.acc.tally.check(
                "diff aligns every timeline",
                d.alignment.pairs.len() >= oracle.file().timelines.len(),
            );
            if st.traced {
                let sp = log.open("diff.align", pid, session);
                let alignment = diff::align(prev.file(), oracle.file());
                let align_s = log.close(sp).as_secs_f64();
                let sp = log.open("diff.delta", pid, session);
                let makespans = (d.diag_before.makespan, d.diag_after.makespan);
                std::hint::black_box(diff::trace_delta(
                    prev.file(),
                    oracle.file(),
                    &alignment,
                    makespans,
                ));
                let delta_s = log.close(sp).as_secs_f64();
                st.acc.add("diff.align_s", align_s);
                st.acc.add("diff.delta_s", delta_s);
            }
        }
    }
    log.close(root);

    // Output checks (outside every timed interval).
    let digest_of = |b: &Option<String>| b.as_ref().map(|s| fnv1a(s.as_bytes()));
    let acc = &mut st.acc;
    if posted.is_some() {
        acc.tally.check(
            &format!("first tile of {id} vs oracle"),
            digest_of(&tile0) == Some(oracle.tile(0, 0, 0)),
        );
        acc.tally.check(
            &format!("diagnose of {id} vs oracle"),
            digest_of(&verdict) == Some(oracle.diagnose),
        );
        acc.tally.check(
            &format!("render of {id} vs oracle"),
            digest_of(&svg) == Some(oracle.render),
        );
    }
    st.verify_tiles(id, &oracle);
    st.prev = Some(oracle);
    if plan.delete {
        st.conn
            .request(&mut st.acc, "DELETE", &format!("/v1/traces/{id}"), None);
    }
}

/// A field of `/proc/self/status` in KiB (`VmHWM` = peak RSS, `VmRSS` =
/// current). 0 where the file does not exist.
pub fn rss_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_are_seeded_and_return_to_the_top() {
        let shape = SessionShape {
            rows: 1,
            depth: (6, 12),
            pans: (2, 6),
            laps: 1,
        };
        let a = session_viewports(&mut Rng::new(7), shape);
        let b = session_viewports(&mut Rng::new(7), shape);
        assert_eq!(a, b);
        assert_eq!(a.first(), Some(&(0, 0)));
        assert_eq!(a.last(), Some(&(0, 0)));
        assert!(a.iter().all(|&(z, t)| z <= 12 && t < 1 << z));
    }
}

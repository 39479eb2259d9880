//! World construction and the per-rank handle.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::clock::{ClockConfig, RankClock, TimeSource, WallSource, WorldClock};
use crate::engine::{Engine, EngineCore, WaitCx};
use crate::error::{MpiError, Result};
use crate::fault::{FaultPlan, SendFault};
use crate::mailbox::{AbortToken, Mailbox, MailboxSender};
use crate::message::{Delivery, Envelope, Message, Src, Tag};
use crate::sim::{SimCore, SimTimeSource};
use crate::MAX_USER_TAG;

/// Default per-rank thread stack under [`Engine::Virtual`]: thousand-rank
/// worlds should not reserve a thousand default-sized (8 MiB) stacks.
/// Overridable with [`WorldBuilder::stack_size`].
const SIM_DEFAULT_STACK: usize = 1 << 20;

/// Last-API-op codes recorded per rank for crash forensics. A relaxed
/// `u8` store per operation; decoded to a name only when building a
/// [`RankFailure`].
const OP_NONE: u8 = 0;
const OP_SEND: u8 = 1;
const OP_SSEND: u8 = 2;
const OP_RECV: u8 = 3;
const OP_RECV_TIMEOUT: u8 = 4;
const OP_PROBE: u8 = 5;
const OP_IPROBE: u8 = 6;
const OP_ABORT: u8 = 7;

fn op_name(code: u8) -> &'static str {
    match code {
        OP_SEND => "send",
        OP_SSEND => "ssend",
        OP_RECV => "recv",
        OP_RECV_TIMEOUT => "recv_timeout",
        OP_PROBE => "probe",
        OP_IPROBE => "iprobe",
        OP_ABORT => "abort",
        _ => "none",
    }
}

/// State shared by all ranks of one world.
pub(crate) struct Shared {
    size: usize,
    senders: Vec<MailboxSender>,
    clock: WorldClock,
    engine: EngineCore,
    abort: AbortToken,
    seq: AtomicU64,
    obs: Option<obs::ObsHandle>,
    /// Installed fault schedule; `None` on every production world.
    faults: Option<Arc<FaultPlan>>,
    /// Last API operation each rank entered, for [`RankFailure`].
    last_ops: Vec<AtomicU8>,
}

/// Per-rank metric handles, registered once at rank start so the hot
/// paths are single relaxed atomic operations.
pub(crate) struct RankObs {
    msgs_sent: obs::Counter,
    bytes_sent: obs::Counter,
    msgs_received: obs::Counter,
    bytes_received: obs::Counter,
    recv_wait_ns: obs::Histogram,
    probe_wait_ns: obs::Histogram,
    /// First-to-last arrival spread observed by the barrier root; see
    /// [`Rank::barrier`].
    pub(crate) barrier_skew_ns: obs::Histogram,
}

impl RankObs {
    fn new(shard: &obs::Shard) -> Self {
        Self {
            msgs_sent: shard.counter("minimpi.msgs_sent"),
            bytes_sent: shard.counter("minimpi.bytes_sent"),
            msgs_received: shard.counter("minimpi.msgs_received"),
            bytes_received: shard.counter("minimpi.bytes_received"),
            recv_wait_ns: shard.histogram("minimpi.recv_wait_ns"),
            probe_wait_ns: shard.histogram("minimpi.probe_wait_ns"),
            barrier_skew_ns: shard.histogram("minimpi.barrier_skew_ns"),
        }
    }
}

/// Builder for a [`World`].
pub struct WorldBuilder {
    size: usize,
    engine: Engine,
    clock: ClockConfig,
    stack_size: Option<usize>,
    obs: Option<obs::ObsHandle>,
    faults: Option<FaultPlan>,
    spawn_order: Option<Vec<usize>>,
}

impl WorldBuilder {
    /// Select the execution engine: wallclock OS threads (default) or
    /// the seeded discrete-event simulation (see [`Engine`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Configure the clock *shape*: resolution quantization and
    /// per-rank drift. The shape composes over whichever
    /// [`TimeSource`] the selected [`Engine`] provides — coarse ticks
    /// and injected drift distort virtual time exactly as they distort
    /// host time.
    pub fn clock_shape(mut self, cfg: ClockConfig) -> Self {
        self.clock = cfg;
        self
    }

    /// Override the order rank threads are spawned in. Determinism
    /// testing hook: a virtual-engine run must produce identical
    /// results under every spawn order, because scheduling is decided
    /// by the event queue, not by which OS thread won the race to
    /// start. Must be a permutation of `0..size`.
    pub fn spawn_order(mut self, order: Vec<usize>) -> Self {
        self.spawn_order = Some(order);
        self
    }

    /// Override the per-rank thread stack size.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Attach a metrics registry. Each rank records into its own shard
    /// (`minimpi.*` counters, mailbox-depth gauge, wait-time histograms);
    /// merge them with [`obs::Obs::snapshot`].
    pub fn observe(mut self, obs: obs::ObsHandle) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Install a deterministic fault schedule (see [`FaultPlan`]). An
    /// empty plan is ignored, so `World::builder(n).faults(plan)` with a
    /// rule-less plan behaves exactly like an unfaulted world.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Spawn `size` rank threads, run `body` on each, and join them all.
    ///
    /// `body` receives the rank handle and returns the rank's exit code —
    /// the moral equivalent of `main` in an `mpirun`-launched process.
    pub fn run<F>(self, body: F) -> WorldOutcome
    where
        F: Fn(&Rank) -> i32 + Send + Sync,
    {
        let size = self.size;
        assert!(size > 0, "world must have at least one rank");

        let mut senders = Vec::with_capacity(size);
        let mut boxes = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, mb) = Mailbox::new();
            senders.push(tx);
            boxes.push(mb);
        }

        // Instantiate the engine and its time source. Under sim, keep a
        // clone of every delivery channel alive for the whole run so a
        // send to an already-finished rank succeeds deterministically
        // instead of racing that rank's OS-thread teardown.
        let (engine, source): (EngineCore, Arc<dyn TimeSource>) = match self.engine {
            Engine::Wall => (EngineCore::Wall, Arc::new(WallSource::new())),
            Engine::Virtual { seed } => {
                let sim = SimCore::new(size, seed);
                (
                    EngineCore::Sim(Arc::clone(&sim)),
                    Arc::new(SimTimeSource(sim)),
                )
            }
        };
        let _keepalive: Vec<_> = match &engine {
            EngineCore::Wall => Vec::new(),
            EngineCore::Sim(_) => boxes.iter().map(|mb| mb.keepalive()).collect(),
        };
        let stack_size = self.stack_size.or(match &engine {
            EngineCore::Wall => None,
            EngineCore::Sim(_) => Some(SIM_DEFAULT_STACK),
        });

        let shared = Arc::new(Shared {
            size,
            senders,
            clock: WorldClock::over(source, &self.clock),
            engine,
            abort: AbortToken::default(),
            seq: AtomicU64::new(0),
            obs: self.obs.clone(),
            faults: self.faults.map(Arc::new),
            last_ops: (0..size).map(|_| AtomicU8::new(OP_NONE)).collect(),
        });

        let spawn_order: Vec<usize> = match self.spawn_order {
            Some(order) => {
                let mut seen = vec![false; size];
                assert_eq!(order.len(), size, "spawn_order must cover every rank");
                for &r in &order {
                    assert!(
                        r < size && !seen[r],
                        "spawn_order must be a permutation of 0..{size}"
                    );
                    seen[r] = true;
                }
                order
            }
            None => (0..size).collect(),
        };

        let body = &body;
        let mut exit_codes: Vec<std::result::Result<i32, String>> = Vec::with_capacity(size);

        std::thread::scope(|scope| {
            let mut boxes: Vec<Option<Mailbox>> = boxes.into_iter().map(Some).collect();
            let mut handles: Vec<Option<std::thread::ScopedJoinHandle<'_, i32>>> =
                (0..size).map(|_| None).collect();
            for &r in &spawn_order {
                let mb = boxes[r].take().expect("each rank spawned once");
                let shared = Arc::clone(&shared);
                let mut builder = std::thread::Builder::new().name(format!("rank-{r}"));
                if let Some(sz) = stack_size {
                    builder = builder.stack_size(sz);
                }
                let handle = builder
                    .spawn_scoped(scope, move || {
                        let mut mb = mb;
                        let robs = shared.obs.as_ref().map(|o| {
                            let shard = o.shard(r);
                            mb.set_depth_gauge(shard.gauge("minimpi.mailbox_depth"));
                            RankObs::new(&shard)
                        });
                        let fault = shared.faults.as_ref().map(|plan| RankFaultState {
                            plan: Arc::clone(plan),
                            sends: Cell::new(0),
                            recvs: Cell::new(0),
                        });
                        let rank = Rank {
                            rank: r,
                            shared: Arc::clone(&shared),
                            mailbox: RefCell::new(mb),
                            coll_seq: std::cell::Cell::new(0),
                            obs: robs,
                            fault,
                        };
                        // If this rank panics, trip the abort switch so the
                        // others don't block forever on messages that will
                        // never come.
                        let guard = PanicGuard {
                            shared: &shared,
                            rank: r,
                        };
                        // Under sim: park until the scheduler dispatches
                        // us, so execution order is event-queue order,
                        // not spawn order.
                        shared.engine.start(r);
                        let code = body(&rank);
                        std::mem::forget(guard);
                        shared.engine.finish(r, &shared.abort);
                        code
                    })
                    .expect("failed to spawn rank thread");
                handles[r] = Some(handle);
            }
            // All rank threads exist (or are parked): hand the sim its
            // first event. Wall worlds are already running.
            if let EngineCore::Sim(sim) = &shared.engine {
                sim.kickoff(&shared.abort);
            }
            for h in handles {
                let h = h.expect("every rank spawned");
                exit_codes.push(h.join().map_err(|p| panic_message(&*p)));
            }
        });

        let (codes, panics): (Vec<Option<i32>>, Vec<Option<String>>) = exit_codes
            .into_iter()
            .map(|r| match r {
                Ok(c) => (Some(c), None),
                Err(msg) => (None, Some(msg)),
            })
            .unzip();

        let failures = panics
            .iter()
            .enumerate()
            .filter_map(|(r, p)| {
                p.as_ref().map(|payload| RankFailure {
                    rank: r,
                    payload: payload.clone(),
                    last_op: op_name(shared.last_ops[r].load(Ordering::Relaxed)),
                })
            })
            .collect();

        WorldOutcome {
            exit_codes: codes,
            panics,
            aborted: shared.abort.origin(),
            failures,
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct PanicGuard<'a> {
    shared: &'a Shared,
    rank: usize,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        // Only reached on unwind (the happy path forgets the guard).
        self.shared.abort.trip(self.rank, -2);
        // Under sim the other ranks are parked, not polling: hand each
        // of them a wake event so they observe the tripped token, then
        // release this rank's execution token for good.
        self.shared.engine.wake_all(self.rank);
        self.shared.engine.finish(self.rank, &self.shared.abort);
    }
}

/// Entry point: `World::builder(n).run(...)`.
pub struct World;

impl World {
    /// Start building a world of `size` ranks.
    pub fn builder(size: usize) -> WorldBuilder {
        WorldBuilder {
            size,
            engine: Engine::Wall,
            clock: ClockConfig::default(),
            stack_size: None,
            obs: None,
            faults: None,
            spawn_order: None,
        }
    }
}

/// Structured description of a rank that died by panic: who, with what
/// payload, and the last runtime operation it had entered — the raw
/// material for a crash-forensics report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// The rank that panicked.
    pub rank: usize,
    /// The panic payload (message), captured at join.
    pub payload: String,
    /// The last `minimpi` API operation the rank entered before dying
    /// ("send", "recv", ... or "none" if it never communicated).
    pub last_op: &'static str,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} panicked (last op: {}): {}",
            self.rank, self.last_op, self.payload
        )
    }
}

/// What happened to each rank after the world finished.
#[derive(Debug, Clone)]
pub struct WorldOutcome {
    /// Exit code per rank; `None` if the rank panicked.
    pub exit_codes: Vec<Option<i32>>,
    /// Panic message per rank, if it panicked.
    pub panics: Vec<Option<String>>,
    /// `(origin_rank, code)` if the world was aborted.
    pub aborted: Option<(usize, i32)>,
    /// Structured failure per panicked rank (same information as
    /// `panics`, plus the last API op), in rank order.
    pub failures: Vec<RankFailure>,
}

impl WorldOutcome {
    /// All ranks returned 0, nobody panicked, nobody aborted.
    pub fn all_ok(&self) -> bool {
        self.aborted.is_none()
            && self.panics.iter().all(Option::is_none)
            && self.exit_codes.iter().all(|c| *c == Some(0))
    }
}

/// A rank's handle to the world: identity, clock, and communication.
///
/// Not `Sync`: each rank thread keeps its own handle, just as each MPI
/// process has its own communicator state.
pub struct Rank {
    rank: usize,
    shared: Arc<Shared>,
    mailbox: RefCell<Mailbox>,
    /// Count of collective operations this rank has entered. All ranks
    /// call collectives in the same order (an MPI rule we inherit), so the
    /// counter agrees across ranks and disambiguates back-to-back
    /// collectives that would otherwise match each other's traffic.
    coll_seq: std::cell::Cell<u64>,
    /// Metric handles when the world was built with
    /// [`WorldBuilder::observe`].
    obs: Option<RankObs>,
    /// Fault schedule + this rank's op ordinals; `None` unless the world
    /// was built with [`WorldBuilder::faults`].
    fault: Option<RankFaultState>,
}

/// Per-rank fault-injection state: the shared plan and this rank's own
/// 1-based send/recv ordinals.
struct RankFaultState {
    plan: Arc<FaultPlan>,
    sends: Cell<u64>,
    recvs: Cell<u64>,
}

impl Rank {
    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// This rank's wallclock (drifted/quantized per the world's
    /// [`ClockConfig`]) — the analogue of `MPI_Wtime`.
    #[inline]
    pub fn wtime(&self) -> f64 {
        self.clock().now()
    }

    /// The honest engine clock, bypassing injected drift/quantization —
    /// host time under [`Engine::Wall`], simulation time under
    /// [`Engine::Virtual`]. Used by tests, the overhead harness, and
    /// anything measuring *real* elapsed time inside a world.
    #[inline]
    pub fn true_time(&self) -> f64 {
        self.shared.clock.true_now(self.rank)
    }

    /// Sleep for `d` of engine time: real `thread::sleep` under
    /// [`Engine::Wall`], a virtual-clock timer under
    /// [`Engine::Virtual`] (costs no wall time and cannot be
    /// interrupted by deliveries, exactly like the real thing).
    pub fn sleep(&self, d: Duration) {
        self.shared.engine.sleep(self.rank, d, &self.shared.abort);
    }

    /// The wait context handed to blocking mailbox operations.
    #[inline]
    fn cx(&self) -> WaitCx<'_> {
        WaitCx {
            abort: &self.shared.abort,
            engine: &self.shared.engine,
            clock: &self.shared.clock,
            rank: self.rank,
        }
    }

    /// This rank's clock view.
    pub fn clock(&self) -> RankClock<'_> {
        self.shared.clock.view(self.rank)
    }

    /// Has this world been aborted?
    pub fn is_aborted(&self) -> bool {
        self.shared.abort.is_tripped()
    }

    fn validate(&self, peer: usize, tag: u32, internal: bool) -> Result<()> {
        if peer >= self.shared.size {
            return Err(MpiError::InvalidRank {
                rank: peer,
                size: self.shared.size,
            });
        }
        if !internal && tag > MAX_USER_TAG {
            return Err(MpiError::InvalidTag { tag });
        }
        Ok(())
    }

    fn next_seq(&self) -> u64 {
        self.shared.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Record the API operation this rank just entered (one relaxed
    /// byte store; read back only when building a [`RankFailure`]).
    /// Under sim this also advances the rank's local clock by one op's
    /// worth of virtual time, so successive events on a rank carry
    /// strictly increasing timestamps.
    #[inline]
    fn note_op(&self, op: u8) {
        self.shared.last_ops[self.rank].store(op, Ordering::Relaxed);
        self.shared.engine.charge_op(self.rank);
    }

    /// Advance this rank's send ordinal and apply any scheduled fault.
    /// Returns `true` if the message must be held (silently dropped).
    /// Never taken unless a [`FaultPlan`] was installed.
    fn fault_on_send(&self) -> bool {
        if let Some(fs) = &self.fault {
            let n = fs.sends.get() + 1;
            fs.sends.set(n);
            match fs.plan.send_fault(self.rank, n) {
                Some(SendFault::Panic(msg)) => panic!("{}", msg.clone()),
                Some(SendFault::Delay(d)) => {
                    self.shared.engine.sleep(self.rank, *d, &self.shared.abort)
                }
                Some(SendFault::Hold) => return true,
                None => {}
            }
        }
        false
    }

    /// Advance this rank's recv ordinal and apply any scheduled fault.
    fn fault_on_recv(&self) {
        if let Some(fs) = &self.fault {
            let n = fs.recvs.get() + 1;
            fs.recvs.set(n);
            if let Some(msg) = fs.plan.recv_fault(self.rank, n) {
                panic!("{}", msg.to_string());
            }
        }
    }

    /// Buffered send (like `MPI_Send` with buffering): enqueues and
    /// returns immediately.
    pub fn send(&self, dst: usize, tag: u32, payload: &[u8]) -> Result<()> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(payload))
    }

    /// Buffered send of an owned payload (no copy).
    pub fn send_bytes(&self, dst: usize, tag: u32, payload: Bytes) -> Result<()> {
        self.note_op(OP_SEND);
        self.validate(dst, tag, false)?;
        self.deliver(dst, tag, payload)
    }

    pub(crate) fn deliver(&self, dst: usize, tag: u32, payload: Bytes) -> Result<()> {
        self.shared.abort.check()?;
        if self.fault_on_send() {
            // Held: the sender believes it sent; nothing ever arrives.
            return Ok(());
        }
        self.note_sent(payload.len());
        let msg = Message::new(self.rank, dst, tag, self.next_seq(), payload);
        self.shared.senders[dst]
            .send(Delivery::Msg(msg))
            .map_err(|_| MpiError::WorldDown)?;
        self.shared.engine.wake(self.rank, dst);
        Ok(())
    }

    /// Synchronous send (like `MPI_Ssend`): blocks until the receiver has
    /// matched the message.
    pub fn ssend(&self, dst: usize, tag: u32, payload: &[u8]) -> Result<()> {
        self.note_op(OP_SSEND);
        self.validate(dst, tag, false)?;
        self.shared.abort.check()?;
        if self.fault_on_send() {
            // Held: rendezvous never completes on the wire, but the
            // injected fault lets the sender continue so the *receiver*
            // experiences the loss.
            return Ok(());
        }
        self.note_sent(payload.len());
        let msg = Message::new(
            self.rank,
            dst,
            tag,
            self.next_seq(),
            Bytes::copy_from_slice(payload),
        );
        let (ack_tx, ack_rx) = crossbeam::channel::bounded(1);
        self.shared.senders[dst]
            .send(Delivery::SyncMsg(msg, ack_tx))
            .map_err(|_| MpiError::WorldDown)?;
        self.shared.engine.wake(self.rank, dst);
        if self.shared.engine.sim().is_some() {
            // Virtual engine: park until the receiver's match (or an
            // abort) wakes us — no heartbeat polling in simulated time.
            let cx = self.cx();
            loop {
                match ack_rx.try_recv() {
                    Ok(()) => return Ok(()),
                    Err(crossbeam::channel::TryRecvError::Empty) => {
                        self.shared.abort.check()?;
                        cx.block(None);
                    }
                    Err(crossbeam::channel::TryRecvError::Disconnected) => {
                        self.shared.abort.check()?;
                        return Err(MpiError::WorldDown);
                    }
                }
            }
        }
        loop {
            match ack_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(()) => return Ok(()),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    self.shared.abort.check()?;
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    // Receiver dropped the ack without matching — its
                    // mailbox was torn down. If that teardown came from
                    // an abort (e.g. the receiver died), report the
                    // abort rather than masking it as WorldDown.
                    self.shared.abort.check()?;
                    return Err(MpiError::WorldDown);
                }
            }
        }
    }

    /// Record an outgoing message on this rank's metric shard, if any.
    fn note_sent(&self, bytes: usize) {
        if let Some(o) = &self.obs {
            o.msgs_sent.inc();
            o.bytes_sent.add(bytes as u64);
        }
    }

    /// Record a completed receive and how long it blocked.
    fn note_received(&self, res: &Result<Message>, start: Option<Instant>) {
        if let Some(o) = &self.obs {
            if let Some(t0) = start {
                o.recv_wait_ns.record(t0.elapsed().as_nanos() as u64);
            }
            if let Ok(m) = res {
                o.msgs_received.inc();
                o.bytes_received.add(m.payload.len() as u64);
            }
        }
    }

    /// Blocking matched receive.
    pub fn recv(&self, src: Src, tag: Tag) -> Result<Message> {
        self.note_op(OP_RECV);
        self.fault_on_recv();
        let start = self.obs.as_ref().map(|_| Instant::now());
        let res = self.mailbox.borrow_mut().recv(src, tag, &self.cx());
        self.note_received(&res, start);
        res
    }

    /// Matched receive with a deadline.
    pub fn recv_timeout(&self, src: Src, tag: Tag, timeout: Duration) -> Result<Message> {
        self.note_op(OP_RECV_TIMEOUT);
        self.fault_on_recv();
        let start = self.obs.as_ref().map(|_| Instant::now());
        let res = self
            .mailbox
            .borrow_mut()
            .recv_timeout(src, tag, timeout, &self.cx());
        self.note_received(&res, start);
        res
    }

    /// Blocking probe (does not consume the message).
    pub fn probe(&self, src: Src, tag: Tag) -> Result<Envelope> {
        self.note_op(OP_PROBE);
        let start = self.obs.as_ref().map(|_| Instant::now());
        let res = self.mailbox.borrow_mut().probe(src, tag, &self.cx());
        if let (Some(o), Some(t0)) = (&self.obs, start) {
            o.probe_wait_ns.record(t0.elapsed().as_nanos() as u64);
        }
        res
    }

    /// Non-blocking probe.
    pub fn iprobe(&self, src: Src, tag: Tag) -> Result<Option<Envelope>> {
        self.note_op(OP_IPROBE);
        self.mailbox.borrow_mut().iprobe(src, tag, &self.cx())
    }

    /// Abort the whole world, like `MPI_Abort`: every rank's next (or
    /// current) blocking operation fails with [`MpiError::Aborted`].
    ///
    /// Returns the abort error so callers can `return Err(rank.abort(code))`.
    pub fn abort(&self, code: i32) -> MpiError {
        self.note_op(OP_ABORT);
        self.shared.abort.trip(self.rank, code);
        self.shared.engine.wake_all(self.rank);
        MpiError::Aborted {
            origin: self.rank,
            code,
        }
    }

    /// Internal-tag send used by the collectives module.
    pub(crate) fn send_internal(&self, dst: usize, tag: u32, payload: Bytes) -> Result<()> {
        self.validate(dst, tag, true)?;
        self.deliver(dst, tag, payload)
    }

    /// Advance this rank's collective counter and return it. Called once
    /// per collective entry; the value is folded into the internal tag.
    pub(crate) fn next_collective_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    /// This rank's metric handles, if the world is observed.
    pub(crate) fn obs(&self) -> Option<&RankObs> {
        self.obs.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{decode_scalar, encode_scalar};

    #[test]
    fn singleton_world_runs() {
        let out = World::builder(1).run(|rank| {
            assert_eq!(rank.rank(), 0);
            assert_eq!(rank.size(), 1);
            0
        });
        assert!(out.all_ok());
    }

    #[test]
    fn ping_pong() {
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 1, encode_scalar(123i64)).unwrap();
                let m = rank.recv(Src::Of(1), Tag::Of(2)).unwrap();
                assert_eq!(decode_scalar::<i64>(&m.payload).unwrap(), 124);
            } else {
                let m = rank.recv(Src::Of(0), Tag::Of(1)).unwrap();
                let v = decode_scalar::<i64>(&m.payload).unwrap();
                rank.send_bytes(0, 2, encode_scalar(v + 1)).unwrap();
            }
            0
        });
        assert!(out.all_ok(), "{out:?}");
    }

    #[test]
    fn fifo_order_per_pair() {
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                for i in 0..100i64 {
                    rank.send_bytes(1, 5, encode_scalar(i)).unwrap();
                }
            } else {
                for i in 0..100i64 {
                    let m = rank.recv(Src::Of(0), Tag::Of(5)).unwrap();
                    assert_eq!(decode_scalar::<i64>(&m.payload).unwrap(), i);
                }
            }
            0
        });
        assert!(out.all_ok());
    }

    #[test]
    fn any_source_gathers_from_all() {
        let n = 5;
        let out = World::builder(n).run(|rank| {
            if rank.rank() == 0 {
                let mut seen = vec![false; n];
                for _ in 1..n {
                    let m = rank.recv(Src::Any, Tag::Of(9)).unwrap();
                    seen[m.env.src] = true;
                }
                assert!(seen[1..].iter().all(|&b| b));
            } else {
                rank.send(0, 9, b"hi").unwrap();
            }
            0
        });
        assert!(out.all_ok());
    }

    #[test]
    fn invalid_rank_and_tag_are_rejected() {
        let out = World::builder(1).run(|rank| {
            assert!(matches!(
                rank.send(5, 0, b""),
                Err(MpiError::InvalidRank { rank: 5, size: 1 })
            ));
            assert!(matches!(
                rank.send(0, u32::MAX, b""),
                Err(MpiError::InvalidTag { .. })
            ));
            0
        });
        assert!(out.all_ok());
    }

    #[test]
    fn ssend_blocks_until_matched() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let matched = AtomicBool::new(false);
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                rank.ssend(1, 3, b"sync").unwrap();
                // By rendezvous semantics the receiver must have matched.
                assert!(matched.load(Ordering::SeqCst));
            } else {
                std::thread::sleep(Duration::from_millis(50));
                matched.store(true, Ordering::SeqCst);
                rank.recv(Src::Of(0), Tag::Of(3)).unwrap();
            }
            0
        });
        assert!(out.all_ok());
    }

    #[test]
    fn abort_releases_blocked_ranks() {
        let out = World::builder(3).run(|rank| {
            if rank.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                let _ = rank.abort(99);
                return 1;
            }
            // Ranks 1 and 2 block forever — abort must wake them.
            match rank.recv(Src::Any, Tag::Any) {
                Err(MpiError::Aborted {
                    origin: 0,
                    code: 99,
                }) => 2,
                other => panic!("expected abort, got {other:?}"),
            }
        });
        assert_eq!(out.aborted, Some((0, 99)));
        assert_eq!(out.exit_codes, vec![Some(1), Some(2), Some(2)]);
    }

    #[test]
    fn panicking_rank_aborts_world() {
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                panic!("rank 0 exploded");
            }
            match rank.recv(Src::Any, Tag::Any) {
                Err(MpiError::Aborted { .. }) => 0,
                other => panic!("expected abort, got {other:?}"),
            }
        });
        assert!(out.panics[0].as_deref().unwrap().contains("exploded"));
        assert_eq!(out.exit_codes[1], Some(0));
        assert!(!out.all_ok());
    }

    #[test]
    fn wtime_advances() {
        let out = World::builder(1).run(|rank| {
            let a = rank.wtime();
            std::thread::sleep(Duration::from_millis(5));
            let b = rank.wtime();
            assert!(b > a);
            0
        });
        assert!(out.all_ok());
    }

    #[test]
    fn send_after_abort_fails() {
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                let _ = rank.abort(1);
                assert!(matches!(
                    rank.send(1, 0, b""),
                    Err(MpiError::Aborted { .. })
                ));
            } else {
                let _ = rank.recv(Src::Any, Tag::Any);
            }
            0
        });
        assert_eq!(out.aborted, Some((0, 1)));
    }

    #[test]
    fn observed_world_counts_messages_and_bytes() {
        let obs = obs::Obs::handle();
        let out = World::builder(2)
            .observe(std::sync::Arc::clone(&obs))
            .run(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 1, &[0u8; 10]).unwrap();
                    rank.ssend(1, 2, &[0u8; 5]).unwrap();
                } else {
                    rank.recv(Src::Of(0), Tag::Of(2)).unwrap();
                    rank.recv(Src::Of(0), Tag::Of(1)).unwrap();
                }
                rank.barrier().unwrap();
                0
            });
        assert!(out.all_ok());
        let snap = obs.snapshot();
        // 2 user messages + 2 barrier messages (1 in, 1 out).
        assert_eq!(snap.counter("minimpi.msgs_sent"), 4);
        assert_eq!(snap.counter("minimpi.msgs_received"), 4);
        assert_eq!(snap.counter("minimpi.bytes_sent"), 15);
        assert_eq!(snap.counter("minimpi.bytes_received"), 15);
        // The tag-2 message had to be parked while rank 1 waited on tag
        // 1 first, so the mailbox-depth high-water mark is at least 1.
        assert!(snap.gauges["minimpi.mailbox_depth"].high >= 1);
        assert!(snap.hists["minimpi.recv_wait_ns"].count >= 4);
        assert_eq!(snap.hists["minimpi.barrier_skew_ns"].count, 1);
    }

    #[test]
    fn fault_panic_at_nth_send_yields_rank_failure() {
        let plan = FaultPlan::new(1).panic_at_send(0, 2, "injected: send 2 dies");
        let out = World::builder(2).faults(plan).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 1, b"first").unwrap();
                rank.send(1, 1, b"second").unwrap(); // dies here
                unreachable!();
            }
            // The panic guard trips the abort, so the survivor drains.
            match rank.recv(Src::Of(0), Tag::Of(2)) {
                Err(MpiError::Aborted { origin: 0, .. }) => 0,
                other => panic!("expected abort, got {other:?}"),
            }
        });
        assert_eq!(out.aborted, Some((0, -2)));
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.rank, 0);
        assert_eq!(f.last_op, "send");
        assert!(f.payload.contains("injected: send 2 dies"));
        assert_eq!(out.exit_codes, vec![None, Some(0)]);
    }

    #[test]
    fn fault_panic_at_recv_records_last_op() {
        let plan = FaultPlan::new(1).panic_at_recv(1, 1, "injected: recv dies");
        let out = World::builder(2).faults(plan).run(|rank| {
            if rank.rank() == 1 {
                let _ = rank.recv(Src::Any, Tag::Any);
                return 1;
            }
            // Rank 0 parks until the dying receiver trips the abort.
            match rank.recv(Src::Of(1), Tag::Of(1)) {
                Err(MpiError::Aborted { origin: 1, .. }) => 0,
                other => panic!("expected abort, got {other:?}"),
            }
        });
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].rank, 1);
        assert_eq!(out.failures[0].last_op, "recv");
    }

    #[test]
    fn fault_hold_makes_receiver_time_out_with_context() {
        let plan = FaultPlan::new(1).hold_send(0, 1);
        let out = World::builder(2).faults(plan).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 6, b"lost").unwrap(); // held, never arrives
                return 0;
            }
            match rank.recv_timeout(Src::Of(0), Tag::Of(6), Duration::from_millis(60)) {
                Err(MpiError::Timeout {
                    op: "recv_timeout",
                    src: Src::Of(0),
                    tag: Tag::Of(6),
                }) => 0,
                other => panic!("expected contextful timeout, got {other:?}"),
            }
        });
        assert!(out.all_ok(), "{out:?}");
    }

    #[test]
    fn fault_delay_slows_delivery() {
        let plan = FaultPlan::new(1).delay_send(0, 1, Duration::from_millis(40));
        let out = World::builder(2).faults(plan).run(|rank| {
            if rank.rank() == 0 {
                let t0 = Instant::now();
                rank.send(1, 1, b"slow").unwrap();
                assert!(t0.elapsed() >= Duration::from_millis(40));
            } else {
                rank.recv(Src::Of(0), Tag::Of(1)).unwrap();
            }
            0
        });
        assert!(out.all_ok(), "{out:?}");
    }

    #[test]
    fn fault_matrix_is_deterministic_across_runs() {
        let run_once = || {
            let plan = FaultPlan::new(42).panic_at_send(1, 3, "det-panic");
            World::builder(3).faults(plan).run(|rank| {
                if rank.rank() == 1 {
                    for i in 0..10u32 {
                        rank.send(2, 1, &i.to_le_bytes()).unwrap();
                    }
                    return 1;
                }
                if rank.rank() == 2 {
                    loop {
                        match rank.recv(Src::Of(1), Tag::Of(1)) {
                            Ok(_) => {}
                            Err(_) => return 0,
                        }
                    }
                }
                match rank.recv(Src::Any, Tag::Any) {
                    Err(_) => 0,
                    Ok(_) => 3,
                }
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.failures.len(), 1);
        assert_eq!(a.failures[0].rank, 1);
        assert_eq!(a.failures[0].last_op, "send");
        assert_eq!(a.aborted, b.aborted);
    }

    #[test]
    fn unfaulted_world_has_no_failures() {
        let out = World::builder(1).run(|_| 0);
        assert!(out.failures.is_empty());
    }

    #[test]
    fn recv_timeout_returns_within_heartbeat_under_contention() {
        // The deadline loop steps in min(remaining, 20 ms) chunks, so
        // even with unrelated traffic arriving the call must return
        // within timeout + one heartbeat (+ scheduling slack).
        let timeout = Duration::from_millis(100);
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                // Contention: a stream of non-matching messages. Sends
                // may fail once the receiver exits; that's fine.
                for _ in 0..50 {
                    let _ = rank.send(1, 5, b"noise");
                    std::thread::sleep(Duration::from_millis(2));
                }
                return 0;
            }
            let t0 = Instant::now();
            let r = rank.recv_timeout(Src::Of(0), Tag::Of(9), timeout);
            let elapsed = t0.elapsed();
            assert!(matches!(r, Err(MpiError::Timeout { .. })), "{r:?}");
            assert!(elapsed >= timeout, "returned early: {elapsed:?}");
            assert!(
                elapsed < timeout + Duration::from_millis(120),
                "recv_timeout overstayed: {elapsed:?}"
            );
            0
        });
        assert!(out.all_ok(), "{out:?}");
    }

    #[test]
    fn abort_wakes_blocked_ssend_promptly_and_is_not_masked() {
        // Rank 0 blocks in ssend to rank 1, which never matches it and
        // aborts instead. The ssend must (a) wake within a couple of
        // heartbeats and (b) report Aborted, not WorldDown.
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                let t0 = Instant::now();
                let r = rank.ssend(1, 3, b"never matched");
                let elapsed = t0.elapsed();
                match r {
                    Err(MpiError::Aborted {
                        origin: 1,
                        code: 17,
                    }) => {}
                    other => panic!("expected Aborted from ssend, got {other:?}"),
                }
                assert!(
                    elapsed < Duration::from_millis(500),
                    "ssend took {elapsed:?} to observe the abort"
                );
                return 0;
            }
            std::thread::sleep(Duration::from_millis(30));
            let _ = rank.abort(17);
            0
        });
        assert_eq!(out.aborted, Some((1, 17)));
    }

    #[test]
    fn abort_wakes_blocked_recv_promptly() {
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                let t0 = Instant::now();
                let r = rank.recv(Src::Of(1), Tag::Of(1));
                let elapsed = t0.elapsed();
                assert!(matches!(r, Err(MpiError::Aborted { .. })), "{r:?}");
                assert!(
                    elapsed < Duration::from_millis(500),
                    "recv took {elapsed:?} to observe the abort"
                );
                return 0;
            }
            std::thread::sleep(Duration::from_millis(30));
            let _ = rank.abort(5);
            0
        });
        assert_eq!(out.aborted, Some((1, 5)));
    }

    /// Virtual-engine behavior: determinism, virtual time, deadlock
    /// conviction, schedule exploration.
    mod sim {
        use super::*;
        use crate::sim::SIM_DEADLOCK_CODE;

        fn virt(seed: u64) -> Engine {
            Engine::Virtual { seed }
        }

        #[test]
        fn virtual_ping_pong_is_exact_across_runs() {
            let run = || {
                let times = std::sync::Mutex::new(Vec::new());
                let out = World::builder(2).engine(virt(1)).run(|rank| {
                    if rank.rank() == 0 {
                        rank.send(1, 1, b"ping").unwrap();
                        rank.recv(Src::Of(1), Tag::Of(2)).unwrap();
                    } else {
                        rank.recv(Src::Of(0), Tag::Of(1)).unwrap();
                        rank.send(0, 2, b"pong").unwrap();
                    }
                    times.lock().unwrap().push((rank.rank(), rank.wtime()));
                    0
                });
                assert!(out.all_ok(), "{out:?}");
                let mut t = times.into_inner().unwrap();
                t.sort_by(|a, b| a.partial_cmp(b).unwrap());
                t
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "virtual timestamps must be bit-identical");
            // Virtual time actually advanced (ops cost 1 µs each).
            assert!(a.iter().all(|&(_, t)| t > 0.0), "{a:?}");
        }

        #[test]
        fn thousand_rank_ring_is_fast_and_deterministic() {
            let n = 1024;
            let run = || {
                let out = World::builder(n).engine(virt(7)).run(|rank| {
                    let r = rank.rank();
                    // Pass a counter around the ring once.
                    if r == 0 {
                        rank.send(1, 1, &0u64.to_le_bytes()).unwrap();
                        let m = rank.recv(Src::Of(n - 1), Tag::Of(1)).unwrap();
                        let v = u64::from_le_bytes(m.payload.as_ref().try_into().unwrap());
                        assert_eq!(v, (n - 1) as u64);
                    } else {
                        let m = rank.recv(Src::Of(r - 1), Tag::Of(1)).unwrap();
                        let v = u64::from_le_bytes(m.payload.as_ref().try_into().unwrap());
                        rank.send((r + 1) % n, 1, &(v + 1).to_le_bytes()).unwrap();
                    }
                    // Everyone reports a virtual timestamp via exit code
                    // granularity-checked below through wtime determinism.
                    (rank.wtime() * 1e9) as i32 % 97
                });
                assert!(out.aborted.is_none(), "{:?}", out.aborted);
                out.exit_codes
            };
            let t0 = Instant::now();
            let a = run();
            let b = run();
            assert_eq!(a, b);
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "two 1024-rank virtual runs took {:?}",
                t0.elapsed()
            );
        }

        #[test]
        fn quiescent_cycle_is_convicted_as_sim_deadlock() {
            // Classic read/read cycle: both ranks wait for the other to
            // send first. Under wall this hangs until an outside
            // watchdog fires; under sim the scheduler proves no event
            // can ever arrive and convicts immediately.
            let out = World::builder(2).engine(virt(3)).run(|rank| {
                let peer = 1 - rank.rank();
                match rank.recv(Src::Of(peer), Tag::Of(1)) {
                    Err(MpiError::Aborted { code, .. }) => code,
                    other => panic!("expected deadlock abort, got {other:?}"),
                }
            });
            assert_eq!(out.aborted, Some((0, SIM_DEADLOCK_CODE)));
            assert_eq!(
                out.exit_codes,
                vec![Some(SIM_DEADLOCK_CODE), Some(SIM_DEADLOCK_CODE)]
            );
        }

        #[test]
        fn seeds_explore_different_any_source_orders() {
            // Three symmetric senders racing into Src::Any: the arrival
            // order at rank 0 is a pure function of the seed, and some
            // pair of seeds must disagree.
            let order_for = |seed| {
                let order = std::sync::Mutex::new(Vec::new());
                let out = World::builder(4).engine(virt(seed)).run(|rank| {
                    if rank.rank() == 0 {
                        for _ in 0..3 {
                            let m = rank.recv(Src::Any, Tag::Of(5)).unwrap();
                            order.lock().unwrap().push(m.env.src);
                        }
                    } else {
                        rank.send(0, 5, b"race").unwrap();
                    }
                    0
                });
                assert!(out.all_ok(), "{out:?}");
                order.into_inner().unwrap()
            };
            let orders: Vec<_> = (0..8).map(order_for).collect();
            // Same seed replays the same order.
            assert_eq!(orders[0], order_for(0));
            // Some pair of seeds must explore different schedules.
            assert!(
                orders.windows(2).any(|w| w[0] != w[1]),
                "8 seeds all produced {:?}",
                orders[0]
            );
        }

        #[test]
        fn virtual_recv_timeout_elapses_instantly() {
            // A held send never arrives; the 30-virtual-second timeout
            // must fire without 30 real seconds passing.
            let plan = FaultPlan::new(1).hold_send(0, 1);
            let t0 = Instant::now();
            let out = World::builder(2).engine(virt(1)).faults(plan).run(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 6, b"lost").unwrap();
                    return 0;
                }
                match rank.recv_timeout(Src::Of(0), Tag::Of(6), Duration::from_secs(30)) {
                    Err(MpiError::Timeout { .. }) => {
                        // Virtual time really did pass.
                        assert!(rank.true_time() >= 30.0, "{}", rank.true_time());
                        0
                    }
                    other => panic!("expected timeout, got {other:?}"),
                }
            });
            assert!(out.all_ok(), "{out:?}");
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "virtual timeout burned {:?} of wall time",
                t0.elapsed()
            );
        }

        #[test]
        fn virtual_sleep_and_ssend_work() {
            let t0 = Instant::now();
            let out = World::builder(2).engine(virt(9)).run(|rank| {
                if rank.rank() == 0 {
                    rank.sleep(Duration::from_secs(5));
                    assert!(rank.true_time() >= 5.0);
                    rank.ssend(1, 3, b"sync").unwrap();
                } else {
                    rank.recv(Src::Of(0), Tag::Of(3)).unwrap();
                }
                0
            });
            assert!(out.all_ok(), "{out:?}");
            assert!(t0.elapsed() < Duration::from_secs(5));
        }

        #[test]
        fn spawn_order_does_not_change_virtual_schedule() {
            let run = |spawn: Option<Vec<usize>>| {
                let order = std::sync::Mutex::new(Vec::new());
                let mut b = World::builder(4).engine(virt(11));
                if let Some(s) = spawn {
                    b = b.spawn_order(s);
                }
                let out = b.run(|rank| {
                    if rank.rank() == 0 {
                        for _ in 0..3 {
                            let m = rank.recv(Src::Any, Tag::Of(2)).unwrap();
                            order.lock().unwrap().push((m.env.src, rank.wtime()));
                        }
                    } else {
                        rank.send(0, 2, b"x").unwrap();
                    }
                    0
                });
                assert!(out.all_ok(), "{out:?}");
                order.into_inner().unwrap()
            };
            let a = run(None);
            let b = run(Some(vec![3, 1, 0, 2]));
            let c = run(Some(vec![2, 3, 1, 0]));
            assert_eq!(a, b);
            assert_eq!(a, c);
        }

        #[test]
        fn virtual_collectives_and_drifted_clock_compose() {
            // Drift shapes virtual time exactly as it shapes host time.
            let cfg = ClockConfig::with_linear_drift(2, 0.5, 0.0);
            let out = World::builder(2)
                .engine(virt(5))
                .clock_shape(cfg)
                .run(|rank| {
                    let v = rank
                        .allreduce(crate::ReduceOp::Sum, &[rank.rank() as i64 + 1])
                        .unwrap();
                    assert_eq!(v, vec![3]);
                    rank.barrier().unwrap();
                    if rank.rank() == 1 {
                        // Rank 1 carries +0.5 s of injected offset over
                        // the simulation clock.
                        assert!(rank.wtime() >= 0.5, "{}", rank.wtime());
                        assert!(rank.wtime() - rank.true_time() > 0.4);
                    }
                    0
                });
            assert!(out.all_ok(), "{out:?}");
        }

        #[test]
        fn virtual_panic_still_aborts_world() {
            let out = World::builder(2).engine(virt(2)).run(|rank| {
                if rank.rank() == 0 {
                    panic!("virtual rank 0 exploded");
                }
                match rank.recv(Src::Any, Tag::Any) {
                    Err(MpiError::Aborted { origin: 0, .. }) => 0,
                    other => panic!("expected abort, got {other:?}"),
                }
            });
            assert!(out.panics[0].as_deref().unwrap().contains("exploded"));
            assert_eq!(out.exit_codes[1], Some(0));
        }
    }

    #[test]
    fn probe_then_recv_sees_same_envelope() {
        let out = World::builder(2).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 4, &[1, 2, 3]).unwrap();
            } else {
                let env = rank.probe(Src::Of(0), Tag::Of(4)).unwrap();
                assert_eq!(env.len, 3);
                let m = rank.recv(Src::Of(0), Tag::Of(4)).unwrap();
                assert_eq!(m.env, env);
            }
            0
        });
        assert!(out.all_ok());
    }
}

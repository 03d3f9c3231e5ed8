//! The `harpd` server: RM core behind a Unix domain socket.

use crate::reactor_server::{self, Router, MAX_SHARDS};
use harp_obs::metrics::HistogramSnapshot;
use harp_platform::HardwareDescription;
use harp_proto::frame::encode_frame;
use harp_proto::{Activate, Message};
use harp_rm::journal::{last_epoch, read_journal};
use harp_rm::{Directive, JournalRecord, JournalWriter, RmConfig, RmCore, RmOutput};
use harp_types::{AppId, ErvShape, ExtResourceVector, NonFunctional, Result};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Protocol error code: a registration was rejected by the RM.
pub const ERR_REGISTER_REJECTED: u32 = 1;
/// Protocol error code: a malformed or torn frame was received.
pub const ERR_PROTOCOL: u32 = 2;
/// Protocol error code: a message that requires a session arrived before
/// registration.
pub const ERR_NO_SESSION: u32 = 3;
/// Protocol error code: a second `Register` arrived on a connection that
/// already holds a session.
pub const ERR_DUPLICATE_REGISTER: u32 = 4;
/// Protocol error code: a point submission was rejected by the RM.
pub const ERR_SUBMIT_REJECTED: u32 = 5;

/// Stable telemetry name of a protocol error code.
pub(crate) fn err_name(code: u32) -> &'static str {
    match code {
        ERR_REGISTER_REJECTED => "register_rejected",
        ERR_PROTOCOL => "protocol",
        ERR_NO_SESSION => "no_session",
        ERR_DUPLICATE_REGISTER => "duplicate_register",
        ERR_SUBMIT_REJECTED => "submit_rejected",
        _ => "unknown",
    }
}

/// Stable telemetry name of an inbound message type.
pub(crate) fn msg_name(msg: &Message) -> &'static str {
    match msg {
        Message::Register(_) => "register",
        Message::RegisterAck(_) => "register_ack",
        Message::SubmitPoints(_) => "submit_points",
        Message::Activate(_) => "activate",
        Message::UtilityRequest(_) => "utility_request",
        Message::UtilityReport(_) => "utility_report",
        Message::Exit { .. } => "exit",
        Message::Error(_) => "error",
        Message::DumpTelemetry(_) => "dump_telemetry",
        Message::TelemetryDump(_) => "telemetry_dump",
        Message::Hello(_) => "hello",
        Message::Resume(_) => "resume",
        Message::SubscribeTelemetry(_) => "subscribe_telemetry",
        Message::TelemetryFrame(_) => "telemetry_frame",
    }
}

/// Upper bound on the JSONL payload of a `TelemetryDump` reply, chosen
/// well under [`harp_proto::frame::MAX_FRAME_LEN`] so the encoded frame
/// always fits.
pub(crate) const MAX_DUMP_BYTES: usize = 8 * 1024 * 1024;

/// Truncates a JSONL document to `max` bytes at a line boundary.
///
/// A truncated dump is never silent: the cut is counted in the
/// `obs.dump_truncated` counter and the document gains a trailing
/// `{"type":"truncated",...}` marker line recording how many bytes were
/// dropped, so consumers that only see the JSONL (a dump piped to a
/// file, say) can still detect that it is partial.
pub(crate) fn truncate_jsonl(mut jsonl: String, max: usize) -> (String, bool) {
    if jsonl.len() <= max {
        return (jsonl, false);
    }
    let cut = jsonl[..max].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let dropped = jsonl.len() - cut;
    jsonl.truncate(cut);
    harp_obs::metrics::counter("obs.dump_truncated").inc();
    let _ = writeln!(
        jsonl,
        "{{\"type\":\"truncated\",\"dropped_bytes\":{dropped}}}"
    );
    (jsonl, true)
}

/// Locks a mutex, recovering from poison: a shard thread that panicked
/// while holding the lock must not take the whole daemon down with it —
/// the guarded state (RM core, routing tables) stays consistent because
/// every mutation path hands back a fully-updated value.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Path of the Unix socket to listen on.
    pub socket_path: PathBuf,
    /// The machine description (normally loaded from `/etc/harp`).
    pub hw: HardwareDescription,
    /// RM configuration. Defaults to *offline* mode — see the
    /// [crate docs](crate) for why the daemon does not monitor counters.
    pub rm: RmConfig,
    /// Whether to enable the global `harp-obs` collector on start. Off by
    /// default: tracing is opt-in, and the disabled path costs one atomic
    /// load per callsite.
    pub tracing: bool,
    /// Crash-recovery journal path (`None` = journaling off). On start the
    /// daemon replays the journal through the real RM entry points, bumps
    /// the boot epoch, and resumes appending; sessions recovered from the
    /// journal are reclaimable by their resume tokens (DESIGN.md §10).
    pub journal_path: Option<PathBuf>,
    /// Watchdog stall threshold (`None` = watchdog off). An RM operation
    /// in flight longer than this is declared wedged: telemetry is dumped
    /// next to the journal, the journal writer is fenced off, and a fresh
    /// core recovered from the journal replaces the wedged one.
    pub watchdog: Option<Duration>,
    /// Records appended between journal compactions.
    pub compact_every: u64,
    /// Reactor shard threads serving client I/O (clamped to
    /// `1..=`[`MAX_SHARDS`]). Each shard owns an epoll poller and a slab
    /// of sessions; connections are dealt round-robin at accept.
    pub shards: usize,
}

impl DaemonConfig {
    /// Creates a configuration with offline-mode RM defaults.
    pub fn new(socket_path: impl AsRef<Path>, hw: HardwareDescription) -> Self {
        let rm = RmConfig {
            offline: true,
            ..Default::default()
        };
        DaemonConfig {
            socket_path: socket_path.as_ref().to_path_buf(),
            hw,
            rm,
            tracing: false,
            journal_path: None,
            watchdog: None,
            compact_every: 256,
            shards: 2,
        }
    }

    /// Sets the number of reactor shard threads (clamped to
    /// `1..=`[`MAX_SHARDS`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, MAX_SHARDS);
        self
    }

    /// Enables the global telemetry collector for this daemon.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Enables the crash-recovery journal at `path`.
    pub fn with_journal(mut self, path: impl AsRef<Path>) -> Self {
        self.journal_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Enables the wedged-operation watchdog with the given stall
    /// threshold.
    pub fn with_watchdog(mut self, threshold: Duration) -> Self {
        self.watchdog = Some(threshold);
        self
    }
}

pub(crate) struct Shared {
    /// The RM core behind two layers: the outer `RwLock` lets the watchdog
    /// swap in a freshly recovered core while wedged threads still hold the
    /// old one; the inner `Mutex` serializes normal operations.
    rm: RwLock<Arc<Mutex<RmCore>>>,
    /// Session → shard routing for pushing activations: encoded frames are
    /// delivered to the owning shard's inbox, which serializes them into
    /// the session's outbound ring — frames to one client never interleave
    /// because only its shard ever writes its socket.
    pub(crate) router: Router,
    /// Session → connection currently owning it. Hangup cleanup only
    /// deregisters a session its connection still owns, so a client that
    /// resumed on a new connection is not torn down by the stale one.
    pub(crate) owners: Mutex<HashMap<AppId, u64>>,
    /// Per-session dispatch-latency histograms (nanoseconds), recorded by
    /// whichever shard handles the session's messages and drained by
    /// telemetry subscriptions into per-interval p99 digests. Plain
    /// snapshots under a mutex, not registry atomics: rows die with their
    /// session instead of leaking interned names.
    pub(crate) latency: Mutex<HashMap<AppId, HistogramSnapshot>>,
    pub(crate) shape: ErvShape,
    hw: HardwareDescription,
    rm_cfg: RmConfig,
    journal_path: Option<PathBuf>,
    compact_every: u64,
    /// Fence generation shared with the live journal writer; bumping it
    /// silently voids appends from a writer the watchdog has orphaned.
    fence: Arc<AtomicU64>,
    /// Boot epoch stamped into every `Hello`/`RegisterAck`; strictly
    /// increases across daemon restarts via the journal's epoch records.
    pub(crate) epoch: u64,
    pub(crate) next_id: AtomicU64,
    /// Resume-token counter; tokens embed the epoch so tokens from
    /// different boots never collide.
    next_token: AtomicU64,
    /// Connection counter for telemetry (distinct from session ids: a
    /// connection may never register).
    next_conn: AtomicU64,
    pub(crate) stop: AtomicBool,
    /// Simulated crash: shards skip deregister-on-hangup so the journal
    /// keeps the sessions for the next boot to recover.
    pub(crate) killed: AtomicBool,
    /// Milliseconds since `started` at which the in-flight RM operation
    /// began (0 = idle); sampled by the watchdog.
    op_started_ms: AtomicU64,
    op_seq: AtomicU64,
    started: Instant,
}

/// Marks an RM operation in flight for the watchdog; cleared on drop
/// unless a newer operation has started since (the wedged case).
pub(crate) struct OpGuard<'a> {
    shared: &'a Shared,
    seq: u64,
}

impl<'a> OpGuard<'a> {
    pub(crate) fn begin(shared: &'a Shared) -> Self {
        let seq = shared.op_seq.fetch_add(1, Ordering::SeqCst) + 1;
        // `| 1` keeps a start in the very first millisecond distinct from
        // the idle sentinel.
        let now = shared.started.elapsed().as_millis() as u64 | 1;
        shared.op_started_ms.store(now, Ordering::SeqCst);
        OpGuard { shared, seq }
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if self.shared.op_seq.load(Ordering::SeqCst) == self.seq {
            self.shared.op_started_ms.store(0, Ordering::SeqCst);
        }
    }
}

impl Shared {
    /// The current RM core (watchdog restarts swap the `Arc`).
    pub(crate) fn core(&self) -> Arc<Mutex<RmCore>> {
        self.rm
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Mints a resume token: epoch in the high half, a counter in the low,
    /// so tokens stay unique across daemon restarts.
    pub(crate) fn make_token(&self) -> u64 {
        (self.epoch << 32) | self.next_token.fetch_add(1, Ordering::SeqCst)
    }

    /// Relays the RM output to every affected application: each directive
    /// is encoded once and the round is handed over shard by shard, one
    /// inbox push and one wake per shard (a wake per directive made a
    /// 129-session round cost 129 pipe writes and as many shard wakeups,
    /// and left the round's latency to how those interleaved). Routes whose
    /// session is gone are dropped by the shard (and counted as pruned);
    /// the session itself is deregistered when its shard observes the
    /// hangup.
    pub(crate) fn route(&self, out: &RmOutput) {
        let frames = out.directives.iter().filter_map(|d| {
            let bytes = encode_frame(&directive_to_activate(d)).ok()?;
            Some((d.app, bytes))
        });
        self.router.deliver_round(frames.collect());
    }
}

pub(crate) fn directive_to_activate(d: &Directive) -> Message {
    Message::Activate(Activate {
        app_id: d.app.raw(),
        erv_flat: d.erv.flat(),
        core_ids: d.cores.iter().map(|c| c.0 as u32).collect(),
        parallelism: d.parallelism,
        hw_thread_ids: d.hw_threads.iter().map(|t| t.0 as u32).collect(),
    })
}

/// The HARP daemon (see [crate docs](crate)).
#[derive(Debug)]
pub struct HarpDaemon;

/// Handle of a running daemon; dropping it does *not* stop the daemon —
/// call [`DaemonHandle::shutdown`] (or [`DaemonHandle::kill`] to simulate
/// a crash).
pub struct DaemonHandle {
    shared: Arc<Shared>,
    socket_path: PathBuf,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
    shard_threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("socket", &self.socket_path)
            .finish()
    }
}

impl HarpDaemon {
    /// Starts the daemon: binds the socket and spawns the accept loop.
    ///
    /// # Errors
    ///
    /// Returns [`harp_types::HarpError::Io`] if the socket cannot be bound.
    pub fn start(cfg: DaemonConfig) -> Result<DaemonHandle> {
        if cfg.tracing {
            harp_obs::enable_global();
        }
        let _ = std::fs::remove_file(&cfg.socket_path);
        let listener = UnixListener::bind(&cfg.socket_path)?;
        let shape = cfg.hw.erv_shape();

        let fence = Arc::new(AtomicU64::new(1));
        let (core, epoch) = open_core(
            cfg.hw.clone(),
            cfg.rm.clone(),
            cfg.journal_path.as_deref(),
            &fence,
            cfg.compact_every,
        )?;
        let next_id = core.max_app_seen() + 1;

        let shared = Arc::new(Shared {
            rm: RwLock::new(Arc::new(Mutex::new(core))),
            router: Router::default(),
            owners: Mutex::new(HashMap::new()),
            latency: Mutex::new(HashMap::new()),
            shape,
            hw: cfg.hw,
            rm_cfg: cfg.rm,
            journal_path: cfg.journal_path,
            compact_every: cfg.compact_every,
            fence,
            epoch,
            next_id: AtomicU64::new(next_id),
            next_token: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            op_started_ms: AtomicU64::new(0),
            op_seq: AtomicU64::new(0),
            started: Instant::now(),
        });
        let shard_threads = reactor_server::spawn_shards(&shared, cfg.shards)?;
        let nshards = shard_threads.len();
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("harpd-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match conn {
                        Ok(stream) => {
                            let conn_id = accept_shared.next_conn.fetch_add(1, Ordering::SeqCst);
                            if harp_obs::enabled() {
                                harp_obs::instant(harp_obs::Subsystem::Daemon, "accept")
                                    .field("conn", conn_id);
                                harp_obs::metrics::counter("daemon.accepts").inc();
                            }
                            // Deal connections round-robin: with long-lived
                            // sessions this keeps shard load even without
                            // tracking per-shard occupancy.
                            let shard = (conn_id as usize) % nshards;
                            accept_shared.router.dispatch_conn(shard, stream, conn_id);
                        }
                        Err(_) => return,
                    }
                }
            })?;
        let watchdog_thread = match cfg.watchdog {
            Some(threshold) => {
                let wd_shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("harpd-watchdog".into())
                        .spawn(move || watchdog_loop(wd_shared, threshold))?,
                )
            }
            None => None,
        };
        Ok(DaemonHandle {
            shared,
            socket_path: cfg.socket_path,
            accept_thread: Some(accept_thread),
            watchdog_thread,
            shard_threads,
        })
    }
}

/// Builds the RM core for a boot: replays the journal (if any) through the
/// real entry points, bumps the boot epoch, and attaches a fenced writer.
/// Returns the core and the new epoch. Journal damage is tolerated — a
/// torn tail replays the surviving prefix; an unreadable journal starts a
/// fresh core (availability over history) and is counted in
/// `daemon.recover_failures`.
fn open_core(
    hw: HardwareDescription,
    rm_cfg: RmConfig,
    journal_path: Option<&Path>,
    fence: &Arc<AtomicU64>,
    compact_every: u64,
) -> Result<(RmCore, u64)> {
    let Some(path) = journal_path else {
        return Ok((RmCore::new(hw, rm_cfg), 1));
    };
    let mut prior_epoch = 0;
    let core = match read_journal(path) {
        Ok(outcome) => {
            prior_epoch = last_epoch(&outcome.records);
            if harp_obs::enabled() {
                harp_obs::instant(harp_obs::Subsystem::Daemon, "journal_replay")
                    .field("records", outcome.records.len())
                    .field("truncated", outcome.truncated);
            }
            match RmCore::recover(hw.clone(), rm_cfg.clone(), &outcome.records) {
                Ok(core) => core,
                Err(_) => {
                    harp_obs::metrics::counter("daemon.recover_failures").inc();
                    RmCore::new(hw, rm_cfg)
                }
            }
        }
        Err(_) => {
            harp_obs::metrics::counter("daemon.recover_failures").inc();
            RmCore::new(hw, rm_cfg)
        }
    };
    let epoch = prior_epoch + 1;
    let mut core = core;
    let mut writer = JournalWriter::open(path)?;
    writer.set_fence(fence.clone(), fence.load(Ordering::SeqCst));
    writer.append(&JournalRecord::EpochBump { epoch })?;
    core.attach_journal(writer, compact_every);
    Ok((core, epoch))
}

/// Samples the op-watch atomics; when an RM operation stalls past the
/// threshold, dumps the flight recorder next to the journal, fences the
/// orphaned journal writer, and swaps in a core recovered from the
/// journal. Wedged threads keep their old core and die with it.
fn watchdog_loop(shared: Arc<Shared>, threshold: Duration) {
    let threshold_ms = threshold.as_millis().max(1) as u64;
    let poll = Duration::from_millis((threshold_ms / 4).clamp(1, 250));
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        let started = shared.op_started_ms.load(Ordering::SeqCst);
        if started == 0 {
            continue;
        }
        let now = shared.started.elapsed().as_millis() as u64;
        if now.saturating_sub(started) < threshold_ms {
            continue;
        }
        // Wedged. Dump telemetry for the postmortem (best effort).
        if let Some(path) = &shared.journal_path {
            let dump = harp_obs::dump_global(true);
            let _ = std::fs::write(path.with_extension("wedge.jsonl"), dump);
        }
        // Fence off the wedged core's journal writer: if the stuck thread
        // ever resumes, its appends are silently dropped instead of
        // corrupting the journal the new core now owns.
        shared.fence.fetch_add(1, Ordering::SeqCst);
        let recovered = shared.journal_path.as_deref().and_then(|path| {
            open_core(
                shared.hw.clone(),
                shared.rm_cfg.clone(),
                Some(path),
                &shared.fence,
                shared.compact_every,
            )
            .ok()
        });
        let new_core = match recovered {
            Some((core, _)) => core,
            // No journal: a fresh empty core still unwedges the daemon.
            None => RmCore::new(shared.hw.clone(), shared.rm_cfg.clone()),
        };
        *shared.rm.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(Mutex::new(new_core));
        // The wedged op is presumed dead; reset the watch so the next
        // stall is measured from its own start.
        shared.op_started_ms.store(0, Ordering::SeqCst);
        harp_obs::metrics::counter("daemon.watchdog_restarts").inc();
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Daemon, "watchdog_restart")
                .field("stalled_ms", now.saturating_sub(started));
        }
    }
}

impl DaemonHandle {
    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// Preloads an operating-point profile into the RM (description files).
    pub fn load_profile(&self, name: &str, points: Vec<(ExtResourceVector, NonFunctional)>) {
        let core = self.shared.core();
        lock(&core).load_profile(name, harp_rm::table_from_points(points));
    }

    /// Ids of the applications the RM currently manages — the live-session
    /// view used by operational checks and crash/regression tests.
    pub fn managed_apps(&self) -> Vec<AppId> {
        let core = self.shared.core();
        let apps = lock(&core).managed_apps();
        apps
    }

    /// The boot epoch this daemon stamps into `Hello` and `RegisterAck`.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Degraded allocation rounds since this boot (solver deadline
    /// overruns; see [`RmConfig::solve_deadline_iters`]).
    pub fn degraded_ticks(&self) -> u64 {
        let core = self.shared.core();
        let n = lock(&core).degraded_ticks();
        n
    }

    /// Stops the daemon and removes the socket file. The journal (if any)
    /// is detached first, so live sessions stay recorded in it and their
    /// clients can resume against the next boot.
    pub fn shutdown(mut self) {
        self.stop_threads();
        let _ = std::fs::remove_file(&self.socket_path);
    }

    /// Simulates a daemon crash for recovery testing: every client
    /// connection is severed mid-flight, no session is deregistered (the
    /// journal keeps them for the next boot), and the socket file is left
    /// behind dead — subsequent connects see `ECONNREFUSED`, exactly like
    /// a killed process.
    pub fn kill(mut self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        // Joining the shards severs every client socket: each shard's
        // teardown shuts down its remaining sessions without deregistering
        // them (the `killed` flag makes hangups observed on the way out
        // skip cleanup too).
        self.stop_threads();
    }

    /// Test hook: simulates a wedged RM operation by starting an op-watch
    /// and holding the core mutex for `hold` on a detached thread. Used by
    /// the chaos suite to drive the watchdog; not part of the public API.
    #[doc(hidden)]
    pub fn wedge_for(&self, hold: Duration) {
        let shared = self.shared.clone();
        std::thread::spawn(move || {
            let core = shared.core();
            let _op = OpGuard::begin(&shared);
            let _held = lock(&core);
            std::thread::sleep(hold);
        });
    }

    /// Stops the accept, shard, and watchdog threads and releases the
    /// journal: fences the writer (a wedged thread can no longer append)
    /// and detaches it from the core so the file is free for the next boot.
    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = UnixStream::connect(&self.socket_path);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.watchdog_thread.take() {
            let _ = t.join();
        }
        // Interrupt every shard's poller; each observes `stop`, severs its
        // remaining sessions, and exits.
        self.shared.router.wake_all();
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        self.shared.fence.fetch_add(1, Ordering::SeqCst);
        let core = self.shared.core();
        lock(&core).detach_journal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnixTransport;
    use harp_proto::AdaptivityType;
    use libharp::{HarpSession, SessionConfig};

    fn temp_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("harp-test-{}-{tag}.sock", std::process::id()))
    }

    fn points(shape: &ErvShape) -> Vec<(ExtResourceVector, NonFunctional)> {
        vec![
            (
                ExtResourceVector::from_flat(shape, &[0, 4, 0]).unwrap(),
                NonFunctional::new(3.0e10, 40.0),
            ),
            (
                ExtResourceVector::from_flat(shape, &[0, 0, 8]).unwrap(),
                NonFunctional::new(2.5e10, 15.0),
            ),
        ]
    }

    #[test]
    fn end_to_end_register_activate_exit() {
        let hw = HardwareDescription::raptor_lake();
        let shape = hw.erv_shape();
        let socket = temp_socket("e2e");
        let daemon = HarpDaemon::start(DaemonConfig::new(&socket, hw)).unwrap();

        let transport = UnixTransport::connect(&socket).unwrap();
        let cfg = SessionConfig::new("mg", AdaptivityType::Scalable)
            .with_points(vec![2, 1], points(&shape));
        let mut session = HarpSession::connect(transport, cfg).unwrap();
        assert!(session.app_id() >= 1);

        // Registration grants a provisional whole-machine envelope; the
        // submitted points then trigger a re-allocation whose activation
        // selects the efficient 8-E-core point. Wait for that final state.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            session.poll(|| 0.0).unwrap();
            if let Some(act) = session.allocation().current() {
                if act.parallelism == 8 {
                    assert_eq!(act.hw_threads.len(), 8);
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "8-thread activation never arrived (last: {:?})",
                session.allocation().current()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        session.exit().unwrap();
        daemon.shutdown();
    }

    #[test]
    fn two_clients_get_disjoint_threads() {
        let hw = HardwareDescription::raptor_lake();
        let shape = hw.erv_shape();
        let socket = temp_socket("two");
        let daemon = HarpDaemon::start(DaemonConfig::new(&socket, hw)).unwrap();
        daemon.load_profile("a", points(&shape));
        daemon.load_profile("b", points(&shape));

        let mut s1 = HarpSession::connect(
            UnixTransport::connect(&socket).unwrap(),
            SessionConfig::new("a", AdaptivityType::Scalable),
        )
        .unwrap();
        let mut s2 = HarpSession::connect(
            UnixTransport::connect(&socket).unwrap(),
            SessionConfig::new("b", AdaptivityType::Scalable),
        )
        .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            s1.poll(|| 0.0).unwrap();
            s2.poll(|| 0.0).unwrap();
            if let (Some(a1), Some(a2)) = (s1.allocation().current(), s2.allocation().current()) {
                let overlap = a1.hw_threads.iter().any(|t| a2.hw_threads.contains(t));
                assert!(!overlap, "thread grants overlap: {a1:?} vs {a2:?}");
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no activations");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        s1.exit().unwrap();
        s2.exit().unwrap();
        daemon.shutdown();
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("harp-test-{}-{tag}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Polls `cond` for up to 5 seconds.
    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn kill_then_restart_recovers_sessions_from_the_journal() {
        let hw = HardwareDescription::raptor_lake();
        let shape = hw.erv_shape();
        let socket = temp_socket("recover");
        let journal = temp_journal("recover");
        let daemon =
            HarpDaemon::start(DaemonConfig::new(&socket, hw.clone()).with_journal(&journal))
                .unwrap();
        assert_eq!(daemon.epoch(), 1);

        let cfg = SessionConfig::new("victim", AdaptivityType::Scalable)
            .with_points(vec![2, 1], points(&shape));
        let mut session =
            HarpSession::connect(UnixTransport::connect(&socket).unwrap(), cfg).unwrap();
        let id = session.app_id();
        wait_for(
            || {
                session.poll(|| 0.0).unwrap();
                session
                    .allocation()
                    .current()
                    .is_some_and(|a| a.parallelism == 8)
            },
            "pre-crash activation",
        );
        let before = session.allocation().current().unwrap();

        // Crash: sockets severed, nothing deregistered, socket file stays.
        daemon.kill();
        assert!(socket.exists(), "kill must leave the dead socket behind");

        // Restart from the journal: the session is still managed, under a
        // bumped epoch, and its directive replays bit-identically.
        let daemon =
            HarpDaemon::start(DaemonConfig::new(&socket, hw).with_journal(&journal)).unwrap();
        assert_eq!(daemon.epoch(), 2, "epoch must bump across restarts");
        let managed: Vec<u64> = daemon.managed_apps().iter().map(|a| a.raw()).collect();
        assert_eq!(managed, vec![id], "journal lost the session");
        let core = daemon.shared.core();
        let replayed = lock(&core).last_directive(AppId(id)).cloned().unwrap();
        drop(core);
        assert_eq!(replayed.erv.flat(), before.erv_flat);
        assert_eq!(
            replayed.hw_threads.iter().map(|t| t.0).collect::<Vec<_>>(),
            before.hw_threads.iter().map(|t| t.0).collect::<Vec<_>>()
        );
        assert_eq!(replayed.parallelism, before.parallelism);
        daemon.shutdown();
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn shutdown_removes_socket() {
        let socket = temp_socket("down");
        let daemon = HarpDaemon::start(DaemonConfig::new(
            &socket,
            HardwareDescription::odroid_xu3(),
        ))
        .unwrap();
        assert!(socket.exists());
        daemon.shutdown();
        assert!(!socket.exists());
    }
}

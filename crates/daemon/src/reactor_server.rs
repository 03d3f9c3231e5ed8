//! The sharded reactor I/O core of `harpd` (DESIGN.md §12).
//!
//! N shard threads each own an epoll [`Poller`] and a slab-indexed
//! session table. The accept loop hands new connections to shards
//! round-robin; from then on a session's socket is touched only by its
//! shard — no per-client threads, no per-client write mutex. Outbound
//! frames go through a per-session byte ring flushed opportunistically
//! and on `EPOLLOUT`; inbound bytes accumulate in a per-session
//! [`FrameDecoder`] whose frames are decoded zero-copy.
//!
//! Cross-shard traffic (an allocation round on shard A producing a
//! directive for a session on shard B) travels as encoded frame bytes
//! through the target shard's inbox, which its pipe [`Waker`] interrupts.
//! All allocation state stays in [`Shared`] exactly as before the
//! rewrite: boot epochs, resume tokens, owners, journal and watchdog
//! semantics are unchanged — only the transport underneath them moved
//! from threads to readiness.

use crate::server::{
    directive_to_activate, err_name, lock, msg_name, truncate_jsonl, OpGuard, Shared,
    ERR_DUPLICATE_REGISTER, ERR_NO_SESSION, ERR_PROTOCOL, ERR_REGISTER_REJECTED,
    ERR_SUBMIT_REJECTED, MAX_DUMP_BYTES,
};
use harp_obs::metrics::{bucket_index, HistogramSnapshot};
use harp_obs::IntervalSeries;
use harp_proto::frame::{encode_frame, FrameDecoder};
use harp_proto::{
    ErrorMsg, Hello, Message, RegisterAck, SessionEnergy, TelemetryDump, TelemetryFrame,
};
use harp_types::{AppId, ExtResourceVector, NonFunctional};
use reactor::{poll_fd, Events, Interest, Poller, Slab, Waker};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Hard ceiling on reactor shards — also the size of the static
/// per-shard metric-name table (`harp-obs` counters take `&'static str`).
pub const MAX_SHARDS: usize = 8;

/// Poller token reserved for the shard's waker pipe.
const WAKER_TOKEN: u64 = u64::MAX;

/// How long a closing session may block the shard to flush a final
/// error/ack frame to a slow peer before the bytes are abandoned.
const CLOSE_FLUSH_BUDGET: Duration = Duration::from_millis(100);

/// Push interval used when a `SubscribeTelemetry` asks for 0 ("default").
const DEFAULT_SUB_INTERVAL_MS: u64 = 250;

/// Floor/ceiling on requested subscription intervals.
const MIN_SUB_INTERVAL_MS: u64 = 20;
const MAX_SUB_INTERVAL_MS: u64 = 60_000;

/// A subscriber whose outbound ring still holds more than this many
/// unsent bytes when a push comes due has stopped draining; the frame is
/// dropped (oldest-first, since it is the frames longest due that die)
/// and accounted in `dropped_frames` rather than queued without bound.
const MAX_SUB_BACKLOG_BYTES: usize = 64 * 1024;

/// Ring capacity of each subscription's interval series (only the
/// latest interval is shipped per frame; the short history serves the
/// `watch` reconnect case where one frame covers several intervals).
const SUB_INTERVAL_RING: usize = 16;

/// Live telemetry subscription state for one connection.
struct SubState {
    interval: Duration,
    include_metrics: bool,
    next_push: Instant,
    /// Next frame sequence number; advances for dropped frames too, so
    /// `delivered + dropped == seq` always holds at the subscriber.
    seq: u64,
    /// Cumulative frames dropped under backpressure.
    dropped: u64,
    /// Per-subscription interval series over the global metrics registry.
    intervals: IntervalSeries,
    /// Ledger cumulatives at the previous frame, for per-interval deltas.
    last_total_uj: u64,
    last_idle_uj: u64,
    last_sessions: HashMap<AppId, u64>,
    /// Latency histograms at the previous frame.
    last_latency: HashMap<AppId, HistogramSnapshot>,
}

impl SubState {
    fn new(interval: Duration, include_metrics: bool, now: Instant) -> SubState {
        SubState {
            interval,
            include_metrics,
            next_push: now,
            seq: 0,
            dropped: 0,
            intervals: IntervalSeries::new(SUB_INTERVAL_RING),
            last_total_uj: 0,
            last_idle_uj: 0,
            last_sessions: HashMap::new(),
            last_latency: HashMap::new(),
        }
    }
}

/// Per-shard counter names; index = shard id. Static because the metrics
/// registry interns `&'static str` names.
struct ShardMetricNames {
    accepted: &'static str,
    frames: &'static str,
    flushes: &'static str,
    hangups: &'static str,
}

macro_rules! shard_metrics {
    ($($n:literal),*) => {
        [$(ShardMetricNames {
            accepted: concat!("daemon.shard", $n, ".accepted"),
            frames: concat!("daemon.shard", $n, ".frames"),
            flushes: concat!("daemon.shard", $n, ".flushes"),
            hangups: concat!("daemon.shard", $n, ".hangups"),
        }),*]
    };
}

static SHARD_METRICS: [ShardMetricNames; MAX_SHARDS] =
    shard_metrics!("0", "1", "2", "3", "4", "5", "6", "7");

/// Work handed to a shard from outside its thread.
pub(crate) enum ShardMsg {
    /// A freshly accepted connection (stream, connection id).
    Conn(UnixStream, u64),
    /// Encoded frame bytes for the session currently routed to this shard.
    Deliver(AppId, Vec<u8>),
}

/// The cross-thread face of one shard: its inbox plus the waker that
/// interrupts its poller.
pub(crate) struct ShardHandle {
    inbox: Mutex<Vec<ShardMsg>>,
    waker: Arc<Waker>,
}

impl ShardHandle {
    fn push(&self, msg: ShardMsg) {
        lock(&self.inbox).push(msg);
        self.waker.wake();
    }
}

/// Session → shard routing plus the shard handles. Replaces the old
/// global `AppId → ClientWriter` stream map: routing an activation is a
/// shard lookup and an inbox push, never a blocking socket write under a
/// global lock.
#[derive(Default)]
pub(crate) struct Router {
    /// Which shard currently owns each registered session's connection.
    routes: Mutex<HashMap<AppId, usize>>,
    /// Set once after the shard threads are spawned.
    shards: OnceLock<Vec<ShardHandle>>,
}

impl Router {
    pub(crate) fn install_shards(&self, handles: Vec<ShardHandle>) {
        let _ = self.shards.set(handles);
    }

    fn handles(&self) -> &[ShardHandle] {
        self.shards.get().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Hands a new connection to `shard`.
    pub(crate) fn dispatch_conn(&self, shard: usize, stream: UnixStream, conn: u64) {
        if let Some(h) = self.handles().get(shard) {
            h.push(ShardMsg::Conn(stream, conn));
        }
    }

    /// Routes one round's encoded frames to the shards owning their
    /// sessions: a single pass over the route table, then one inbox push
    /// and one wake per shard with a recipient, however many frames it
    /// receives. Frames keep their order within a shard. A frame whose
    /// session has no live route is silently dropped — the same contract
    /// the old stream map had for departed clients.
    pub(crate) fn deliver_round(&self, frames: Vec<(AppId, Vec<u8>)>) {
        let handles = self.handles();
        let mut per_shard: Vec<Vec<ShardMsg>> = handles.iter().map(|_| Vec::new()).collect();
        {
            let routes = lock(&self.routes);
            for (app, bytes) in frames {
                if let Some(batch) = routes.get(&app).and_then(|&s| per_shard.get_mut(s)) {
                    batch.push(ShardMsg::Deliver(app, bytes));
                }
            }
        }
        for (h, batch) in handles.iter().zip(per_shard) {
            if !batch.is_empty() {
                lock(&h.inbox).extend(batch);
                h.waker.wake();
            }
        }
    }

    /// Wakes every shard (used to broadcast stop).
    pub(crate) fn wake_all(&self) {
        for h in self.handles() {
            h.waker.wake();
        }
    }

    fn bind(&self, app: AppId, shard: usize) {
        lock(&self.routes).insert(app, shard);
    }

    /// Removes `app`'s route, but only if it still points at `shard` — a
    /// session resumed onto another shard keeps its new route.
    fn unbind(&self, app: AppId, shard: usize) {
        let mut routes = lock(&self.routes);
        if routes.get(&app) == Some(&shard) {
            routes.remove(&app);
        }
    }
}

/// One connected client as its shard sees it.
struct Session {
    stream: UnixStream,
    decoder: FrameDecoder,
    /// Outbound byte ring: encoded frames queue here and drain on
    /// opportunistic and `EPOLLOUT` flushes.
    out: std::collections::VecDeque<u8>,
    /// The session this connection registered/resumed, if any.
    app: Option<AppId>,
    conn: u64,
    /// Whether the poller registration currently includes `EPOLLOUT`.
    want_write: bool,
    /// Live telemetry subscription, if this connection sent
    /// `SubscribeTelemetry`.
    sub: Option<SubState>,
}

/// Outcome of pulling one frame out of a session's decoder.
enum Pulled {
    Msg(Message),
    /// Need more bytes.
    Idle,
    /// Undecodable stream (oversized prefix or malformed body).
    Bad(String),
}

/// Spawns the shard threads and installs their handles into the router.
///
/// # Errors
///
/// Returns [`harp_types::HarpError::Io`] if a poller, waker, or thread
/// cannot be created.
pub(crate) fn spawn_shards(
    shared: &Arc<Shared>,
    count: usize,
) -> harp_types::Result<Vec<std::thread::JoinHandle<()>>> {
    let count = count.clamp(1, MAX_SHARDS);
    let mut handles = Vec::with_capacity(count);
    let mut threads = Vec::with_capacity(count);
    for idx in 0..count {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN)?);
        handles.push(ShardHandle {
            inbox: Mutex::new(Vec::new()),
            waker: waker.clone(),
        });
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("harpd-shard{idx}"))
                .spawn(move || shard_loop(shared, idx, poller, waker))?,
        );
    }
    shared.router.install_shards(handles);
    Ok(threads)
}

fn shard_loop(shared: Arc<Shared>, idx: usize, poller: Poller, waker: Arc<Waker>) {
    let mut shard = ShardState {
        shared,
        idx,
        poller,
        slab: Slab::with_capacity(64),
        local: HashMap::new(),
    };
    let mut events = Events::with_capacity(512);
    loop {
        shard.drain_inbox();
        if shard.shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Wake no later than the idle heartbeat, and earlier when a
        // telemetry subscription push comes due sooner.
        let timeout = shard.sub_poll_timeout(Duration::from_millis(250));
        if shard.poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        for ev in events.iter() {
            if ev.token == WAKER_TOKEN {
                waker.drain();
                continue;
            }
            let slot = ev.token as usize;
            if !shard.slab.contains(slot) {
                continue; // closed earlier in this batch
            }
            if ev.writable {
                shard.flush(slot);
            }
            if shard.slab.contains(slot) && (ev.readable || ev.error) {
                shard.on_readable(slot);
            }
        }
        shard.push_subscriptions();
    }
    // Teardown (shutdown or kill): sever every remaining client socket.
    // Sessions are intentionally NOT deregistered here — on a kill the
    // journal must keep them for the next boot to recover, and on a
    // shutdown the core has already detached its journal.
    for slot in shard.slab.keys() {
        if let Some(sess) = shard.slab.remove(slot) {
            let _ = sess.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

struct ShardState {
    shared: Arc<Shared>,
    idx: usize,
    poller: Poller,
    slab: Slab<Session>,
    /// Sessions registered on this shard: `AppId → slot`, maintained in
    /// lock-step with the router's global `AppId → shard` map.
    local: HashMap<AppId, usize>,
}

impl ShardState {
    fn metrics(&self) -> &'static ShardMetricNames {
        &SHARD_METRICS[self.idx.min(MAX_SHARDS - 1)]
    }

    fn drain_inbox(&mut self) {
        let msgs = {
            let handles = self.shared.router.handles();
            let Some(h) = handles.get(self.idx) else {
                return;
            };
            std::mem::take(&mut *lock(&h.inbox))
        };
        for msg in msgs {
            match msg {
                ShardMsg::Conn(stream, conn) => self.install(stream, conn),
                ShardMsg::Deliver(app, bytes) => self.deliver(app, bytes),
            }
        }
    }

    /// Adopts a freshly accepted connection: non-blocking, registered for
    /// read readiness, greeted with the boot epoch.
    fn install(&mut self, stream: UnixStream, conn: u64) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let slot = self.slab.insert(Session {
            stream,
            decoder: FrameDecoder::new(),
            out: std::collections::VecDeque::new(),
            app: None,
            conn,
            want_write: false,
            sub: None,
        });
        if self
            .poller
            .register(fd, slot as u64, Interest::READABLE)
            .is_err()
        {
            self.slab.remove(slot);
            return;
        }
        harp_obs::metrics::counter(self.metrics().accepted).inc();
        let hello = Message::Hello(Hello {
            epoch: self.shared.epoch,
            resume_token: 0,
        });
        self.enqueue(slot, &hello);
    }

    /// Delivers routed frame bytes to a local session. A stale route
    /// (session already gone from this shard) is dropped and counted, the
    /// same way the old stream map pruned unreachable clients.
    fn deliver(&mut self, app: AppId, bytes: Vec<u8>) {
        let Some(&slot) = self.local.get(&app) else {
            harp_obs::metrics::counter("daemon.dead_stream_pruned").inc();
            if harp_obs::enabled() {
                harp_obs::instant(harp_obs::Subsystem::Daemon, "dead_stream_pruned")
                    .field("session", app.raw());
            }
            return;
        };
        if let Some(sess) = self.slab.get_mut(slot) {
            sess.out.extend(bytes);
        }
        self.flush(slot);
    }

    /// Encodes `msg` into the session's outbound ring and flushes what the
    /// socket will take now.
    fn enqueue(&mut self, slot: usize, msg: &Message) {
        let Ok(bytes) = encode_frame(msg) else {
            return; // oversized dump — drop rather than tear the stream
        };
        if let Some(sess) = self.slab.get_mut(slot) {
            sess.out.extend(bytes);
        }
        self.flush(slot);
    }

    /// Drains the outbound ring into the socket until it blocks, keeping
    /// `EPOLLOUT` interest in sync with whether bytes remain. Closes the
    /// session on a write failure.
    fn flush(&mut self, slot: usize) {
        let flushes = self.metrics().flushes;
        let mut dead = false;
        let mut rereg = None;
        {
            let Some(sess) = self.slab.get_mut(slot) else {
                return;
            };
            harp_obs::metrics::counter(flushes).inc();
            while !sess.out.is_empty() {
                let (a, b) = sess.out.as_slices();
                let chunk = if a.is_empty() { b } else { a };
                match sess.stream.write(chunk) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        sess.out.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                let want = !sess.out.is_empty();
                if want != sess.want_write {
                    sess.want_write = want;
                    rereg = Some((sess.stream.as_raw_fd(), want));
                }
            }
        }
        if dead {
            self.close_session(slot);
            return;
        }
        if let Some((fd, want)) = rereg {
            let interest = if want {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            let _ = self.poller.reregister(fd, slot as u64, interest);
        }
    }

    /// Read-readiness (or hangup) on a session: batch-read until the
    /// socket blocks, dispatching every complete frame as it appears.
    fn on_readable(&mut self, slot: usize) {
        loop {
            let read = {
                let Some(sess) = self.slab.get_mut(slot) else {
                    return;
                };
                sess.decoder.read_from(&mut sess.stream)
            };
            match read {
                Ok(0) => {
                    // EOF — the peer hung up (an `EPOLLRDHUP` event may or
                    // may not have raced ahead of the FIN, so the read is
                    // the authoritative signal). Dispatch what's buffered,
                    // then close: a clean frame boundary is a silent exit;
                    // a torn frame is a protocol error, as with the old
                    // blocking reader.
                    harp_obs::metrics::counter(self.metrics().hangups).inc();
                    if self.process_frames(slot) {
                        return;
                    }
                    let clean = self.slab.get(slot).is_none_or(|s| s.decoder.is_clean());
                    if !clean {
                        self.protocol_error(slot, "connection closed mid-frame".to_string());
                    } else {
                        self.close_session(slot);
                    }
                    return;
                }
                Ok(_) => {
                    if self.process_frames(slot) {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let _ = self.process_frames(slot);
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // ECONNRESET and friends: a crashed peer whose socket
                    // died with unread data sends RST instead of FIN —
                    // still a hangup.
                    harp_obs::metrics::counter(self.metrics().hangups).inc();
                    self.close_session(slot);
                    return;
                }
            }
        }
    }

    /// Dispatches every complete frame buffered for `slot`. Returns true
    /// when the session was closed (exit, protocol error, write failure).
    fn process_frames(&mut self, slot: usize) -> bool {
        loop {
            let pulled = {
                let Some(sess) = self.slab.get_mut(slot) else {
                    return true;
                };
                match sess.decoder.next_frame() {
                    Ok(Some(frame)) => match frame.decode() {
                        Ok(msg) => Pulled::Msg(msg),
                        Err(e) => Pulled::Bad(e.to_string()),
                    },
                    Ok(None) => Pulled::Idle,
                    Err(e) => Pulled::Bad(e.to_string()),
                }
            };
            match pulled {
                Pulled::Idle => return false,
                Pulled::Bad(detail) => {
                    // Resynchronizing a byte stream after a framing error
                    // is not possible; tell the peer and drop them.
                    self.protocol_error(slot, detail);
                    return true;
                }
                Pulled::Msg(msg) => {
                    harp_obs::metrics::counter(self.metrics().frames).inc();
                    if self.dispatch(slot, msg) {
                        // Clean exit — close outside the dispatch span so
                        // deregistration traces stand alone, as they did
                        // when cleanup ran after the connection loop.
                        self.close_session(slot);
                        return true;
                    }
                    if !self.slab.contains(slot) {
                        return true; // closed by a failed flush
                    }
                }
            }
        }
    }

    /// Handles one decoded message, timing it into the owning session's
    /// latency histogram (the per-interval p99 that telemetry
    /// subscriptions report). Returns true when the connection must
    /// close (clean exit).
    fn dispatch(&mut self, slot: usize, msg: Message) -> bool {
        let started = Instant::now();
        let close = self.dispatch_msg(slot, msg);
        if let Some(app) = self.slab.get(slot).and_then(|s| s.app) {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut lat = lock(&self.shared.latency);
            let h = lat.entry(app).or_default();
            h.count = h.count.saturating_add(1);
            h.sum = h.sum.wrapping_add(ns);
            h.buckets[bucket_index(ns)] = h.buckets[bucket_index(ns)].saturating_add(1);
        }
        close
    }

    /// The message state machine proper — the same one the old
    /// per-connection thread ran, minus the blocking I/O.
    fn dispatch_msg(&mut self, slot: usize, msg: Message) -> bool {
        let (conn, app) = match self.slab.get(slot) {
            Some(s) => (s.conn, s.app),
            None => return true,
        };
        let _dispatch = harp_obs::span(harp_obs::Subsystem::Daemon, "dispatch")
            .field("msg", msg_name(&msg))
            .field("conn", conn)
            .field("session", app.map(AppId::raw).unwrap_or(0));
        match msg {
            Message::Register(_) | Message::Resume(_) if app.is_some() => {
                // A connection is one session; re-registration would leak
                // the original session's resources.
                self.send_error(
                    slot,
                    ERR_DUPLICATE_REGISTER,
                    "connection already holds a registered session".to_string(),
                );
            }
            Message::Register(reg) => {
                self.register_fresh(slot, conn, &reg.app_name, reg.provides_utility);
            }
            Message::Resume(r) => {
                let core = self.shared.core();
                let resolved = lock(&core).resolve_resume_token(r.resume_token);
                if let Some(id) = resolved {
                    // Idempotent reclaim: rebind the session to this
                    // connection and replay its current activation so the
                    // client re-applies without waiting for a round.
                    self.shared.router.bind(id, self.idx);
                    self.local.insert(id, slot);
                    lock(&self.shared.owners).insert(id, conn);
                    if let Some(sess) = self.slab.get_mut(slot) {
                        sess.app = Some(id);
                    }
                    self.enqueue(
                        slot,
                        &Message::RegisterAck(RegisterAck {
                            app_id: id.raw(),
                            epoch: self.shared.epoch,
                            resume_token: r.resume_token,
                            resumed: true,
                        }),
                    );
                    let last = lock(&core).last_directive(id).cloned();
                    if let Some(d) = last {
                        self.enqueue(slot, &directive_to_activate(&d));
                    }
                    harp_obs::metrics::counter("daemon.reconnects_total").inc();
                    if harp_obs::enabled() {
                        harp_obs::instant(harp_obs::Subsystem::Daemon, "session_resumed")
                            .field("conn", conn)
                            .field("session", id.raw());
                    }
                } else {
                    // Stale or foreign token (journal lost, session
                    // reaped): fall back to a fresh registration.
                    if self.register_fresh(slot, conn, &r.app_name, r.provides_utility) {
                        harp_obs::metrics::counter("daemon.reconnects_total").inc();
                    }
                }
            }
            Message::SubmitPoints(sp) => {
                let Some(id) = app else {
                    self.send_error(
                        slot,
                        ERR_NO_SESSION,
                        "SubmitPoints before registration".to_string(),
                    );
                    return false;
                };
                // All or nothing, like the RM's own batch validation: one
                // vector that does not fit the machine shape rejects the
                // batch before the RM sees any of it.
                let points: harp_types::Result<Vec<_>> = sp
                    .points
                    .iter()
                    .map(|p| {
                        let erv = ExtResourceVector::from_flat(&self.shared.shape, &p.erv_flat)?;
                        Ok((erv, NonFunctional::new(p.utility, p.power)))
                    })
                    .collect();
                let core = self.shared.core();
                let result = points.and_then(|points| {
                    let _op = OpGuard::begin(&self.shared);
                    lock(&core).submit_points(id, points)
                });
                match result {
                    Ok(out) => self.shared.route(&out),
                    Err(e) => self.send_error(slot, ERR_SUBMIT_REJECTED, e.to_string()),
                }
            }
            Message::DumpTelemetry(req) => {
                // Serve the flight recorder to observers (`harp-trace`).
                let (jsonl, truncated) =
                    truncate_jsonl(harp_obs::dump_global(req.include_metrics), MAX_DUMP_BYTES);
                self.enqueue(
                    slot,
                    &Message::TelemetryDump(TelemetryDump { jsonl, truncated }),
                );
            }
            Message::SubscribeTelemetry(req) => {
                let ms = if req.interval_ms == 0 {
                    DEFAULT_SUB_INTERVAL_MS
                } else {
                    u64::from(req.interval_ms).clamp(MIN_SUB_INTERVAL_MS, MAX_SUB_INTERVAL_MS)
                };
                let now = Instant::now();
                if let Some(sess) = self.slab.get_mut(slot) {
                    sess.sub = Some(SubState::new(
                        Duration::from_millis(ms),
                        req.include_metrics,
                        now,
                    ));
                }
                harp_obs::metrics::counter("daemon.telemetry.subscribes").inc();
                // Push the baseline frame immediately; the cadence starts
                // from here.
                self.push_frame(slot, now);
            }
            Message::UtilityReport(_) => {
                // Collected for future online monitoring; the daemon's RM
                // runs offline (see crate docs).
            }
            Message::Exit { .. } => return true,
            _ => {
                // RM-to-application messages echoed back by a confused or
                // malicious client carry no meaning here; ignore them.
            }
        }
        false
    }

    /// Registers a fresh session for this connection (also the fallback
    /// path of a failed resume). Returns whether registration succeeded.
    fn register_fresh(&mut self, slot: usize, conn: u64, name: &str, provides: bool) -> bool {
        let id = AppId(self.shared.next_id.fetch_add(1, Ordering::SeqCst));
        let token = self.shared.make_token();
        // Make the session routable before the allocation round so this
        // app receives its own activation.
        self.shared.router.bind(id, self.idx);
        self.local.insert(id, slot);
        let core = self.shared.core();
        let result = {
            let _op = OpGuard::begin(&self.shared);
            lock(&core).register_resumable(id, name, provides, token)
        };
        match result {
            Ok(out) => {
                if let Some(sess) = self.slab.get_mut(slot) {
                    sess.app = Some(id);
                }
                lock(&self.shared.owners).insert(id, conn);
                self.enqueue(
                    slot,
                    &Message::RegisterAck(RegisterAck {
                        app_id: id.raw(),
                        epoch: self.shared.epoch,
                        resume_token: token,
                        resumed: false,
                    }),
                );
                self.shared.route(&out);
                true
            }
            Err(e) => {
                self.shared.router.unbind(id, self.idx);
                self.local.remove(&id);
                self.send_error(slot, ERR_REGISTER_REJECTED, e.to_string());
                false
            }
        }
    }

    /// Shortens the poll timeout when a subscription push is due before
    /// the idle heartbeat `cap`.
    fn sub_poll_timeout(&self, cap: Duration) -> Duration {
        let now = Instant::now();
        let mut timeout = cap;
        for (_, sess) in self.slab.iter() {
            if let Some(sub) = &sess.sub {
                timeout = timeout.min(sub.next_push.saturating_duration_since(now));
            }
        }
        timeout
    }

    /// Pushes a [`TelemetryFrame`] to every subscription that has come
    /// due; runs once per shard loop iteration.
    fn push_subscriptions(&mut self) {
        let now = Instant::now();
        let due: Vec<usize> = self
            .slab
            .iter()
            .filter(|(_, s)| s.sub.as_ref().is_some_and(|sub| sub.next_push <= now))
            .map(|(slot, _)| slot)
            .collect();
        for slot in due {
            self.push_frame(slot, now);
        }
    }

    /// Builds and enqueues one telemetry frame for `slot`'s subscription
    /// (or drops it, with accounting, when the subscriber has stopped
    /// draining its socket). Energy comes from the RM core's ledger;
    /// latency from the shared per-session dispatch histograms; metric
    /// deltas from the subscription's own interval series.
    fn push_frame(&mut self, slot: usize, now: Instant) {
        if self.slab.get(slot).is_none_or(|s| s.sub.is_none()) {
            return;
        }
        // Gather global state before borrowing the session mutably. Rows
        // cover every registered session plus any session the ledger has
        // charged (a session can retire between charge and push).
        let core = self.shared.core();
        let mut ids: std::collections::BTreeSet<AppId> =
            lock(&self.shared.owners).keys().copied().collect();
        let (total_uj, idle_uj, rows) = {
            let guard = lock(&core);
            let ledger = guard.ledger();
            ids.extend(ledger.sessions().into_iter().map(|(app, _)| app));
            let rows: Vec<(AppId, String, u64)> = ids
                .into_iter()
                .map(|app| {
                    let name = guard.session_name(app).unwrap_or("?").to_string();
                    (app, name, ledger.session_uj(app))
                })
                .collect();
            (ledger.total_uj(), ledger.idle_uj(), rows)
        };
        let latency_now: HashMap<AppId, HistogramSnapshot> = lock(&self.shared.latency).clone();
        let metrics_snap = {
            let include = self
                .slab
                .get(slot)
                .and_then(|s| s.sub.as_ref())
                .is_some_and(|sub| sub.include_metrics);
            include.then(harp_obs::metrics::snapshot)
        };

        let frame = {
            let Some(sess) = self.slab.get_mut(slot) else {
                return;
            };
            let Some(sub) = sess.sub.as_mut() else {
                return;
            };
            sub.next_push = now + sub.interval;
            let seq = sub.seq;
            sub.seq += 1;
            if sess.out.len() > MAX_SUB_BACKLOG_BYTES {
                // Drop-oldest: the longest-due frame dies; `seq` still
                // advances so `delivered + dropped == seq` at the peer.
                sub.dropped += 1;
                harp_obs::metrics::counter("daemon.telemetry.dropped_frames").inc();
                return;
            }
            let sessions: Vec<SessionEnergy> = rows
                .iter()
                .map(|(app, name, uj)| {
                    let prev = sub.last_sessions.get(app).copied().unwrap_or(0);
                    let latency_p99_us = latency_now
                        .get(app)
                        .map(|h| {
                            let d = match sub.last_latency.get(app) {
                                Some(b) => h.delta_since(b),
                                None => h.clone(),
                            };
                            d.quantile(0.99) / 1_000
                        })
                        .unwrap_or(0);
                    SessionEnergy {
                        app_id: app.raw(),
                        name: name.clone(),
                        tick_uj: uj.saturating_sub(prev),
                        total_uj: *uj,
                        latency_p99_us,
                    }
                })
                .collect();
            let frame = TelemetryFrame {
                seq,
                dropped_frames: sub.dropped,
                interval_ms: sub.interval.as_millis() as u32,
                tick_uj: total_uj.saturating_sub(sub.last_total_uj),
                idle_uj: idle_uj.saturating_sub(sub.last_idle_uj),
                total_uj,
                sessions,
                metrics_jsonl: match metrics_snap {
                    Some(snap) => sub.intervals.sample_from(snap).delta.to_jsonl(),
                    None => String::new(),
                },
            };
            sub.last_total_uj = total_uj;
            sub.last_idle_uj = idle_uj;
            sub.last_sessions = rows.iter().map(|(a, _, uj)| (*a, *uj)).collect();
            sub.last_latency = latency_now;
            frame
        };
        harp_obs::metrics::counter("daemon.telemetry.frames").inc();
        self.enqueue(slot, &Message::TelemetryFrame(frame));
    }

    /// Logs and enqueues an `ERR_*` reply — the reactor counterpart of the
    /// old `send_error`, with identical event fields.
    fn send_error(&mut self, slot: usize, code: u32, detail: String) {
        let (conn, session) = match self.slab.get(slot) {
            Some(s) => (s.conn, s.app),
            None => return,
        };
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Daemon, "err_reply")
                .field("code", code)
                .field("err", err_name(code))
                .field("conn", conn)
                .field("session", session.map(AppId::raw).unwrap_or(0))
                .field("detail", detail.clone());
            harp_obs::metrics::counter("daemon.err_replies").inc();
        }
        self.enqueue(slot, &Message::Error(ErrorMsg { code, detail }));
    }

    /// Undecodable stream: notify the peer (best effort, briefly bounded)
    /// and drop the connection.
    fn protocol_error(&mut self, slot: usize, detail: String) {
        self.send_error(slot, ERR_PROTOCOL, detail);
        self.flush_closing(slot);
        self.close_session(slot);
    }

    /// Gives a closing session a short, bounded window to drain its final
    /// frames to a slow peer.
    fn flush_closing(&mut self, slot: usize) {
        let deadline = Instant::now() + CLOSE_FLUSH_BUDGET;
        loop {
            self.flush(slot);
            let fd = match self.slab.get(slot) {
                Some(s) if !s.out.is_empty() => s.stream.as_raw_fd(),
                _ => return,
            };
            if Instant::now() >= deadline {
                return;
            }
            let _ = poll_fd(fd, false, true, Some(Duration::from_millis(10)));
        }
    }

    /// Tears a session down. Only the connection that currently owns the
    /// session may deregister it: after a resume, the stale connection's
    /// hangup must not tear the session out from under the new one. A
    /// killed daemon skips deregistration entirely so the journal keeps
    /// the session for the next boot to recover.
    fn close_session(&mut self, slot: usize) {
        let Some(sess) = self.slab.remove(slot) else {
            return;
        };
        self.poller.deregister(sess.stream.as_raw_fd());
        let Some(app) = sess.app else {
            return;
        };
        if self.local.get(&app) == Some(&slot) {
            self.local.remove(&app);
        }
        let owns = lock(&self.shared.owners).get(&app).copied() == Some(sess.conn);
        if owns && !self.shared.killed.load(Ordering::SeqCst) {
            lock(&self.shared.owners).remove(&app);
            lock(&self.shared.latency).remove(&app);
            self.shared.router.unbind(app, self.idx);
            let core = self.shared.core();
            let result = {
                let _op = OpGuard::begin(&self.shared);
                lock(&core).deregister(app)
            };
            if let Ok(out) = result {
                if harp_obs::enabled() {
                    harp_obs::instant(harp_obs::Subsystem::Daemon, "session_deregistered")
                        .field("conn", sess.conn)
                        .field("session", app.raw());
                    harp_obs::metrics::counter("daemon.deregisters").inc();
                }
                self.shared.route(&out);
            }
        }
        // Dropping `sess` closes the fd and severs the client.
    }
}

//! The RM session: registration handshake, activation handling, utility
//! feedback, and crash-recoverable reconnection.

use crate::Transport;
use harp_proto::{
    Activate, AdaptivityType, Message, Register, Resume, SubmitPoints, UtilityReport, WirePoint,
};
use harp_types::{ExtResourceVector, HarpError, HwThreadId, NonFunctional, Result};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// Observable lifecycle state of a [`HarpSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SessionState {
    /// Connected to the RM; activations flow normally.
    Connected = 0,
    /// The RM went away. The last activation stays applied (the paper's
    /// allocations are leases, not revocations — the safest degraded
    /// behaviour is to keep running on the granted resources) while the
    /// session retries in the background of each [`HarpSession::poll`].
    Degraded = 1,
    /// The session is gone for good: exited, retry budget exhausted, or a
    /// non-retryable failure (e.g. socket permission denied).
    Closed = 2,
}

impl SessionState {
    fn from_u8(v: u8) -> SessionState {
        match v {
            0 => SessionState::Connected,
            1 => SessionState::Degraded,
            _ => SessionState::Closed,
        }
    }
}

/// Cloneable, thread-safe view of a session's [`SessionState`] — for
/// wiring into runtimes or health endpoints without borrowing the session.
#[derive(Debug, Clone, Default)]
pub struct SessionStateHandle {
    inner: Arc<AtomicU8>,
}

impl SessionStateHandle {
    /// The current state.
    pub fn get(&self) -> SessionState {
        SessionState::from_u8(self.inner.load(Ordering::SeqCst))
    }

    fn set(&self, s: SessionState) {
        self.inner.store(s as u8, Ordering::SeqCst);
    }
}

/// Reconnect behaviour after a daemon disconnect: jittered exponential
/// backoff with a cap and a retry budget.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// First-retry backoff; doubles per consecutive failure.
    pub base: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub cap: Duration,
    /// Consecutive failed attempts before the session closes for good.
    pub max_retries: u32,
    /// Seed for the jitter PRNG (xorshift64). Defaults to the process id
    /// so a fleet of clients restarting together decorrelates its retries
    /// instead of stampeding the freshly restarted daemon.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            base: Duration::from_millis(20),
            cap: Duration::from_secs(2),
            max_retries: 12,
            seed: u64::from(std::process::id()) | 1,
        }
    }
}

impl ReconnectPolicy {
    /// A policy with the given backoff bounds and retry budget.
    pub fn new(base: Duration, cap: Duration, max_retries: u32) -> Self {
        ReconnectPolicy {
            base,
            cap,
            max_retries,
            ..ReconnectPolicy::default()
        }
    }

    /// Overrides the jitter seed (tests want determinism).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed.max(1);
        self
    }

    /// Backoff before retry `attempt`: exponential in the attempt count,
    /// capped, with equal jitter (half fixed, half uniform) from an
    /// xorshift64 step on `rng` — no external randomness dependency,
    /// deterministic under a seed.
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.cap);
        let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
        let half = (nanos / 2).max(1);
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x.max(1);
        Duration::from_nanos(half + x % half)
    }
}

/// An operating-point activation as delivered to the application.
#[derive(Debug, Clone, PartialEq)]
pub struct Activation {
    /// The activated extended resource vector (flattened form as received).
    pub erv_flat: Vec<u32>,
    /// Concrete hardware threads granted.
    pub hw_threads: Vec<HwThreadId>,
    /// The parallelization degree the application should adopt.
    pub parallelism: u32,
}

/// Shared view of the most recent activation — the link between the session
/// and the [`MalleableRuntime`](crate::MalleableRuntime) (and any custom
/// adaptivity code).
#[derive(Debug, Clone, Default)]
pub struct AllocationHandle {
    inner: Arc<RwLock<Option<Activation>>>,
}

impl AllocationHandle {
    /// Creates an empty handle (no allocation received yet).
    pub fn new() -> Self {
        AllocationHandle::default()
    }

    /// The current activation, if any.
    ///
    /// Lock poison is recovered from: an activation is always written
    /// whole, so a panicked writer cannot leave a torn value behind.
    pub fn current(&self) -> Option<Activation> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The current parallelization degree (defaults to `fallback` before
    /// the first activation) — what the team-size hook reads at every
    /// parallel-region entry.
    pub fn parallelism_or(&self, fallback: u32) -> u32 {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|a| a.parallelism.max(1))
            .unwrap_or(fallback)
    }

    /// Stores an activation. Normally the session does this when an
    /// `Activate` message arrives; it is public so custom frontends (and
    /// tests) can drive a runtime directly.
    pub fn store(&self, a: Activation) {
        *self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(a);
    }
}

/// Session configuration: what the application announces at registration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Application name (profiles are keyed by it on the RM side).
    pub name: String,
    /// Adaptivity classification (§4.1.3).
    pub adaptivity: AdaptivityType,
    /// Whether the application will answer utility polls.
    pub provides_utility: bool,
    /// Operating points from the application description file, submitted
    /// right after registration (§4.1.1 step 2).
    pub points: Vec<(ExtResourceVector, NonFunctional)>,
    /// Per-kind SMT widths describing the points' vector shape.
    pub smt_widths: Vec<u32>,
    /// Process id announced to the RM.
    pub pid: u64,
}

impl SessionConfig {
    /// Minimal configuration: a name and an adaptivity type.
    pub fn new(name: impl Into<String>, adaptivity: AdaptivityType) -> Self {
        SessionConfig {
            name: name.into(),
            adaptivity,
            provides_utility: false,
            points: Vec::new(),
            smt_widths: Vec::new(),
            pid: std::process::id() as u64,
        }
    }

    /// Announces utility feedback support.
    pub fn with_utility(mut self) -> Self {
        self.provides_utility = true;
        self
    }

    /// Attaches description-file operating points.
    pub fn with_points(
        mut self,
        smt_widths: Vec<u32>,
        points: Vec<(ExtResourceVector, NonFunctional)>,
    ) -> Self {
        self.smt_widths = smt_widths;
        self.points = points;
        self
    }
}

type AllocationCallback = Box<dyn FnMut(&Activation) + Send>;
type TransportFactory<T> = Box<dyn FnMut() -> Result<T> + Send>;

/// An active session with the HARP RM.
pub struct HarpSession<T: Transport> {
    transport: T,
    app_id: u64,
    handle: AllocationHandle,
    callbacks: Vec<AllocationCallback>,
    cfg: SessionConfig,
    state: SessionStateHandle,
    /// Daemon boot epoch this session last registered under.
    epoch: u64,
    /// Token presented on reconnect to reclaim this session idempotently.
    resume_token: u64,
    factory: Option<TransportFactory<T>>,
    policy: ReconnectPolicy,
    rng: u64,
    attempt: u32,
    next_retry_at: Option<Instant>,
}

impl<T: Transport> std::fmt::Debug for HarpSession<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarpSession")
            .field("app_id", &self.app_id)
            .field("state", &self.state.get())
            .field("epoch", &self.epoch)
            .field("callbacks", &self.callbacks.len())
            .finish()
    }
}

/// Waits for the registration acknowledgement, tolerating frames that can
/// legitimately land first: the daemon's `Hello { epoch }` greeting, and
/// `Activate` directives routed by *other* clients' concurrent allocation
/// rounds before this connection's ack is written. Returns the ack, the
/// highest epoch seen, and any buffered activations (to apply once the
/// session exists).
fn recv_register_ack<T: Transport>(
    transport: &mut T,
) -> Result<(harp_proto::RegisterAck, u64, Vec<Message>)> {
    let mut epoch = 0;
    let mut pending = Vec::new();
    loop {
        match transport.recv()? {
            Message::Hello(h) => epoch = epoch.max(h.epoch),
            Message::Activate(a) => pending.push(Message::Activate(a)),
            Message::RegisterAck(ack) => {
                let epoch = epoch.max(ack.epoch);
                return Ok((ack, epoch, pending));
            }
            Message::Error(e) => {
                return Err(HarpError::protocol(format!(
                    "registration rejected: {} ({})",
                    e.detail, e.code
                )))
            }
            other => {
                return Err(HarpError::protocol(format!(
                    "unexpected registration reply: {other:?}"
                )))
            }
        }
    }
}

fn submit_points<T: Transport>(transport: &mut T, cfg: &SessionConfig, app_id: u64) -> Result<()> {
    if cfg.points.is_empty() {
        return Ok(());
    }
    let points = cfg
        .points
        .iter()
        .map(|(erv, nfc)| WirePoint {
            erv_flat: erv.flat(),
            utility: nfc.utility,
            power: nfc.power,
        })
        .collect();
    transport.send(&Message::SubmitPoints(SubmitPoints {
        app_id,
        smt_widths: cfg.smt_widths.clone(),
        points,
    }))
}

impl<T: Transport> HarpSession<T> {
    /// Performs the registration handshake (paper Fig. 3, steps 1–2):
    /// sends the registration request, waits for the acknowledgement, and
    /// submits any description-file operating points.
    ///
    /// A session connected this way does not reconnect after a daemon
    /// crash — use [`HarpSession::connect_with_reconnect`] for that.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Protocol`] if the RM answers with anything but
    /// an acknowledgement, or transport errors.
    pub fn connect(mut transport: T, cfg: SessionConfig) -> Result<Self> {
        transport.send(&Message::Register(Register {
            pid: cfg.pid,
            app_name: cfg.name.clone(),
            adaptivity: cfg.adaptivity,
            provides_utility: cfg.provides_utility,
        }))?;
        let (ack, epoch, pending) = recv_register_ack(&mut transport)?;
        submit_points(&mut transport, &cfg, ack.app_id)?;
        let state = SessionStateHandle::default();
        state.set(SessionState::Connected);
        let mut session = HarpSession {
            transport,
            app_id: ack.app_id,
            handle: AllocationHandle::new(),
            callbacks: Vec::new(),
            rng: 1,
            policy: ReconnectPolicy::default(),
            cfg,
            state,
            epoch,
            resume_token: ack.resume_token,
            factory: None,
            attempt: 0,
            next_retry_at: None,
        };
        for msg in pending {
            session.handle_message(msg, &mut || 0.0)?;
        }
        Ok(session)
    }

    /// Like [`HarpSession::connect`], but keeps the transport `factory`
    /// so the session survives daemon crashes: on a disconnect it enters
    /// [`SessionState::Degraded`] (the last activation stays applied) and
    /// every subsequent [`poll`](HarpSession::poll) makes at most one
    /// non-blocking reconnect attempt under the `policy`'s jittered
    /// exponential backoff. Reconnects present the resume token from the
    /// original registration, so a recovered daemon re-binds the existing
    /// session; if the daemon no longer knows the token the session
    /// re-registers from scratch and resubmits its operating points.
    ///
    /// # Errors
    ///
    /// As for [`HarpSession::connect`]; the *initial* connection does not
    /// retry.
    pub fn connect_with_reconnect(
        mut factory: impl FnMut() -> Result<T> + Send + 'static,
        cfg: SessionConfig,
        policy: ReconnectPolicy,
    ) -> Result<Self> {
        let transport = factory()?;
        let mut session = HarpSession::connect(transport, cfg)?;
        session.rng = policy.seed.max(1);
        session.policy = policy;
        session.factory = Some(Box::new(factory));
        Ok(session)
    }

    /// The RM-assigned session id.
    pub fn app_id(&self) -> u64 {
        self.app_id
    }

    /// The daemon boot epoch this session last registered under. Bumps
    /// observed here mean the daemon restarted (or its watchdog revived
    /// the RM) between registrations.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state.get()
    }

    /// A cloneable handle observing the session state from other threads.
    pub fn state_handle(&self) -> SessionStateHandle {
        self.state.clone()
    }

    /// A shared handle to the latest activation, for wiring into runtimes
    /// and adaptivity knobs.
    pub fn allocation(&self) -> AllocationHandle {
        self.handle.clone()
    }

    /// Registers a custom-adaptivity callback invoked on every activation
    /// (paper §4.1.4: "developers only need to register callbacks").
    pub fn on_allocation(&mut self, cb: impl FnMut(&Activation) + Send + 'static) {
        self.callbacks.push(Box::new(cb));
    }

    /// Processes all pending RM messages: applies activations (updating the
    /// [`AllocationHandle`] and firing callbacks) and answers utility polls
    /// with `utility()`. Returns the number of messages handled.
    ///
    /// Applications call this at convenient points (e.g. between parallel
    /// regions); the daemon frontend calls it from a service thread.
    ///
    /// With a reconnecting session (see
    /// [`connect_with_reconnect`](HarpSession::connect_with_reconnect)), a
    /// disconnect does not surface as an error here: the session flips to
    /// [`SessionState::Degraded`] and each later `poll` makes at most one
    /// backoff-gated reconnect attempt, so the application's own loop
    /// doubles as the retry timer and never blocks on the daemon.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (non-reconnecting sessions), fatal
    /// connect failures, and retry-budget exhaustion.
    pub fn poll(&mut self, mut utility: impl FnMut() -> f64) -> Result<usize> {
        match self.state.get() {
            SessionState::Closed => {
                return Err(HarpError::disconnected("session closed"));
            }
            SessionState::Degraded => {
                self.try_reconnect()?;
                if self.state.get() == SessionState::Degraded {
                    return Ok(0);
                }
            }
            SessionState::Connected => {}
        }
        let mut handled = 0;
        loop {
            match self.transport.try_recv() {
                Ok(Some(msg)) => {
                    match self.handle_message(msg, &mut utility) {
                        Ok(()) => handled += 1,
                        Err(e) if e.is_disconnect() && self.factory.is_some() => {
                            self.enter_degraded();
                            break;
                        }
                        Err(e) => return Err(e),
                    };
                }
                Ok(None) => break,
                Err(e) if e.is_disconnect() && self.factory.is_some() => {
                    self.enter_degraded();
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(handled)
    }

    /// Blocks until the next RM message arrives and handles it.
    ///
    /// On a reconnecting session this also blocks through daemon outages:
    /// it sleeps out each backoff window and retries until reconnected,
    /// the retry budget is exhausted, or a fatal error occurs.
    ///
    /// # Errors
    ///
    /// As for [`HarpSession::poll`].
    pub fn poll_blocking(&mut self, mut utility: impl FnMut() -> f64) -> Result<()> {
        loop {
            match self.state.get() {
                SessionState::Closed => {
                    return Err(HarpError::disconnected("session closed"));
                }
                SessionState::Degraded => {
                    if let Some(at) = self.next_retry_at {
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                    }
                    self.try_reconnect()?;
                    continue;
                }
                SessionState::Connected => {}
            }
            match self.transport.recv() {
                Ok(msg) => {
                    return match self.handle_message(msg, &mut utility) {
                        Err(e) if e.is_disconnect() && self.factory.is_some() => {
                            self.enter_degraded();
                            Ok(())
                        }
                        other => other,
                    }
                }
                Err(e) if e.is_disconnect() && self.factory.is_some() => {
                    self.enter_degraded();
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn enter_degraded(&mut self) {
        self.state.set(SessionState::Degraded);
        self.attempt = 0;
        // First retry is immediate: a watchdog-restarted daemon is usually
        // back before the client even notices. Backoff starts after that.
        self.next_retry_at = None;
    }

    /// One reconnect attempt, gated on the backoff schedule. Leaves the
    /// session `Degraded` (and returns `Ok`) while retries remain; flips
    /// to `Connected` on success and `Closed` on fatal failure.
    fn try_reconnect(&mut self) -> Result<()> {
        if let Some(at) = self.next_retry_at {
            if Instant::now() < at {
                return Ok(());
            }
        }
        match self.attempt_resume() {
            Ok(()) => {
                self.state.set(SessionState::Connected);
                self.attempt = 0;
                self.next_retry_at = None;
                Ok(())
            }
            Err(e) if e.is_retryable() => {
                self.attempt += 1;
                if self.attempt >= self.policy.max_retries {
                    self.state.set(SessionState::Closed);
                    return Err(HarpError::disconnected(format!(
                        "reconnect budget exhausted after {} attempts (last error: {e})",
                        self.attempt
                    )));
                }
                let wait = self.policy.backoff(self.attempt, &mut self.rng);
                self.next_retry_at = Some(Instant::now() + wait);
                Ok(())
            }
            Err(e) => {
                // Protocol violations, permission errors: retrying cannot
                // help, stop burning the socket.
                self.state.set(SessionState::Closed);
                Err(e)
            }
        }
    }

    /// Dials a fresh transport and runs the resume handshake: present the
    /// resume token; the daemon either re-binds the surviving (or
    /// journal-recovered) session (`resumed: true`) or falls back to a
    /// fresh registration, in which case the operating points are
    /// resubmitted.
    fn attempt_resume(&mut self) -> Result<()> {
        let factory = self
            .factory
            .as_mut()
            .expect("attempt_resume requires a transport factory");
        let mut transport = factory()?;
        transport.send(&Message::Resume(Resume {
            resume_token: self.resume_token,
            pid: self.cfg.pid,
            app_name: self.cfg.name.clone(),
            adaptivity: self.cfg.adaptivity,
            provides_utility: self.cfg.provides_utility,
        }))?;
        let (ack, epoch, pending) = recv_register_ack(&mut transport)?;
        if !ack.resumed {
            submit_points(&mut transport, &self.cfg, ack.app_id)?;
        }
        self.app_id = ack.app_id;
        self.epoch = epoch;
        if ack.resume_token != 0 {
            self.resume_token = ack.resume_token;
        }
        self.transport = transport;
        for msg in pending {
            self.handle_message(msg, &mut || 0.0)?;
        }
        Ok(())
    }

    fn handle_message(&mut self, msg: Message, utility: &mut impl FnMut() -> f64) -> Result<()> {
        match msg {
            Message::Hello(h) => {
                self.epoch = self.epoch.max(h.epoch);
            }
            Message::Activate(Activate {
                erv_flat,
                core_ids: _,
                parallelism,
                hw_thread_ids,
                ..
            }) => {
                let activation = Activation {
                    erv_flat,
                    hw_threads: hw_thread_ids
                        .into_iter()
                        .map(|t| HwThreadId(t as usize))
                        .collect(),
                    parallelism,
                };
                self.apply(activation);
            }
            Message::UtilityRequest(_) => {
                let value = utility();
                self.transport.send(&Message::UtilityReport(UtilityReport {
                    app_id: self.app_id,
                    utility: value,
                }))?;
            }
            Message::Error(e) => {
                return Err(HarpError::protocol(format!(
                    "RM error {}: {}",
                    e.code, e.detail
                )));
            }
            _ => {}
        }
        Ok(())
    }

    fn apply(&mut self, mut activation: Activation) {
        // Preserve any previously known thread grant if the new message
        // omits it (coarse-grained activations).
        if activation.hw_threads.is_empty() {
            if let Some(prev) = self.handle.current() {
                activation.hw_threads = prev.hw_threads;
            }
        }
        for cb in &mut self.callbacks {
            cb(&activation);
        }
        self.handle.store(activation);
    }

    /// Applies an activation delivered out of band (used by frontends that
    /// decode messages themselves, e.g. the daemon service thread).
    pub fn apply_activation(
        &mut self,
        erv_flat: Vec<u32>,
        hw_threads: Vec<HwThreadId>,
        parallelism: u32,
    ) {
        self.apply(Activation {
            erv_flat,
            hw_threads,
            parallelism,
        });
    }

    /// Deregisters from the RM and consumes the session. Best-effort: an
    /// RM that is already gone (broken pipe, reset, degraded session) is
    /// not an error — the app is shutting down either way, and a recovered
    /// daemon reaps the session when the connection drops.
    ///
    /// # Errors
    ///
    /// Propagates only non-disconnect transport failures.
    pub fn exit(mut self) -> Result<()> {
        if self.state.get() != SessionState::Connected {
            self.state.set(SessionState::Closed);
            return Ok(());
        }
        let r = self.transport.send(&Message::Exit {
            app_id: self.app_id,
        });
        self.state.set(SessionState::Closed);
        match r {
            Err(e) if e.is_disconnect() || e.is_retryable() => Ok(()),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_proto::{duplex, RegisterAck, UtilityRequest};

    fn handshake() -> (
        HarpSession<harp_proto::DuplexEndpoint>,
        harp_proto::DuplexEndpoint,
    ) {
        let (app_side, rm_side) = duplex();
        let t = std::thread::spawn(move || {
            let msg = rm_side.recv().unwrap();
            let reg = match msg {
                Message::Register(r) => r,
                other => panic!("expected Register, got {other:?}"),
            };
            assert_eq!(reg.app_name, "test-app");
            rm_side
                .send(&Message::RegisterAck(RegisterAck::new(11)))
                .unwrap();
            rm_side
        });
        let session = HarpSession::connect(
            app_side,
            SessionConfig::new("test-app", AdaptivityType::Scalable).with_utility(),
        )
        .unwrap();
        (session, t.join().unwrap())
    }

    #[test]
    fn handshake_assigns_app_id() {
        let (session, _rm) = handshake();
        assert_eq!(session.app_id(), 11);
        assert!(session.allocation().current().is_none());
        assert_eq!(session.allocation().parallelism_or(32), 32);
    }

    #[test]
    fn activation_updates_handle_and_fires_callbacks() {
        let (mut session, rm) = handshake();
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let seen2 = seen.clone();
        session.on_allocation(move |a| {
            seen2.store(a.parallelism, std::sync::atomic::Ordering::SeqCst);
        });
        rm.send(&Message::Activate(Activate {
            app_id: 11,
            erv_flat: vec![0, 2, 4],
            core_ids: vec![],
            parallelism: 8,
            hw_thread_ids: vec![0, 1, 16, 17, 18, 19, 20, 21],
        }))
        .unwrap();
        let handled = session.poll(|| 0.0).unwrap();
        assert_eq!(handled, 1);
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 8);
        assert_eq!(session.allocation().parallelism_or(32), 8);
    }

    #[test]
    fn utility_polls_are_answered() {
        let (mut session, rm) = handshake();
        rm.send(&Message::UtilityRequest(UtilityRequest { app_id: 11 }))
            .unwrap();
        session.poll(|| 1234.5).unwrap();
        match rm.recv().unwrap() {
            Message::UtilityReport(r) => {
                assert_eq!(r.app_id, 11);
                assert_eq!(r.utility, 1234.5);
            }
            other => panic!("expected UtilityReport, got {other:?}"),
        }
    }

    #[test]
    fn description_points_are_submitted() {
        use harp_types::ErvShape;
        let (app_side, rm_side) = duplex();
        let shape = ErvShape::new(vec![2, 1]);
        let erv = ExtResourceVector::from_flat(&shape, &[0, 2, 0]).unwrap();
        let t = std::thread::spawn(move || {
            let _reg = rm_side.recv().unwrap();
            rm_side
                .send(&Message::RegisterAck(RegisterAck::new(1)))
                .unwrap();
            match rm_side.recv().unwrap() {
                Message::SubmitPoints(sp) => {
                    assert_eq!(sp.smt_widths, vec![2, 1]);
                    assert_eq!(sp.points.len(), 1);
                    assert_eq!(sp.points[0].erv_flat, vec![0, 2, 0]);
                }
                other => panic!("expected SubmitPoints, got {other:?}"),
            }
        });
        let cfg = SessionConfig::new("with-points", AdaptivityType::Static)
            .with_points(vec![2, 1], vec![(erv, NonFunctional::new(5.0, 2.0))]);
        let _session = HarpSession::connect(app_side, cfg).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn rejected_registration_is_an_error() {
        let (app_side, rm_side) = duplex();
        std::thread::spawn(move || {
            let _ = rm_side.recv();
            rm_side
                .send(&Message::Error(harp_proto::ErrorMsg {
                    code: 1,
                    detail: "nope".into(),
                }))
                .unwrap();
        });
        let r = HarpSession::connect(app_side, SessionConfig::new("x", AdaptivityType::Static));
        assert!(r.is_err());
    }

    #[test]
    fn exit_sends_deregistration() {
        let (session, rm) = handshake();
        let id = session.app_id();
        session.exit().unwrap();
        match rm.recv().unwrap() {
            Message::Exit { app_id } => assert_eq!(app_id, id),
            other => panic!("expected Exit, got {other:?}"),
        }
    }

    #[test]
    fn exit_with_dead_peer_is_best_effort() {
        let (session, rm) = handshake();
        drop(rm);
        // The daemon is gone; a shutdown path must not error out.
        session.exit().unwrap();
    }

    #[test]
    fn hello_greeting_is_tolerated_and_epoch_captured() {
        let (app_side, rm_side) = duplex();
        let t = std::thread::spawn(move || {
            let _reg = rm_side.recv().unwrap();
            rm_side
                .send(&Message::Hello(harp_proto::Hello {
                    epoch: 3,
                    resume_token: 0,
                }))
                .unwrap();
            rm_side
                .send(&Message::RegisterAck(RegisterAck {
                    app_id: 9,
                    epoch: 3,
                    resume_token: 77,
                    resumed: false,
                }))
                .unwrap();
            rm_side
        });
        // Out-of-order delivery relative to the ack must not confuse the
        // handshake even though Hello arrives first here.
        let session = HarpSession::connect(
            app_side,
            SessionConfig::new("greeted", AdaptivityType::Scalable),
        )
        .unwrap();
        let _rm = t.join().unwrap();
        assert_eq!(session.app_id(), 9);
        assert_eq!(session.epoch(), 3);
        assert_eq!(session.state(), SessionState::Connected);
    }

    /// Test policy: near-instant retries so tests stay fast.
    fn fast_policy(max_retries: u32) -> ReconnectPolicy {
        ReconnectPolicy::new(
            Duration::from_micros(100),
            Duration::from_millis(2),
            max_retries,
        )
        .with_seed(0xDECAF)
    }

    fn spin_until(mut done: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Full crash/recover round trip over in-process transports: register,
    /// peer dies, session degrades (old activation stays), resume handshake
    /// re-binds with the original token, replayed activation applies.
    #[test]
    fn disconnect_degrades_then_resume_reconnects() {
        let (conn_tx, conn_rx) = std::sync::mpsc::channel::<harp_proto::DuplexEndpoint>();
        let factory = move || {
            let (app, rm) = duplex();
            conn_tx
                .send(rm)
                .map_err(|_| HarpError::other("test rm gone"))?;
            Ok(app)
        };
        let rm_thread = std::thread::spawn(move || {
            // Connection 1: fresh registration, one activation, then crash.
            let rm = conn_rx.recv().unwrap();
            assert!(matches!(rm.recv().unwrap(), Message::Register(_)));
            rm.send(&Message::RegisterAck(RegisterAck {
                app_id: 4,
                epoch: 1,
                resume_token: 100,
                resumed: false,
            }))
            .unwrap();
            rm.send(&Message::Activate(Activate {
                app_id: 4,
                erv_flat: vec![2, 0],
                core_ids: vec![],
                parallelism: 6,
                hw_thread_ids: vec![0, 1],
            }))
            .unwrap();
            drop(rm); // daemon crash
                      // Connection 2: resume with the original token.
            let rm = conn_rx.recv().unwrap();
            match rm.recv().unwrap() {
                Message::Resume(r) => assert_eq!(r.resume_token, 100),
                other => panic!("expected Resume, got {other:?}"),
            }
            rm.send(&Message::Hello(harp_proto::Hello {
                epoch: 2,
                resume_token: 0,
            }))
            .unwrap();
            rm.send(&Message::RegisterAck(RegisterAck {
                app_id: 4,
                epoch: 2,
                resume_token: 100,
                resumed: true,
            }))
            .unwrap();
            rm.send(&Message::Activate(Activate {
                app_id: 4,
                erv_flat: vec![2, 0],
                core_ids: vec![],
                parallelism: 6,
                hw_thread_ids: vec![0, 1],
            }))
            .unwrap();
            rm // keep the endpoint alive for the caller
        });
        let mut session = HarpSession::connect_with_reconnect(
            factory,
            SessionConfig::new("crashy", AdaptivityType::Scalable),
            fast_policy(20),
        )
        .unwrap();
        assert_eq!(session.epoch(), 1);
        // Drain the first activation, then observe the crash.
        spin_until(
            || session.poll(|| 0.0).unwrap() > 0 && session.allocation().current().is_some(),
            "first activation",
        );
        // Check state *before* polling: reconnection only happens at poll
        // entry, so the poll that observes the hangup leaves the session
        // visibly Degraded until the next call.
        spin_until(
            || {
                if session.state() == SessionState::Degraded {
                    return true;
                }
                session.poll(|| 0.0).unwrap();
                session.state() == SessionState::Degraded
            },
            "degraded state",
        );
        assert_eq!(session.state(), SessionState::Degraded);
        // Degraded keeps the last grant applied.
        assert_eq!(session.allocation().parallelism_or(1), 6);
        // Keep polling: backoff elapses, the resume handshake runs.
        spin_until(
            || {
                session.poll(|| 0.0).unwrap();
                session.state() == SessionState::Connected
            },
            "reconnect",
        );
        assert_eq!(session.epoch(), 2);
        assert_eq!(session.app_id(), 4);
        assert_eq!(session.allocation().parallelism_or(1), 6);
        let _rm = rm_thread.join().unwrap();
    }

    /// An un-resumable token falls back to fresh registration, and the
    /// client resubmits its description-file operating points.
    #[test]
    fn fresh_fallback_resubmits_points() {
        use harp_types::ErvShape;
        let shape = ErvShape::new(vec![2, 1]);
        let erv = ExtResourceVector::from_flat(&shape, &[0, 2, 0]).unwrap();
        let (conn_tx, conn_rx) = std::sync::mpsc::channel::<harp_proto::DuplexEndpoint>();
        let factory = move || {
            let (app, rm) = duplex();
            conn_tx
                .send(rm)
                .map_err(|_| HarpError::other("test rm gone"))?;
            Ok(app)
        };
        let rm_thread = std::thread::spawn(move || {
            let rm = conn_rx.recv().unwrap();
            assert!(matches!(rm.recv().unwrap(), Message::Register(_)));
            rm.send(&Message::RegisterAck(RegisterAck {
                app_id: 1,
                epoch: 1,
                resume_token: 50,
                resumed: false,
            }))
            .unwrap();
            assert!(matches!(rm.recv().unwrap(), Message::SubmitPoints(_)));
            drop(rm);
            // After the crash the daemon lost its journal: unknown token.
            let rm = conn_rx.recv().unwrap();
            assert!(matches!(rm.recv().unwrap(), Message::Resume(_)));
            rm.send(&Message::RegisterAck(RegisterAck {
                app_id: 2,
                epoch: 5,
                resume_token: 51,
                resumed: false,
            }))
            .unwrap();
            // Fresh registration: the points must come again.
            match rm.recv().unwrap() {
                Message::SubmitPoints(sp) => assert_eq!(sp.points.len(), 1),
                other => panic!("expected SubmitPoints, got {other:?}"),
            }
            rm
        });
        let cfg = SessionConfig::new("resubmit", AdaptivityType::Static)
            .with_points(vec![2, 1], vec![(erv, NonFunctional::new(5.0, 2.0))]);
        let mut session =
            HarpSession::connect_with_reconnect(factory, cfg, fast_policy(20)).unwrap();
        spin_until(
            || {
                session.poll(|| 0.0).unwrap();
                session.state() == SessionState::Degraded
            },
            "degraded",
        );
        spin_until(
            || {
                session.poll(|| 0.0).unwrap();
                session.state() == SessionState::Connected
            },
            "fresh re-registration",
        );
        assert_eq!(session.app_id(), 2);
        assert_eq!(session.epoch(), 5);
        let _rm = rm_thread.join().unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_closes_the_session() {
        let first = std::cell::Cell::new(true);
        let (keep_tx, keep_rx) = std::sync::mpsc::channel::<harp_proto::DuplexEndpoint>();
        let factory = move || {
            if first.replace(false) {
                let (app, rm) = duplex();
                std::thread::spawn({
                    let keep = keep_tx.clone();
                    move || {
                        let _reg = rm.recv().unwrap();
                        rm.send(&Message::RegisterAck(RegisterAck {
                            app_id: 1,
                            epoch: 1,
                            resume_token: 9,
                            resumed: false,
                        }))
                        .unwrap();
                        let _ = keep.send(rm);
                    }
                });
                Ok(app)
            } else {
                // The daemon never comes back.
                Err(HarpError::from_connect_io(&std::io::Error::from(
                    std::io::ErrorKind::ConnectionRefused,
                )))
            }
        };
        let mut session = HarpSession::connect_with_reconnect(
            factory,
            SessionConfig::new("doomed", AdaptivityType::Scalable),
            fast_policy(3),
        )
        .unwrap();
        // Sever the connection by dropping the RM-side endpoint.
        drop(keep_rx);
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match session.poll(|| 0.0) {
                Ok(_) => {
                    assert!(Instant::now() < deadline, "budget never exhausted");
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => break e,
            }
        };
        assert!(err.is_disconnect(), "got {err:?}");
        assert_eq!(session.state(), SessionState::Closed);
        // A closed session stays closed.
        assert!(session.poll(|| 0.0).is_err());
        // ... and still exits cleanly (best effort).
        session.exit().unwrap();
    }

    #[test]
    fn permission_denied_is_immediately_fatal() {
        let first = std::cell::Cell::new(true);
        let (keep_tx, keep_rx) = std::sync::mpsc::channel::<harp_proto::DuplexEndpoint>();
        let factory = move || {
            if first.replace(false) {
                let (app, rm) = duplex();
                std::thread::spawn({
                    let keep = keep_tx.clone();
                    move || {
                        let _reg = rm.recv().unwrap();
                        rm.send(&Message::RegisterAck(RegisterAck::new(1))).unwrap();
                        let _ = keep.send(rm);
                    }
                });
                Ok(app)
            } else {
                Err(HarpError::from_connect_io(&std::io::Error::from(
                    std::io::ErrorKind::PermissionDenied,
                )))
            }
        };
        let mut session = HarpSession::connect_with_reconnect(
            factory,
            SessionConfig::new("denied", AdaptivityType::Scalable),
            fast_policy(1000), // budget is irrelevant: the error is fatal
        )
        .unwrap();
        drop(keep_rx);
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match session.poll(|| 0.0) {
                Ok(_) => {
                    assert!(Instant::now() < deadline, "never became fatal");
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => break e,
            }
        };
        assert_eq!(
            err.connect_kind(),
            Some(harp_types::ConnectKind::PermissionDenied)
        );
        assert_eq!(session.state(), SessionState::Closed);
    }

    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let policy =
            ReconnectPolicy::new(Duration::from_millis(10), Duration::from_millis(100), 32)
                .with_seed(42);
        let mut rng = policy.seed;
        let mut prev_cap = Duration::ZERO;
        for attempt in 1..=10u32 {
            let d = policy.backoff(attempt, &mut rng);
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(20))
                .min(Duration::from_millis(100));
            // Equal jitter: always in [exp/2, exp).
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} < {:?}", exp / 2);
            assert!(d < exp, "attempt {attempt}: {d:?} >= {exp:?}");
            prev_cap = prev_cap.max(d);
        }
        assert!(prev_cap < Duration::from_millis(100));
    }
}

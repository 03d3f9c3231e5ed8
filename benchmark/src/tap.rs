//! The benchmark's view of one libharp connection: a [`Transport`] wrapper
//! that timestamps and counts what crosses it, the per-round board wire
//! directives are checked against the mirror on, and the rule that
//! decides which activation completes an operation.

use harp_proto::Message;
use harp_types::Result;
use libharp::Transport;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process: one clock for every
/// thread's timestamps.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// FNV-1a over the words of an activation, in wire field order. The same
/// function hashes a wire `Activate` and a mirror `Directive`, so equal
/// sums mean equal directives.
pub fn activation_hash(
    app: u64,
    erv_flat: &[u32],
    core_ids: &[u32],
    parallelism: u32,
    hw_thread_ids: &[u32],
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(app);
    for part in [erv_flat, core_ids, hw_thread_ids] {
        eat(part.len() as u64);
        part.iter().for_each(|&w| eat(u64::from(w)));
    }
    eat(u64::from(parallelism));
    h
}

/// [`activation_hash`] of a directive as the RM returns it.
pub fn directive_hash(d: &harp_rm::Directive) -> u64 {
    let cores: Vec<u32> = d.cores.iter().map(|c| c.0 as u32).collect();
    let threads: Vec<u32> = d.hw_threads.iter().map(|t| t.0 as u32).collect();
    activation_hash(d.app.raw(), &d.erv.flat(), &cores, d.parallelism, &threads)
}

/// Per-allocation-round accumulators, indexed by the global round number
/// (one closed-loop client makes the round order deterministic: every
/// register, submit and deregister is one round, and every round sends
/// one directive to every live session). Fixed capacity; rounds beyond it
/// are not recorded and [`RoundBoard::overflowed`] reports it.
pub struct RoundBoard {
    hash_sum: Vec<AtomicU64>,
    received: Vec<AtomicU32>,
    applied: Vec<AtomicU32>,
    last_apply_ns: Vec<AtomicU64>,
    overflow: AtomicU32,
}

impl RoundBoard {
    pub fn new(capacity: usize) -> Arc<RoundBoard> {
        let zeros64 = || (0..capacity).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let zeros32 = || (0..capacity).map(|_| AtomicU32::new(0)).collect::<Vec<_>>();
        Arc::new(RoundBoard {
            hash_sum: zeros64(),
            received: zeros32(),
            applied: zeros32(),
            last_apply_ns: zeros64(),
            overflow: AtomicU32::new(0),
        })
    }

    fn note_received(&self, round: usize, hash: u64) {
        match self.hash_sum.get(round) {
            Some(slot) => {
                slot.fetch_add(hash, Ordering::Relaxed);
                self.received[round].fetch_add(1, Ordering::Release);
            }
            None => {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub fn note_applied(&self, round: usize, at_ns: u64) {
        if let Some(slot) = self.last_apply_ns.get(round) {
            slot.fetch_max(at_ns, Ordering::Relaxed);
            self.applied[round].fetch_add(1, Ordering::Release);
        }
    }

    /// Wrapping sum of the hashes of the activations received for `round`,
    /// and how many there were.
    pub fn received(&self, round: usize) -> (u64, u32) {
        match self.hash_sum.get(round) {
            Some(h) => (
                h.load(Ordering::Relaxed),
                self.received[round].load(Ordering::Acquire),
            ),
            None => (0, 0),
        }
    }

    /// How many sessions have applied `round`'s activation, and when the
    /// last of them did.
    pub fn applied(&self, round: usize) -> (u32, u64) {
        match self.applied.get(round) {
            Some(n) => (
                n.load(Ordering::Acquire),
                self.last_apply_ns[round].load(Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    pub fn overflowed(&self) -> bool {
        self.overflow.load(Ordering::Relaxed) > 0
    }
}

/// A bounded sample of the messages that crossed the benchmark's sockets,
/// kept while sampling is on (traced phases) for the `proto` replay. The
/// frame count covers every message, sampled or not.
#[derive(Default)]
pub struct FrameLog {
    sampling: AtomicBool,
    sample: Mutex<Vec<Message>>,
    frames: AtomicU64,
}

/// Messages kept for replay; at ~150 bytes each this bounds the log to a
/// few MiB however long the run.
const FRAME_SAMPLE_CAP: usize = 20_000;

impl FrameLog {
    fn note(&self, msg: &Message) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        if self.sampling.load(Ordering::Relaxed) {
            let mut s = self.sample.lock().expect("frame log poisoned");
            if s.len() < FRAME_SAMPLE_CAP {
                s.push(msg.clone());
            }
        }
    }

    pub fn set_sampling(&self, on: bool) {
        self.sampling.store(on, Ordering::SeqCst);
    }

    /// Messages sent or received over every tapped connection so far.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    pub fn take_sample(&self) -> Vec<Message> {
        std::mem::take(&mut *self.sample.lock().expect("frame log poisoned"))
    }
}

/// What one connection saw, readable from any thread. Times are on the
/// [`now_ns`] clock; 0 means "not yet".
#[derive(Default)]
pub struct TapStats {
    hello_ns: AtomicU64,
    submit_written_ns: AtomicU64,
    exit_written_ns: AtomicU64,
    eof_ns: AtomicU64,
    acks: AtomicU32,
    errors: AtomicU32,
    activates: AtomicU32,
    app_id: AtomicU64,
    resume_token: AtomicU64,
}

impl TapStats {
    /// When the daemon's `Hello` greeting was decoded.
    pub fn hello_ns(&self) -> u64 {
        self.hello_ns.load(Ordering::Relaxed)
    }
    /// When the `SubmitPoints` frame had been written to the socket.
    pub fn submit_written_ns(&self) -> u64 {
        self.submit_written_ns.load(Ordering::Relaxed)
    }
    pub fn exit_written_ns(&self) -> u64 {
        self.exit_written_ns.load(Ordering::Relaxed)
    }
    /// When the daemon closed the connection after `Exit`.
    pub fn eof_ns(&self) -> u64 {
        self.eof_ns.load(Ordering::Relaxed)
    }
    /// `RegisterAck` and `Error` frames received.
    pub fn acks_errors(&self) -> (u32, u32) {
        (
            self.acks.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
    pub fn activates(&self) -> u32 {
        self.activates.load(Ordering::Acquire)
    }
    /// Session id and resume token from the `RegisterAck`.
    pub fn app_id(&self) -> u64 {
        self.app_id.load(Ordering::Relaxed)
    }
    pub fn resume_token(&self) -> u64 {
        self.resume_token.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] that forwards to `inner` and records around it.
pub struct TapTransport<T: Transport> {
    inner: T,
    stats: Arc<TapStats>,
    board: Arc<RoundBoard>,
    /// Global round of this connection's next activation: the session's
    /// register round to begin with.
    next_round: usize,
    log: Option<Arc<FrameLog>>,
    exit_sent: bool,
}

impl<T: Transport> TapTransport<T> {
    /// `register_round` is the global round number the session's
    /// registration will be.
    pub fn new(
        inner: T,
        board: Arc<RoundBoard>,
        register_round: usize,
        log: Option<Arc<FrameLog>>,
    ) -> Self {
        TapTransport {
            inner,
            stats: Arc::new(TapStats::default()),
            board,
            next_round: register_round,
            log,
            exit_sent: false,
        }
    }

    pub fn stats(&self) -> Arc<TapStats> {
        self.stats.clone()
    }

    fn observe(&mut self, msg: &Message) {
        match msg {
            Message::Hello(_) => self.stats.hello_ns.store(now_ns(), Ordering::Relaxed),
            Message::RegisterAck(ack) => {
                self.stats.acks.fetch_add(1, Ordering::Relaxed);
                self.stats.app_id.store(ack.app_id, Ordering::Relaxed);
                self.stats
                    .resume_token
                    .store(ack.resume_token, Ordering::Relaxed);
            }
            Message::Error(_) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            Message::Activate(a) => {
                let h = activation_hash(
                    a.app_id,
                    &a.erv_flat,
                    &a.core_ids,
                    a.parallelism,
                    &a.hw_thread_ids,
                );
                self.board.note_received(self.next_round, h);
                self.next_round += 1;
                self.stats.activates.fetch_add(1, Ordering::Release);
            }
            _ => {}
        }
        if let Some(log) = &self.log {
            log.note(msg);
        }
    }
}

impl<T: Transport> Transport for TapTransport<T> {
    fn send(&mut self, msg: &Message) -> Result<()> {
        self.inner.send(msg)?;
        match msg {
            Message::SubmitPoints(_) => self
                .stats
                .submit_written_ns
                .store(now_ns(), Ordering::Relaxed),
            Message::Exit { .. } => {
                self.stats
                    .exit_written_ns
                    .store(now_ns(), Ordering::Relaxed);
                self.exit_sent = true;
            }
            _ => {}
        }
        if let Some(log) = &self.log {
            log.note(msg);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Message> {
        let msg = self.inner.recv()?;
        self.observe(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Result<Option<Message>> {
        let msg = self.inner.try_recv()?;
        if let Some(m) = &msg {
            self.observe(m);
        }
        Ok(msg)
    }

    fn poll_ready(&mut self, timeout: Option<Duration>) -> Result<bool> {
        self.inner.poll_ready(timeout)
    }
}

/// How long a closing tap waits for the daemon's EOF before giving up
/// (the lifecycle then fails its oracle: `eof_ns` stays 0).
const EOF_TIMEOUT: Duration = Duration::from_secs(10);

impl<T: Transport> Drop for TapTransport<T> {
    /// `HarpSession::exit` consumes the session, so the only place left to
    /// see the daemon's side of the goodbye is here: after an `Exit`, read
    /// on until the daemon closes the connection, which it does once the
    /// deregistration round is done.
    fn drop(&mut self) {
        if !self.exit_sent {
            return;
        }
        let deadline = Instant::now() + EOF_TIMEOUT;
        loop {
            match self.inner.poll_ready(Some(Duration::from_millis(500))) {
                Ok(true) => match self.inner.try_recv() {
                    Ok(Some(m)) => self.observe(&m),
                    Ok(None) => {}
                    Err(_) => {
                        self.stats.eof_ns.store(now_ns(), Ordering::Relaxed);
                        return;
                    }
                },
                Ok(false) => {}
                Err(_) => return,
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }
}

/// Decides which applied activation answers a session's `SubmitPoints`.
///
/// Every allocation round sends the session one directive, so its first
/// activation belongs to the round its *registration* triggered: a
/// provisional whole-machine grant for a new application name, or the
/// stored profile's choice for a known one. Either is usually sitting in
/// the socket buffer by the time `SubmitPoints` is written, which is why
/// "any `Activate` after the submit" measures a buffered read. The answer
/// is the first *later* activation, and it must carry one of the vectors
/// the session can be granted after submitting.
#[derive(Debug)]
pub struct ActivationMatcher {
    expected: Arc<[Vec<u32>]>,
    seen: u32,
    matched_ns: Option<u64>,
    foreign: u32,
}

/// What [`ActivationMatcher::observe`] made of an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The registration round's grant; not an answer.
    Provisional,
    /// The answer to the submission.
    Matched,
    /// After the answer; later rounds keep re-sending directives.
    Later,
    /// A post-registration activation outside the expected set: an oracle
    /// violation.
    Foreign,
}

impl ActivationMatcher {
    /// `expected`: the submitted points' flat vectors, plus the
    /// co-allocation envelope where the workload is oversubscribed. Shared,
    /// because the client makes one matcher per lifecycle inside the
    /// measured operation.
    pub fn new(expected: impl Into<Arc<[Vec<u32>]>>) -> Self {
        ActivationMatcher {
            expected: expected.into(),
            seen: 0,
            matched_ns: None,
            foreign: 0,
        }
    }

    /// Feed every activation the session applied, in order, with the time
    /// it was read back from the `AllocationHandle`.
    pub fn observe(&mut self, erv_flat: &[u32], at_ns: u64) -> Observed {
        self.seen += 1;
        if self.seen == 1 {
            return Observed::Provisional;
        }
        if !self.expected.iter().any(|e| e == erv_flat) {
            self.foreign += 1;
            return Observed::Foreign;
        }
        if self.matched_ns.is_some() {
            return Observed::Later;
        }
        self.matched_ns = Some(at_ns);
        Observed::Matched
    }

    pub fn matched_ns(&self) -> Option<u64> {
        self.matched_ns
    }

    pub fn foreign(&self) -> u32 {
        self.foreign
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisional_grant_is_skipped_and_the_later_timestamp_taken() {
        let mut m = ActivationMatcher::new(vec![vec![0, 4, 0], vec![0, 0, 8]]);
        // The registration round's whole-machine grant arrives first.
        assert_eq!(m.observe(&[0, 8, 16], 100), Observed::Provisional);
        assert_eq!(m.matched_ns(), None);
        assert_eq!(m.observe(&[0, 0, 8], 250), Observed::Matched);
        assert_eq!(m.matched_ns(), Some(250));
        // Later rounds do not move the answer.
        assert_eq!(m.observe(&[0, 4, 0], 400), Observed::Later);
        assert_eq!(m.matched_ns(), Some(250));
    }

    #[test]
    fn a_stored_profile_grant_with_a_submitted_vector_is_still_provisional() {
        // Known application name: the registration round already grants a
        // submitted vector. It still predates the submission.
        let mut m = ActivationMatcher::new(vec![vec![0, 0, 8]]);
        assert_eq!(m.observe(&[0, 0, 8], 100), Observed::Provisional);
        assert_eq!(m.observe(&[0, 0, 8], 300), Observed::Matched);
        assert_eq!(m.matched_ns(), Some(300));
    }

    #[test]
    fn an_unexpected_vector_after_registration_is_a_violation() {
        let mut m = ActivationMatcher::new(vec![vec![0, 0, 8]]);
        m.observe(&[0, 8, 16], 1);
        assert_eq!(m.observe(&[1, 0, 0], 2), Observed::Foreign);
        assert_eq!(m.foreign(), 1);
        assert_eq!(m.matched_ns(), None);
    }

    #[test]
    fn hash_separates_fields() {
        let a = activation_hash(1, &[0, 4, 0], &[0, 1, 2, 3], 8, &[0, 1]);
        assert_eq!(a, activation_hash(1, &[0, 4, 0], &[0, 1, 2, 3], 8, &[0, 1]));
        assert_ne!(a, activation_hash(2, &[0, 4, 0], &[0, 1, 2, 3], 8, &[0, 1]));
        assert_ne!(a, activation_hash(1, &[0, 4], &[0, 0, 1, 2, 3], 8, &[0, 1]));
    }
}

//! The three daemon workloads: a live in-process `harpd`, an idle
//! population of resident libharp sessions, and one closed-loop client
//! churning full session lifecycles through the socket.
//!
//! Load comes from two benchmark threads only, the client (this thread)
//! and a drainer that applies the residents' activations; the daemon's
//! own threads (accept, two reactor shards) run beside them. The host has
//! two CPUs: more generator threads would measure its scheduler.

use crate::counted::{Counters, Probe};
use crate::inputs::{daemon_inputs, DaemonInputs, Points, ProfileKind};
use crate::mirror::{self, Ev, ProfileRef};
use crate::spans::Spans;
use crate::stats::{self, summarize};
use crate::tap::{now_ns, ActivationMatcher, FrameLog, RoundBoard, TapStats, TapTransport};
use crate::{layers, Outcome, RunArgs};
use harp_daemon::{DaemonConfig, DaemonHandle, HarpDaemon, UnixTransport, ERR_DUPLICATE_REGISTER};
use harp_platform::HardwareDescription;
use harp_proto::{AdaptivityType, Message, Register};
use harp_types::ExtResourceVector;
use libharp::{HarpSession, SessionConfig, Transport};
use reactor::{poll_fd, Events, Interest, Poller, Waker};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct DaemonParams {
    pub name: &'static str,
    pub residents: usize,
    pub kind: ProfileKind,
    /// The population cannot fit the machine: every round co-allocates,
    /// and a granted vector is the whole-machine envelope.
    pub oversubscribed: bool,
}

pub const CHURN_IDLE: DaemonParams = DaemonParams {
    name: "churn_idle",
    residents: 2,
    kind: ProfileKind::Small4,
    oversubscribed: false,
};

pub const CHURN_CONTENDED: DaemonParams = DaemonParams {
    name: "churn_contended",
    residents: 20,
    kind: ProfileKind::Wide12,
    oversubscribed: false,
};

pub const FANOUT_OVERSUB: DaemonParams = DaemonParams {
    name: "fanout_oversub",
    residents: 128,
    kind: ProfileKind::Storm2,
    oversubscribed: true,
};

type Session = HarpSession<TapTransport<UnixTransport>>;

/// How long the client waits for an activation, an EOF or the residents
/// before the operation counts as failed. Far above any healthy latency.
const WAIT: Duration = Duration::from_secs(10);

/// Rounds the board can hold: three per lifecycle, at well over the
/// lifecycle rate this host reaches on the lightest workload.
const BOARD_ROUNDS: usize = 1 << 19;

const CLIENT_NAME: &str = "churn";

/// One live daemon with its resident population.
struct Stage {
    daemon: Option<DaemonHandle>,
    socket: PathBuf,
    board: Arc<RoundBoard>,
    log: Arc<FrameLog>,
    drainer: Option<std::thread::JoinHandle<Vec<(RawFd, Session)>>>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    /// Everything that reached the RM, in order: the mirror's input.
    events: Vec<Ev>,
    /// Global number of the next allocation round.
    next_round: usize,
    /// Sessions registered so far on this daemon (ids and resume tokens
    /// count from 1 per boot).
    registrations: u64,
}

fn connect_session(
    socket: &std::path::Path,
    name: &str,
    smt_widths: &[u32],
    points: &Points,
    board: &Arc<RoundBoard>,
    register_round: usize,
    log: &Arc<FrameLog>,
) -> harp_types::Result<(RawFd, Session, Arc<TapStats>)> {
    let stream = UnixStream::connect(socket)?;
    let fd = stream.as_raw_fd();
    let tap = TapTransport::new(
        UnixTransport::from_stream(stream)?,
        board.clone(),
        register_round,
        Some(log.clone()),
    );
    let stats = tap.stats();
    let cfg = SessionConfig::new(name, AdaptivityType::Scalable)
        .with_points(smt_widths.to_vec(), points.clone());
    Ok((fd, HarpSession::connect(tap, cfg)?, stats))
}

/// Applies the residents' activations as they arrive. Parks in epoll; a
/// resident socket turning readable costs one wakeup and one `poll`.
fn drain(
    poller: Poller,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    mut sessions: Vec<(RawFd, Session)>,
) -> Vec<(RawFd, Session)> {
    const WAKER_TOKEN: u64 = u64::MAX;
    let mut events = Events::with_capacity(256);
    while !stop.load(Ordering::SeqCst) {
        if poller
            .wait(&mut events, Some(Duration::from_millis(250)))
            .is_err()
        {
            break;
        }
        for ev in events.iter() {
            if ev.token == WAKER_TOKEN {
                waker.drain();
            } else if let Some((_, s)) = sessions.get_mut(ev.token as usize) {
                // A severed resident (daemon shut down under it) errors
                // here; the end-state oracle reports what that breaks.
                let _ = s.poll(|| 0.0);
            }
        }
    }
    sessions
}

impl Stage {
    /// Boots the daemon and connects the resident population; returns
    /// once every resident has applied the last set-up round's directive.
    fn start(
        p: &DaemonParams,
        inputs: &DaemonInputs,
        hw: &HardwareDescription,
        args: &RunArgs,
        tag: usize,
    ) -> Result<Stage, String> {
        let socket = args.scratch.join(format!("d{tag}.sock"));
        let journal = args.scratch.join(format!("d{tag}.journal"));
        let _ = std::fs::remove_file(&journal);
        let daemon =
            HarpDaemon::start(DaemonConfig::new(&socket, hw.clone()).with_journal(&journal))
                .map_err(|e| format!("daemon start: {e}"))?;
        let board = RoundBoard::new(BOARD_ROUNDS);
        let log = Arc::new(FrameLog::default());
        let mut events = Vec::new();
        let mut sessions = Vec::with_capacity(p.residents);
        let mut round = 0usize;
        for (j, points) in inputs.residents.iter().enumerate() {
            let name = format!("res-{j}");
            let (fd, mut s, stats) = connect_session(
                &socket,
                &name,
                &inputs.smt_widths,
                points,
                &board,
                round,
                &log,
            )
            .map_err(|e| format!("resident {j}: {e}"))?;
            let applied = AtomicUsize::new(round);
            let b = board.clone();
            s.on_allocation(move |_| {
                b.note_applied(applied.fetch_add(1, Ordering::Relaxed), now_ns());
            });
            events.push(Ev::Register {
                id: s.app_id(),
                name,
                token: stats.resume_token(),
            });
            events.push(Ev::Submit {
                id: s.app_id(),
                profile: ProfileRef::Resident(j),
            });
            round += 2;
            // `connect` returns once SubmitPoints is written. The next
            // resident's Register travels another connection, likely on
            // the other shard, and would race this submission to the RM
            // lock; wait for the submit round's activation so the event
            // order stays the one the mirror replays.
            let deadline = Instant::now() + WAIT;
            while stats.activates() < 2 {
                let left = deadline.saturating_duration_since(Instant::now());
                if !matches!(poll_fd(fd, true, false, Some(left)), Ok(true)) {
                    return Err(format!("resident {j}: no activation for its submission"));
                }
                s.poll(|| 0.0).map_err(|e| format!("resident {j}: {e}"))?;
            }
            sessions.push((fd, s));
        }
        let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        let waker = Arc::new(Waker::new(&poller, u64::MAX).map_err(|e| format!("waker: {e}"))?);
        for (j, (fd, _)) in sessions.iter().enumerate() {
            poller
                .register(*fd, j as u64, Interest::READABLE)
                .map_err(|e| format!("register fd: {e}"))?;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let drainer = {
            let (waker, stop) = (waker.clone(), stop.clone());
            std::thread::Builder::new()
                .name("bench-drainer".into())
                .spawn(move || drain(poller, waker, stop, sessions))
                .map_err(|e| format!("spawn drainer: {e}"))?
        };
        let stage = Stage {
            daemon: Some(daemon),
            socket,
            board,
            log,
            drainer: Some(drainer),
            stop,
            waker,
            events,
            next_round: round,
            registrations: p.residents as u64,
        };
        stage.wait_applied(round - 1, p.residents)?;
        Ok(stage)
    }

    /// Blocks until `expected` residents have applied `round`'s directive.
    fn wait_applied(&self, round: usize, expected: usize) -> Result<(), String> {
        let deadline = Instant::now() + WAIT;
        while (self.board.applied(round).0 as usize) < expected {
            if Instant::now() >= deadline {
                return Err(format!(
                    "residents stuck: round {round} applied by {} of {expected}",
                    self.board.applied(round).0
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Stops the drainer and hands the resident sessions back.
    fn stop_drainer(&mut self) -> Vec<(RawFd, Session)> {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.drainer
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    fn shutdown(mut self) {
        let residents = self.stop_drainer();
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
        drop(residents);
    }
}

/// Timestamps of one lifecycle (ns on the benchmark clock; 0 = never).
#[derive(Debug, Clone, Copy, Default)]
struct Life {
    start: u64,
    connected: u64,
    session: u64,
    submit_written: u64,
    activated: u64,
    exit_start: u64,
    exit_written: u64,
    eof: u64,
    end: u64,
    /// The registration's round; the submit round is the next one.
    register_round: usize,
    ok: bool,
}

impl Life {
    fn op_us(&self) -> Option<f64> {
        Some((self.end - self.start) as f64 / 1e3)
    }
    /// `None` for a lifecycle no activation answered.
    fn activate_us(&self) -> Option<f64> {
        (self.activated != 0)
            .then(|| self.activated.saturating_sub(self.submit_written) as f64 / 1e3)
    }
}

struct Client<'a> {
    stage: &'a mut Stage,
    inputs: &'a DaemonInputs,
    expected: Arc<[Vec<u32>]>,
    lifecycles: u64,
    violations: Vec<String>,
}

impl Client<'_> {
    fn violate(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// One full session lifecycle: connect, register, submit, wait for
    /// the activation that answers the submission, exit, wait for EOF.
    fn lifecycle(&mut self) -> Life {
        let k = (self.lifecycles as usize) % self.inputs.client.len();
        self.lifecycles += 1;
        let register_round = self.stage.next_round;
        let mut life = Life {
            start: now_ns(),
            register_round,
            ..Life::default()
        };
        let opened = connect_session(
            &self.stage.socket,
            CLIENT_NAME,
            &self.inputs.smt_widths,
            &self.inputs.client[k],
            &self.stage.board,
            register_round,
            &self.stage.log,
        );
        let (fd, mut s, stats) = match opened {
            Ok(x) => x,
            Err(e) => {
                self.violate(format!(
                    "lifecycle {}: connect failed: {e}",
                    self.lifecycles
                ));
                life.end = now_ns();
                return life;
            }
        };
        life.session = now_ns();
        life.connected = stats.hello_ns();
        // The RM has seen the registration and (about to see) the
        // submission whatever happens next; keep the mirror in step.
        self.stage.registrations += 1;
        let id = s.app_id();
        self.stage.events.push(Ev::Register {
            id,
            name: CLIENT_NAME.to_string(),
            token: stats.resume_token(),
        });
        self.stage.events.push(Ev::Submit {
            id,
            profile: ProfileRef::Client(k),
        });
        self.stage.events.push(Ev::Deregister { id });
        self.stage.next_round += 3;

        let matcher = Arc::new(Mutex::new(ActivationMatcher::new(self.expected.clone())));
        if let Some(a) = s.allocation().current() {
            matcher
                .lock()
                .expect("matcher poisoned")
                .observe(&a.erv_flat, now_ns());
        }
        {
            let m = matcher.clone();
            s.on_allocation(move |a| {
                m.lock()
                    .expect("matcher poisoned")
                    .observe(&a.erv_flat, now_ns());
            });
        }
        let deadline = Instant::now() + WAIT;
        let mut healthy = true;
        loop {
            {
                let m = matcher.lock().expect("matcher poisoned");
                if let Some(t) = m.matched_ns() {
                    life.activated = t;
                    break;
                }
                if m.foreign() > 0 {
                    healthy = false;
                    break;
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match poll_fd(fd, true, false, Some(left)) {
                Ok(true) => {}
                _ => {
                    healthy = false;
                    break;
                }
            }
            if s.poll(|| 0.0).is_err() {
                healthy = false;
                break;
            }
        }
        life.submit_written = stats.submit_written_ns();
        if !healthy {
            let foreign = matcher.lock().expect("matcher poisoned").foreign();
            self.violate(format!(
                "lifecycle {} (app {id}): no activation answered the submission \
                 ({foreign} outside the submitted vectors)",
                self.lifecycles
            ));
        }
        life.exit_start = now_ns();
        // `exit` writes the Exit frame and drops the transport; the tap's
        // drop then reads until the daemon's EOF.
        let exited = s.exit();
        life.end = now_ns();
        life.exit_written = stats.exit_written_ns();
        life.eof = stats.eof_ns();
        let (acks, errors) = stats.acks_errors();
        if exited.is_err() || life.eof == 0 {
            healthy = false;
            self.violate(format!(
                "lifecycle {} (app {id}): no EOF after Exit",
                self.lifecycles
            ));
        }
        if acks != 1 || errors != 0 {
            healthy = false;
            self.violate(format!(
                "lifecycle {} (app {id}): {acks} RegisterAck, {errors} Error frames",
                self.lifecycles
            ));
        }
        if id != self.stage.registrations {
            healthy = false;
            self.violate(format!(
                "lifecycle {}: app id {id}, expected {}",
                self.lifecycles, self.stage.registrations
            ));
        }
        life.ok = healthy;
        life
    }
}

/// One repetition: lifecycles run back to back for a fixed time.
struct Rep {
    ops: u64,
    wall_s: f64,
    counted: Counters,
    /// Index of the first event after this repetition (a mirror mark).
    end_event: usize,
}

struct Phase {
    lives: Vec<Life>,
    reps: Vec<Rep>,
}

fn run_phase(client: &mut Client<'_>, seconds: f64, reps: usize) -> Phase {
    let mut phase = Phase {
        lives: Vec::new(),
        reps: Vec::new(),
    };
    let probe = Probe::calibrate();
    let rep_len = Duration::from_secs_f64(seconds / reps as f64);
    for _ in 0..reps {
        let base = Counters::now();
        let t0 = Instant::now();
        let mut ops = 0u64;
        while ops == 0 || t0.elapsed() < rep_len {
            phase.lives.push(client.lifecycle());
            ops += 1;
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let end = Counters::now();
        phase.reps.push(Rep {
            ops,
            wall_s,
            counted: probe.region(&base, &end),
            end_event: client.stage.events.len(),
        });
    }
    phase
}

impl Phase {
    fn ops(&self) -> u64 {
        self.reps.iter().map(|r| r.ops).sum()
    }
    /// One latency of every lifecycle that has it, per repetition.
    fn by_rep(&self, f: impl Fn(&Life) -> Option<f64>) -> Vec<Vec<f64>> {
        let mut rest = &self.lives[..];
        self.reps
            .iter()
            .map(|r| {
                let (head, tail) = rest.split_at(r.ops as usize);
                rest = tail;
                head.iter().filter_map(&f).collect()
            })
            .collect()
    }
    /// Operations per second of each repetition.
    fn rates(&self) -> stats::Reps {
        stats::reps(
            &self
                .reps
                .iter()
                .map(|r| r.ops as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    }
    fn per_op(&self, f: impl Fn(&Counters) -> u64) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| f(&r.counted) as f64 / r.ops as f64)
            .collect()
    }
}

fn span_us(lives: &[Life], f: impl Fn(&Life) -> (u64, u64)) -> f64 {
    let v: Vec<f64> = lives
        .iter()
        .map(&f)
        .filter(|(a, b)| *a != 0 && *b >= *a)
        .map(|(a, b)| (b - a) as f64 / 1e3)
        .collect();
    summarize(&v).p50
}

/// RM-free round trips: a registered connection sends a second `Register`
/// and times the `ERR_DUPLICATE_REGISTER` reply. The probe session's own
/// register and deregister rounds go through the tap and the event log
/// like any other.
fn norm_rtt_probe(stage: &mut Stage, round_trips: usize) -> Result<Vec<f64>, String> {
    let err = |e| format!("norm-rtt probe: {e}");
    let stream = UnixStream::connect(&stage.socket).map_err(|e| format!("norm-rtt probe: {e}"))?;
    let mut tap = TapTransport::new(
        UnixTransport::from_stream(stream).map_err(err)?,
        stage.board.clone(),
        stage.next_round,
        Some(stage.log.clone()),
    );
    let stats = tap.stats();
    let reg = Message::Register(Register {
        pid: 0,
        app_name: "probe".into(),
        adaptivity: AdaptivityType::Scalable,
        provides_utility: false,
    });
    tap.send(&reg).map_err(err)?;
    // The ack, then the register round's activation.
    while stats.acks_errors().0 == 0 || stats.activates() == 0 {
        tap.recv().map_err(err)?;
    }
    let id = stats.app_id();
    stage.registrations += 1;
    stage.events.push(Ev::Register {
        id,
        name: "probe".into(),
        token: stats.resume_token(),
    });
    stage.events.push(Ev::Deregister { id });
    stage.next_round += 2;
    let mut rtts = Vec::with_capacity(round_trips);
    for _ in 0..round_trips {
        let t = Instant::now();
        tap.send(&reg).map_err(err)?;
        match tap.recv().map_err(err)? {
            Message::Error(e) if e.code == ERR_DUPLICATE_REGISTER => {}
            other => return Err(format!("norm-rtt probe: unexpected reply {other:?}")),
        }
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    tap.send(&Message::Exit { app_id: id }).map_err(err)?;
    drop(tap); // reads to EOF
    Ok(rtts)
}

pub fn run(p: &DaemonParams, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let hw = HardwareDescription::raptor_lake();
    let inputs = daemon_inputs(args.seed, &hw, p.residents, p.kind);

    // Set-up, several times over: the median is reported and the last
    // stage is the one measured on.
    let mut setup_s = Vec::new();
    let mut stage = None;
    let mut tag = 0;
    while args.another_setup(setup_s.len(), setup_s.iter().sum()) {
        tag += 1;
        if let Some(prev) = stage.take() {
            Stage::shutdown(prev);
        }
        let t = Instant::now();
        match Stage::start(p, &inputs, &hw, args, tag) {
            Ok(s) => stage = Some(s),
            Err(e) => {
                out.violations.push(format!("set-up: {e}"));
                out.attempted = 1;
                out.failed = 1;
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");

    let shape = hw.erv_shape();
    let mut expected: Vec<Vec<u32>> = inputs.client[0].iter().map(|(e, _)| e.flat()).collect();
    if p.oversubscribed {
        let envelope = ExtResourceVector::full_smt(&shape, hw.capacity().counts())
            .expect("capacity matches the shape");
        expected.push(envelope.flat());
    }
    let mut client = Client {
        stage: &mut stage,
        inputs: &inputs,
        expected: expected.into(),
        lifecycles: 0,
        violations: Vec::new(),
    };

    // Unmeasured warm-up: a tenth of the run.
    let warm = run_phase(&mut client, args.seconds * 0.1, 1);
    let measured_from = client.stage.events.len();

    // A traced run measures a plain phase first (the reference the
    // tracing overhead is taken against), then the traced phase every
    // per-layer number comes from.
    let (plain_s, traced_s) = if args.trace {
        (args.seconds * 0.4, args.seconds * 0.6)
    } else {
        (args.seconds, 0.0)
    };
    let plain = run_phase(&mut client, plain_s, 5);
    let metrics_base = harp_obs::metrics::snapshot();
    let frames_base = client.stage.log.frames();
    let traced = args.trace.then(|| {
        client.stage.log.set_sampling(true);
        crate::counted::count_allocs(true);
        let ph = layers::with_obs(|| run_phase(&mut client, traced_s, 5));
        crate::counted::count_allocs(false);
        client.stage.log.set_sampling(false);
        ph
    });
    let metrics_delta = harp_obs::metrics::snapshot().delta_since(&metrics_base);
    let frames_traced = client.stage.log.frames() - frames_base;
    let mut violations = std::mem::take(&mut client.violations);
    drop(client);

    let norm_rtt = if args.trace {
        match norm_rtt_probe(&mut stage, 400) {
            Ok(v) => v,
            Err(e) => {
                violations.push(e);
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };

    // End state: every resident has applied the last round, and the
    // daemon manages exactly the resident population again.
    if let Err(e) = stage.wait_applied(stage.next_round - 1, p.residents) {
        violations.push(e);
    }
    let managed = stage.daemon.as_ref().map_or(0, |d| d.managed_apps().len());
    if managed != p.residents {
        violations.push(format!(
            "daemon manages {managed} sessions at the end, expected the {} residents",
            p.residents
        ));
    }
    if stage.board.overflowed() {
        violations.push("round board overflowed: run too long for BOARD_ROUNDS".into());
    }

    let mut residents = stage.stop_drainer();
    let poll_idle_ns = if args.trace {
        residents.first_mut().map_or(0.0, |(_, s)| {
            let n = 2000;
            let t = Instant::now();
            for _ in 0..n {
                let _ = std::hint::black_box(s.poll(|| 0.0));
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
    } else {
        0.0
    };
    let dump = args.trace.then(|| harp_obs::dump_global(false));
    if let Some(d) = stage.daemon.take() {
        d.shutdown();
    }
    drop(residents);

    // The mirror: the same events through a second RmCore.
    let marks: Vec<usize> = plain.reps.iter().map(|r| r.end_event).collect();
    let mirror = mirror::replay(
        &hw,
        &stage.events,
        &inputs,
        &stage.board,
        &args.scratch.join("mirror.journal"),
        measured_from,
        &marks,
        p.oversubscribed,
        args.trace.then_some(&mut out.layers),
    );
    violations.extend(mirror.violations.iter().cloned());

    // ---- end-to-end ----
    let ops = plain.ops();
    let failed = plain.lives.iter().filter(|l| !l.ok).count() as u64 + mirror.bad_rounds.min(ops);
    out.attempted = ops;
    out.failed = failed.min(ops);
    let (op_reps, act_reps) = (plain.by_rep(Life::op_us), plain.by_rep(Life::activate_us));
    let op = summarize(&op_reps.concat());
    let act = summarize(&act_reps.concat());
    let (op_tail, op_tail_q) = stats::tail_over_reps(&op_reps);
    let (act_tail, _) = stats::tail_over_reps(&act_reps);
    let rate = plain.rates();
    let cpu = stats::reps(&plain.per_op(|c| c.cpu_ns / 1000));
    let e = &mut out.e2e;
    e.set("setup_s", stats::reps(&setup_s).median);
    e.set("ops_per_s", rate.median);
    e.set("op_p50_us", op.p50);
    e.set("op_p99_us", op_tail);
    e.set("activate_p50_us", act.p50);
    e.set("activate_p99_us", act_tail);
    e.set("cpu_us_per_op", cpu.median);
    e.set("peak_rss_mb", crate::counted::peak_rss_mb());
    e.set(
        "alloc_cost_x",
        if p.oversubscribed {
            1.0
        } else {
            mirror.cost_ratio
        },
    );
    out.notes.push(format!(
        "{} lifecycles measured in 5 repetitions ({} warm-up); tails are the median repetition's, \
         read at p{:.1}",
        ops,
        warm.ops(),
        op_tail_q * 100.0
    ));
    out.notes.push(format!(
        "ops_per_s median {:.1} (min {:.1}, max {:.1}); cpu_us_per_op median {:.1} (min {:.1}, max {:.1})",
        rate.median, rate.min, rate.max, cpu.median, cpu.min, cpu.max
    ));
    out.notes.push(format!(
        "mirror: {} rounds replayed, {} mismatched, state size at repetition ends {:?}",
        mirror.rounds, mirror.bad_rounds, mirror.mark_state_lines
    ));

    // ---- per-layer ----
    if let Some(tr) = &traced {
        let l = &mut out.layers;
        let tops = tr.ops() as f64;
        let top = summarize(&tr.by_rep(Life::op_us).concat());
        let tact = summarize(&tr.by_rep(Life::activate_us).concat());
        let connect = span_us(&tr.lives, |x| (x.start, x.connected));
        let lib_connect = span_us(&tr.lives, |x| (x.connected, x.session));
        let lib_exit = span_us(&tr.lives, |x| (x.exit_start, x.exit_written));
        let exit_eof = span_us(&tr.lives, |x| (x.exit_written, x.eof));
        let fanout: Vec<f64> = tr
            .lives
            .iter()
            .filter(|x| x.submit_written != 0)
            .filter_map(|x| {
                let (n, at) = stage.board.applied(x.register_round + 1);
                (n as usize == p.residents && at >= x.submit_written)
                    .then(|| (at - x.submit_written) as f64 / 1e3)
            })
            .collect();
        l.set("daemon.connect_p50_us", connect);
        l.set("libharp.connect_p50_us", lib_connect);
        l.set("libharp.exit_p50_us", lib_exit);
        l.set("daemon.exit_to_eof_p50_us", exit_eof);
        l.set("daemon.fanout_tail_p50_us", summarize(&fanout).p50);
        l.set("daemon.norm_rtt_p50_us", summarize(&norm_rtt).p50);
        l.set("libharp.poll_idle_ns", poll_idle_ns);
        let shard_sum = |what: &str| -> u64 {
            (0..8)
                .map(|i| metrics_delta.counter(&format!("daemon.shard{i}.{what}")))
                .sum()
        };
        l.set("daemon.frames_per_op", shard_sum("frames") as f64 / tops);
        l.set(
            "daemon.flush_calls_per_op",
            shard_sum("flushes") as f64 / tops,
        );
        l.set("daemon.hangups", shard_sum("hangups") as f64);
        l.set(
            "daemon.err_replies",
            metrics_delta.counter("daemon.err_replies") as f64,
        );
        l.set(
            "daemon.dead_stream_pruned",
            metrics_delta.counter("daemon.dead_stream_pruned") as f64,
        );
        let per = |f: fn(&Counters) -> u64| stats::reps(&tr.per_op(f));
        let reads = per(|c| c.read_syscalls);
        let writes = per(|c| c.write_syscalls);
        let ctx = per(|c| c.ctx_switches);
        let allocs = per(|c| c.allocs);
        l.set("daemon.read_syscalls_per_op", reads.median);
        l.set("daemon.write_syscalls_per_op", writes.median);
        l.set("daemon.ctx_switches_per_op", ctx.median);
        l.set("daemon.allocs_per_op", allocs.median);
        let exact = |name: &str, r: &stats::Reps| {
            if r.min == r.max {
                format!("{name} repeated exactly")
            } else {
                format!("{name} varied {:.2}..{:.2}", r.min, r.max)
            }
        };
        out.notes.push(format!(
            "counts per op over the 5 traced repetitions: {}; {}; {}; {}",
            exact("reads", &reads),
            exact("writes", &writes),
            exact("ctx switches", &ctx),
            exact("allocations", &allocs)
        ));
        l.set("proto.frames_per_op", frames_traced as f64 / tops);
        layers::proto_replay(l, &stage.log.take_sample(), frames_traced as f64 / tops);
        layers::libharp_apply(l);
        mirror.fill_layers(l);
        l.set("obs.traced_overhead_pct", (top.p50 / op.p50 - 1.0) * 100.0);
        if let Some(dump) = &dump {
            layers::harvest_obs(l, dump, tops);
        }
        l.set("bench.repeat_spread_pct", tr.rates().spread_pct());
        let tiled = connect + lib_connect + tact.p50 + lib_exit + exit_eof;
        // The lifecycle span's self time is what no layer span covers.
        let spans = lifecycle_spans(&tr.lives);
        let residual_us = spans
            .self_us_p50()
            .get("op.lifecycle")
            .copied()
            .unwrap_or(0.0);
        l.set("bench.residual_pct", residual_us / top.p50 * 100.0);
        out.notes.push(format!(
            "traced op_p50 {:.1} us = connect {:.1} + register+submit {:.1} + submit->activate {:.1} \
             + exit {:.1} + exit->EOF {:.1} + residual {:.1}; of which mirror rm.* = register {:.1} \
             + submit {:.1} + deregister {:.1}",
            top.p50,
            connect,
            lib_connect,
            tact.p50,
            lib_exit,
            exit_eof,
            top.p50 - tiled,
            mirror.register_us.p50,
            mirror.submit_us.p50,
            mirror.deregister_us.p50
        ));
        // ISSUE acceptance: the activation latency is a real allocation
        // round, not a buffered read.
        let floor = summarize(&norm_rtt).p50 + mirror.submit_us.p50;
        if act.p50 < floor {
            violations.push(format!(
                "activate_p50_us {:.1} below norm_rtt + rm.submit_points = {floor:.1}: \
                 the matched activation cannot be the submit round's",
                act.p50
            ));
        }
        let tables: Vec<Points> = inputs
            .residents
            .iter()
            .cloned()
            .chain(std::iter::once(inputs.client[0].clone()))
            .collect();
        layers::micro(l, &hw, &tables, args);
        let path = args.out_dir.join(format!("trace-{}.jsonl", p.name));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    out.violations = violations;
    out
}

/// The traced phase's lifecycles as benchmark-side spans, one tree per op.
fn lifecycle_spans(lives: &[Life]) -> Spans {
    let mut spans = Spans::new(200_000);
    for (i, x) in lives.iter().enumerate() {
        let op = i as u64;
        let root = spans.push("op.lifecycle", x.start, x.end, 0, op);
        let mut child = |name, a: u64, b: u64| {
            if a != 0 && b >= a {
                spans.push(name, a, b, root, op);
            }
        };
        child("daemon.connect", x.start, x.connected);
        child("libharp.connect", x.connected, x.session);
        child("wait.activation", x.submit_written, x.activated);
        child("libharp.exit", x.exit_start, x.exit_written);
        child("daemon.exit_to_eof", x.exit_written, x.eof);
    }
    spans
}

//! The mirror: a second `RmCore`, outside the daemon, fed the identical
//! event sequence. One closed-loop client makes the daemon's event order
//! deterministic, so the mirror's directives must equal the wire's bit
//! for bit, and timing its public calls prices the `rm` layer without
//! touching the daemon.

use crate::inputs::{profile_cost, profile_floor, DaemonInputs, Points};
use crate::spec::Values;
use crate::stats::{summarize, Summary};
use crate::tap::{directive_hash, RoundBoard};
use harp_platform::HardwareDescription;
use harp_rm::{JournalRecord, JournalWriter, RmConfig, RmCore, RmOutput};
use harp_types::AppId;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Which of the benchmark's profiles a session submitted.
#[derive(Debug, Clone, Copy)]
pub enum ProfileRef {
    Resident(usize),
    Client(usize),
}

/// One event that reached the daemon's RM.
#[derive(Debug, Clone)]
pub enum Ev {
    Register { id: u64, name: String, token: u64 },
    Submit { id: u64, profile: ProfileRef },
    Deregister { id: u64 },
}

#[derive(Debug, Default)]
pub struct MirrorReport {
    pub violations: Vec<String>,
    /// Rounds replayed (every event is one allocation round).
    pub rounds: u64,
    /// Rounds whose wire directives differ from the mirror's, or whose
    /// core grants overlap on a workload that must not co-allocate.
    pub bad_rounds: u64,
    /// Geometric mean, over every (session, round) priced, of the granted
    /// point's cost over the session's cheapest point's.
    pub cost_ratio: f64,
    /// Lines of the state fingerprint at each mark: equal sizes mean the
    /// population returned to the same shape (nothing leaked).
    pub mark_state_lines: Vec<usize>,
    pub register_us: Summary,
    pub submit_us: Summary,
    pub deregister_us: Summary,
    solves: u64,
    solve_work: f64,
    directives: u64,
    coalloc_rounds: u64,
    degraded: u64,
    measured_rounds: u64,
    measured_ops: u64,
    warm: (u64, u64, u64),
}

fn points_of(inputs: &DaemonInputs, p: ProfileRef) -> &Points {
    match p {
        ProfileRef::Resident(j) => &inputs.residents[j],
        ProfileRef::Client(k) => &inputs.client[k],
    }
}

fn directive_hash_sum(out: &RmOutput) -> u64 {
    out.directives
        .iter()
        .fold(0u64, |acc, d| acc.wrapping_add(directive_hash(d)))
}

/// Whether any core is granted to two sessions in one round.
fn grants_overlap(out: &RmOutput, num_cores: usize) -> bool {
    let mut taken = vec![false; num_cores];
    for d in &out.directives {
        for c in &d.cores {
            if std::mem::replace(&mut taken[c.0], true) {
                return true;
            }
        }
    }
    false
}

/// Replays `events` through a fresh offline-mode `RmCore` with its own
/// journal, checking every round against the wire and pricing the calls.
///
/// `measured_from` is the first event of the measured phase (timings and
/// counts cover events from there on; the oracle covers all of them);
/// `marks` are event indices at which the state size is recorded. Given
/// `deep`, the journal is read back and recovered too, and the `rm`
/// journal metrics are set in it (traced runs).
#[allow(clippy::too_many_arguments)]
pub fn replay(
    hw: &HardwareDescription,
    events: &[Ev],
    inputs: &DaemonInputs,
    board: &RoundBoard,
    journal_path: &Path,
    measured_from: usize,
    marks: &[usize],
    oversubscribed: bool,
    deep: Option<&mut Values>,
) -> MirrorReport {
    let mut rep = MirrorReport::default();
    let cfg = RmConfig {
        offline: true,
        ..RmConfig::default()
    };
    let mut rm = RmCore::new(hw.clone(), cfg.clone());
    let _ = std::fs::remove_file(journal_path);
    // The daemon's boot writes the epoch record before attaching; the
    // mirror keeps its full history (no compaction) so that recovery is
    // bit-identical to the live state.
    match JournalWriter::open(journal_path) {
        Ok(mut w) => {
            let _ = w.append(&JournalRecord::EpochBump { epoch: 1 });
            rm.attach_journal(w, 0);
        }
        Err(e) => rep
            .violations
            .push(format!("mirror journal {}: {e}", journal_path.display())),
    }

    let mut profile_of: HashMap<u64, ProfileRef> = HashMap::new();
    let (mut reg, mut sub, mut dereg) = (Vec::new(), Vec::new(), Vec::new());
    let (mut log_ratio_sum, mut ratio_n) = (0.0f64, 0u64);
    for (round, ev) in events.iter().enumerate() {
        if marks.contains(&round) {
            rep.mark_state_lines
                .push(rm.state_fingerprint().lines().count());
        }
        let t = Instant::now();
        let result = match ev {
            Ev::Register { id, name, token } => {
                rm.register_resumable(AppId(*id), name, false, *token)
            }
            Ev::Submit { id, profile } => {
                profile_of.insert(*id, *profile);
                rm.submit_points(AppId(*id), points_of(inputs, *profile).clone())
            }
            Ev::Deregister { id } => {
                profile_of.remove(id);
                rm.deregister(AppId(*id))
            }
        };
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        let out = match result {
            Ok(o) => o,
            Err(e) => {
                rep.bad_rounds += 1;
                if rep.violations.len() < 10 {
                    rep.violations
                        .push(format!("mirror round {round} ({ev:?}) rejected: {e}"));
                }
                continue;
            }
        };
        rep.rounds += 1;

        // Oracle: the wire carried exactly these directives.
        let (wire_sum, wire_n) = board.received(round);
        let overlap = grants_overlap(&out, hw.num_cores());
        let mut bad =
            wire_sum != directive_hash_sum(&out) || wire_n as usize != out.directives.len();
        if bad && rep.violations.len() < 10 {
            rep.violations.push(format!(
                "round {round} ({ev:?}): wire carried {wire_n} directives, mirror {} \
                 (hash sums {wire_sum:016x} vs {:016x})",
                out.directives.len(),
                directive_hash_sum(&out)
            ));
        }
        // A registration round may co-allocate: a session that has not
        // submitted yet holds the whole machine provisionally.
        if overlap && !oversubscribed && !matches!(ev, Ev::Register { .. }) {
            bad = true;
            if rep.violations.len() < 10 {
                rep.violations.push(format!(
                    "round {round}: core grants overlap between sessions"
                ));
            }
        }
        rep.bad_rounds += u64::from(bad);

        if round < measured_from {
            continue;
        }
        rep.measured_rounds += 1;
        match ev {
            Ev::Register { .. } => reg.push(us),
            Ev::Submit { .. } => sub.push(us),
            Ev::Deregister { .. } => {
                dereg.push(us);
                rep.measured_ops += 1;
            }
        }
        rep.solves += u64::from(out.solves);
        rep.solve_work += out.solve_work;
        rep.directives += out.directives.len() as u64;
        rep.coalloc_rounds += u64::from(overlap);
        rep.degraded += u64::from(out.degraded);

        // Quality: granted cost over the floor, on rounds where every
        // session's table is exactly the profile it submitted (a register
        // round still sees the previous instance's stored profile).
        if !matches!(ev, Ev::Register { .. }) && !overlap {
            for d in &out.directives {
                let Some(p) = profile_of.get(&d.app.raw()) else {
                    continue;
                };
                let points = points_of(inputs, *p);
                if let Some(c) = profile_cost(points, &d.erv.flat()) {
                    log_ratio_sum += (c / profile_floor(points)).ln();
                    ratio_n += 1;
                }
            }
        }
    }
    if marks.contains(&events.len()) {
        rep.mark_state_lines
            .push(rm.state_fingerprint().lines().count());
    }
    rep.cost_ratio = if ratio_n > 0 {
        (log_ratio_sum / ratio_n as f64).exp()
    } else {
        1.0
    };
    rep.register_us = summarize(&reg);
    rep.submit_us = summarize(&sub);
    rep.deregister_us = summarize(&dereg);
    rep.warm = (
        rm.warm_start().memo_hits(),
        rm.warm_start().certified_exits(),
        rm.warm_start().full_solves(),
    );
    if rep.mark_state_lines.windows(2).any(|w| w[0] != w[1]) {
        rep.violations.push(format!(
            "state size differs between repetition ends: {:?}",
            rep.mark_state_lines
        ));
    }

    let live_fingerprint = rm.state_fingerprint();
    drop(rm.detach_journal());
    if let Some(l) = deep {
        // The journal holds every round since boot; per-op figures scale
        // the measured operations up by the measured share of the rounds.
        let covered_ops =
            rep.measured_ops as f64 * rep.rounds as f64 / rep.measured_rounds.max(1) as f64;
        match crate::layers::journal_io(l, journal_path, covered_ops) {
            Some(records) => {
                let t = Instant::now();
                match RmCore::recover(hw.clone(), cfg, &records) {
                    Ok(recovered) => {
                        l.set("rm.recover_ms", t.elapsed().as_secs_f64() * 1e3);
                        if recovered.state_fingerprint() != live_fingerprint {
                            rep.violations.push(
                                "RmCore::recover of the final journal fingerprints differently \
                                 from the live core"
                                    .into(),
                            );
                        }
                    }
                    Err(e) => rep.violations.push(format!("RmCore::recover failed: {e}")),
                }
            }
            None => rep
                .violations
                .push("the mirror's journal does not read back".into()),
        }
    }
    let _ = std::fs::remove_file(journal_path);
    rep
}

impl MirrorReport {
    pub fn fill_layers(&self, l: &mut Values) {
        let ops = self.measured_ops.max(1) as f64;
        l.set("rm.register_p50_us", self.register_us.p50);
        l.set("rm.submit_points_p50_us", self.submit_us.p50);
        l.set("rm.deregister_p50_us", self.deregister_us.p50);
        l.set("rm.solves_per_op", self.solves as f64 / ops);
        l.set("rm.solve_work_per_op", self.solve_work / ops);
        l.set("rm.directives_per_op", self.directives as f64 / ops);
        l.set("rm.degraded_rounds", self.degraded as f64);
        l.set(
            "rm.coalloc_share",
            self.coalloc_rounds as f64 / self.measured_rounds.max(1) as f64,
        );
        let (memo, cert, full) = self.warm;
        crate::layers::warm_shares(l, memo, cert, full);
    }
}

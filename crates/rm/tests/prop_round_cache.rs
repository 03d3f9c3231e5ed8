//! Coherence and cost of the state [`RmCore`] keeps between allocation
//! rounds.
//!
//! A round pays only for what changed: every session keeps its allocation
//! request until its table or priority moves, and a session that runs its
//! selected point takes its activation straight from the solver's choice.
//! Under any operation sequence the kept state must equal what a round
//! that rebuilt everything would compute, and the rebuild counter must
//! show that unchanged sessions cost nothing.

use harp_platform::presets;
use harp_rm::journal::read_journal;
use harp_rm::{AppObservation, JournalWriter, RmConfig, RmCore, TickObservations};
use harp_types::{AppId, CoreId, ExtResourceVector, FaultEvent, NonFunctional};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const OP_REGISTER: u8 = 0;
const OP_SUBMIT: u8 = 1;
const OP_SET_PRIORITY: u8 = 2;
const OP_TICK: u8 = 3;
const OP_TICK_BURST: u8 = 4;
const OP_FAULT: u8 = 5;
const OP_DEREGISTER: u8 = 6;
const OP_RECOVER: u8 = 7;

static NEXT_JOURNAL: AtomicU64 = AtomicU64::new(0);

fn temp_journal() -> PathBuf {
    let n = NEXT_JOURNAL.fetch_add(1, Ordering::SeqCst);
    let path = std::env::temp_dir().join(format!(
        "harp-prop-round-cache-{}-{n}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Short campaigns and early stability, so a few dozen ticks take a
/// session through completed campaigns, refits, the stable stage, ambient
/// updates and the periodic stable re-evaluation.
fn fast_learning() -> RmConfig {
    let mut cfg = RmConfig::default();
    cfg.exploration.initial_threshold = 2;
    cfg.exploration.stable_threshold = 4;
    cfg.exploration.measurements_per_point = 2;
    cfg.exploration.stable_realloc_every = 3;
    cfg
}

/// A profile of `n` points whose values depend on `salt`, so repeated
/// submissions move the table.
fn points(n: u32, salt: u64) -> Vec<(ExtResourceVector, NonFunctional)> {
    let shape = presets::raptor_lake().erv_shape();
    (1..=n)
        .map(|i| {
            let flat = if i % 2 == 0 { [0, i, 0] } else { [0, 0, i] };
            let s = (salt % 17) as f64;
            (
                ExtResourceVector::from_flat(&shape, &flat).unwrap(),
                NonFunctional::new(1.0e10 * f64::from(i) + 1.0e8 * s, 4.0 * f64::from(i) + s),
            )
        })
        .collect()
}

/// Drives ticks for the live set with utility and energy that vary per
/// step, so samples, ambient updates and attributed power all move.
struct Clock {
    energy: f64,
    cpu: f64,
}

impl Clock {
    fn tick(&mut self, rm: &mut RmCore, live: &BTreeSet<u64>, step: u64) {
        self.energy += 1.0 + (step % 7) as f64 * 0.25;
        self.cpu += 0.05;
        let apps = live
            .iter()
            .map(|&a| AppObservation {
                app: AppId(a),
                utility_rate: 1.0e9 * (1.0 + a as f64) + 1.0e7 * (step % 11) as f64,
                cpu_time: vec![self.cpu, self.cpu * 0.5],
            })
            .collect();
        rm.tick(&TickObservations {
            dt_s: 0.05,
            package_energy_j: self.energy,
            apps,
        })
        .expect("tick succeeds");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every operation — lifecycle, priority, learning ticks, faults
    /// and recoveries, a journal recovery mid-sequence — the requests and
    /// activations kept between rounds equal recomputed ones.
    #[test]
    fn kept_round_state_equals_recomputation(
        ops in proptest::collection::vec((0u8..=7, 1u64..=5), 1..48)
    ) {
        let hw = presets::raptor_lake();
        let cfg = fast_learning();
        let path = temp_journal();
        let mut rm = RmCore::new(hw.clone(), cfg.clone());
        rm.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let mut clock = Clock { energy: 0.0, cpu: 0.0 };

        for (step, &(op, app)) in ops.iter().enumerate() {
            let step = step as u64;
            match op {
                OP_REGISTER => {
                    if rm.register(AppId(app), &format!("app-{app}"), false).is_ok() {
                        live.insert(app);
                    }
                }
                OP_SUBMIT => {
                    let _ = rm.submit_points(AppId(app), points(2 + (step % 5) as u32, step + app));
                }
                OP_SET_PRIORITY => {
                    let _ = rm.set_priority(AppId(app), 0.5 + ((step + app) % 4) as f64);
                }
                OP_TICK => clock.tick(&mut rm, &live, step),
                OP_TICK_BURST => {
                    for i in 0..6 {
                        clock.tick(&mut rm, &live, step + i);
                        let violations = rm.round_cache_violations();
                        prop_assert!(violations.is_empty(), "step {step} tick {i}: {violations:?}");
                    }
                }
                OP_FAULT => {
                    let core = CoreId((app as usize * 3 + step as usize) % hw.num_cores());
                    let ev = match (app + step) % 4 {
                        0 | 1 => FaultEvent::CoreFail { core },
                        2 => FaultEvent::CoreRecover { core },
                        _ => FaultEvent::ThermalCap { cluster: (app % 2) as u32, permille: 600 },
                    };
                    let _ = rm.inject_fault(&ev);
                }
                OP_DEREGISTER => {
                    if rm.deregister(AppId(app)).is_ok() {
                        live.remove(&app);
                    }
                }
                OP_RECOVER => {
                    drop(rm.detach_journal());
                    let outcome = read_journal(&path).expect("journal readable");
                    let recovered = RmCore::recover(hw.clone(), cfg.clone(), &outcome.records)
                        .expect("recovery succeeds");
                    prop_assert_eq!(recovered.state_fingerprint(), rm.state_fingerprint());
                    rm = recovered;
                    rm.attach_journal(JournalWriter::open(&path).unwrap(), 0);
                }
                _ => unreachable!(),
            }
            let violations = rm.round_cache_violations();
            prop_assert!(violations.is_empty(), "step {step} op {op}: {violations:?}");
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Counted work: with N residents that do not change, a round rebuilds the
/// option set of the session the operation touched and no other.
#[test]
fn a_round_rebuilds_only_the_option_sets_that_changed() {
    let cfg = RmConfig {
        offline: true,
        ..RmConfig::default()
    };
    let mut rm = RmCore::new(presets::raptor_lake(), cfg);
    for app in 1..=20u64 {
        rm.register(AppId(app), &format!("resident-{app}"), false)
            .unwrap();
        rm.submit_points(AppId(app), points(12, app)).unwrap();
    }
    let base = rm.option_sets_rebuilt();

    // An arrival: 21 sessions in the round, one option set built.
    rm.register(AppId(99), "newcomer", false).unwrap();
    assert_eq!(rm.option_sets_rebuilt(), base + 1);
    // Its points arrive: its table moved, nobody else's did.
    rm.submit_points(AppId(99), points(12, 99)).unwrap();
    assert_eq!(rm.option_sets_rebuilt(), base + 2);
    // A priority change re-costs that one session.
    rm.set_priority(AppId(3), 2.0).unwrap();
    assert_eq!(rm.option_sets_rebuilt(), base + 3);
    // Capacity loss and return re-solve over the kept requests: the
    // shrunk-capacity filter is a view, not a rebuild.
    rm.inject_fault(&FaultEvent::CoreFail { core: CoreId(0) })
        .unwrap();
    rm.inject_fault(&FaultEvent::CoreRecover { core: CoreId(0) })
        .unwrap();
    assert_eq!(rm.option_sets_rebuilt(), base + 3);
    // Departures rebuild nothing.
    rm.deregister(AppId(99)).unwrap();
    rm.deregister(AppId(1)).unwrap();
    assert_eq!(rm.option_sets_rebuilt(), base + 3);
    assert_eq!(rm.round_cache_violations(), Vec::<String>::new());
}

//! Seeded input generation. Everything a workload feeds the stack —
//! operating-point profiles, traces, fault schedules, observation noise —
//! is made here from `--seed`; the stack only ever sees the result.
//!
//! The seed perturbs values (utilities, powers, orders, times) around
//! fixed shapes, never the shapes themselves, so two seeds give two
//! instances of the same problem class and metrics stay comparable.

use harp_platform::HardwareDescription;
use harp_sim::SECOND;
use harp_types::{
    energy_utility_cost, CoreId, ErvShape, ExtResourceVector, FaultEvent, NonFunctional,
};
use harp_workload::{generate_trace, Template, Trace, TraceGenConfig, TraceShape};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Operating points as libharp submits them.
pub type Points = Vec<(ExtResourceVector, NonFunctional)>;

/// An application's performance/power behaviour over resource vectors on
/// `raptor_lake()`: the ground truth profiles are sampled from and the
/// online workload's observations are computed with.
#[derive(Debug, Clone, Copy)]
pub struct Truth {
    /// Utility of one P-core hardware thread running alone (work/s).
    pub base: f64,
    /// E-core thread throughput relative to a P-core thread.
    pub e_rel: f64,
    /// Throughput a second SMT sibling adds to a P core.
    pub smt_gain: f64,
    /// Scaling exponent over aggregate thread capacity (1 = linear).
    pub scale: f64,
    /// Aggregate capacity beyond which nothing is gained (memory-bound
    /// and convoying applications); `f64::INFINITY` for none.
    pub cap: f64,
}

impl Truth {
    fn capacity(&self, flat: &[u32]) -> f64 {
        let (p1, p2, e) = (flat[0] as f64, flat[1] as f64, flat[2] as f64);
        (p1 + p2 * (1.0 + self.smt_gain) + e * self.e_rel).min(self.cap)
    }

    pub fn utility(&self, flat: &[u32]) -> f64 {
        self.base * self.capacity(flat).powf(self.scale)
    }

    /// Package power attributable to the application on `raptor_lake()`
    /// (active minus idle core power, from the preset's parameters).
    pub fn power(&self, flat: &[u32]) -> f64 {
        let (p1, p2, e) = (flat[0] as f64, flat[1] as f64, flat[2] as f64);
        p1 * 7.3 + p2 * 7.3 * 1.22 + e * 1.8
    }

    pub fn nfc(&self, flat: &[u32]) -> NonFunctional {
        NonFunctional::new(self.utility(flat), self.power(flat))
    }
}

fn jitter(rng: &mut ChaCha8Rng, rel: f64) -> f64 {
    1.0 + rel * (rng.random_range(0..2001u64) as f64 / 1000.0 - 1.0)
}

/// A seeded behaviour drawn around a generic scalable application.
fn draw_truth(rng: &mut ChaCha8Rng) -> Truth {
    Truth {
        base: 9.0e9 * jitter(rng, 0.15),
        e_rel: 0.55 * jitter(rng, 0.10),
        smt_gain: 0.30 * jitter(rng, 0.20),
        scale: 0.80 * jitter(rng, 0.12),
        cap: f64::INFINITY,
    }
}

fn erv(shape: &ErvShape, flat: &[u32]) -> ExtResourceVector {
    ExtResourceVector::from_flat(shape, flat).expect("benchmark ERVs match the raptor_lake shape")
}

/// Samples `truth` at `flats` with ±`noise` measurement noise per value.
fn sample(
    rng: &mut ChaCha8Rng,
    shape: &ErvShape,
    truth: &Truth,
    flats: &[[u32; 3]],
    noise: f64,
) -> Points {
    flats
        .iter()
        .map(|f| {
            let nfc = truth.nfc(f);
            (
                erv(shape, f),
                NonFunctional::new(
                    nfc.utility * jitter(rng, noise),
                    nfc.power * jitter(rng, noise),
                ),
            )
        })
        .collect()
}

/// Which profile family a daemon workload's sessions submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileKind {
    /// 4 small points: every session's best point fits beside the others,
    /// so the MMKP is trivial.
    Small4,
    /// 12 points from one core to half the machine, always including the
    /// two 1-core options, so 21 sessions are contended but feasible on
    /// 8 P + 16 E.
    Wide12,
    /// The storm profile: 4 P cores or 8 E cores, nothing smaller.
    /// Infeasible for more than four sessions, which takes the
    /// co-allocation path.
    Storm2,
}

const SMALL: [[u32; 3]; 8] = [
    [1, 0, 0],
    [0, 1, 0],
    [0, 2, 0],
    [0, 0, 1],
    [0, 0, 2],
    [0, 0, 4],
    [0, 1, 2],
    [1, 0, 2],
];

const ONE_CORE: [[u32; 3]; 2] = [[1, 0, 0], [0, 0, 1]];

const WIDE: [[u32; 3]; 16] = [
    [0, 1, 0],
    [0, 2, 0],
    [0, 3, 0],
    [0, 4, 0],
    [0, 6, 0],
    [2, 0, 0],
    [0, 0, 2],
    [0, 0, 4],
    [0, 0, 6],
    [0, 0, 8],
    [0, 0, 12],
    [0, 1, 2],
    [0, 1, 4],
    [0, 2, 4],
    [0, 2, 8],
    [1, 0, 4],
];

fn pick<const N: usize>(rng: &mut ChaCha8Rng, from: &[[u32; 3]; N], n: usize) -> Vec<[u32; 3]> {
    let mut idx: Vec<usize> = (0..N).collect();
    // Partial Fisher-Yates: the first `n` slots end up a uniform sample.
    for i in 0..n.min(N) {
        let j = i + rng.random_range(0..(N - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx[..n.min(N)].iter().map(|&i| from[i]).collect()
}

fn flats_for(rng: &mut ChaCha8Rng, kind: ProfileKind) -> Vec<[u32; 3]> {
    match kind {
        ProfileKind::Small4 => pick(rng, &SMALL, 4),
        ProfileKind::Wide12 => {
            let mut v = ONE_CORE.to_vec();
            v.extend(pick(rng, &WIDE, 10));
            v
        }
        ProfileKind::Storm2 => vec![[0, 4, 0], [0, 0, 8]],
    }
}

/// Number of distinct client profiles a churn workload cycles through.
pub const CLIENT_POOL: usize = 64;

/// Inputs of one daemon workload.
#[derive(Debug, Clone)]
pub struct DaemonInputs {
    /// One profile per resident session.
    pub residents: Vec<Points>,
    /// The churning client's profiles: one vector set, [`CLIENT_POOL`]
    /// re-measurements of it. Lifecycle `i` submits `client[i % len]`.
    pub client: Vec<Points>,
    pub smt_widths: Vec<u32>,
}

pub fn daemon_inputs(
    seed: u64,
    hw: &HardwareDescription,
    residents: usize,
    kind: ProfileKind,
) -> DaemonInputs {
    let shape = hw.erv_shape();
    // Shapes (which behaviour, which vectors) come from a fixed stream per
    // population size; the seed drives only the measurement noise on top.
    let mut shapes = ChaCha8Rng::seed_from_u64(0x05AF_ED43 ^ ((residents as u64) << 32));
    let mut values = ChaCha8Rng::seed_from_u64(seed ^ 0xD43_0000);
    let residents = (0..residents)
        .map(|_| {
            let truth = draw_truth(&mut shapes);
            let flats = flats_for(&mut shapes, kind);
            sample(&mut values, &shape, &truth, &flats, 0.02)
        })
        .collect();
    let truth = draw_truth(&mut shapes);
    let flats = flats_for(&mut shapes, kind);
    let client = (0..CLIENT_POOL)
        .map(|_| sample(&mut values, &shape, &truth, &flats, 0.02))
        .collect();
    DaemonInputs {
        residents,
        client,
        smt_widths: shape.smt_widths().iter().map(|&w| w as u32).collect(),
    }
}

/// Energy-utility cost of running `granted` under `profile`, by the
/// benchmark's own copy of the profile (normalised by the profile's
/// maximum utility, as the RM does); `None` when the vector is not a
/// point of the profile.
pub fn profile_cost(profile: &Points, granted_flat: &[u32]) -> Option<f64> {
    let v_max = profile.iter().map(|(_, n)| n.utility).fold(0.0, f64::max);
    profile
        .iter()
        .find(|(e, _)| e.flat() == granted_flat)
        .map(|(_, n)| energy_utility_cost(n.utility, n.power, v_max))
}

/// The cheapest point of a profile: what an uncontended session costs.
pub fn profile_floor(profile: &Points) -> f64 {
    let v_max = profile.iter().map(|(_, n)| n.utility).fold(0.0, f64::max);
    profile
        .iter()
        .map(|(_, n)| energy_utility_cost(n.utility, n.power, v_max))
        .fold(f64::INFINITY, f64::min)
}

/// Ground truth per trace template for the online workload. Shapes follow
/// the templates' documented behaviour, with constants from a fixed draw.
pub fn template_truths() -> [Truth; 5] {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7E4_0000);
    let mut t = |base: f64, e_rel: f64, smt: f64, scale: f64, cap: f64| Truth {
        base: base * jitter(&mut rng, 0.03),
        e_rel: e_rel * jitter(&mut rng, 0.03),
        smt_gain: smt,
        scale: scale * jitter(&mut rng, 0.02),
        cap,
    };
    // Order of `Template::ALL`: cpu, mem, convoy, balanced, bursty.
    [
        t(9.0e9, 0.55, 0.40, 0.95, f64::INFINITY),
        t(6.0e9, 0.90, 0.05, 0.90, 5.0),
        t(7.0e9, 0.60, 0.20, 0.85, 2.5),
        t(8.0e9, 0.50, 0.30, 0.88, f64::INFINITY),
        t(8.0e9, 0.55, 0.25, 0.45, f64::INFINITY),
    ]
}

pub fn template_index(t: Template) -> usize {
    Template::ALL
        .iter()
        .position(|x| *x == t)
        .expect("template is one of Template::ALL")
}

/// Inputs of the online workload.
#[derive(Debug, Clone)]
pub struct OnlineInputs {
    pub trace: Trace,
    pub truths: [Truth; 5],
    pub seed: u64,
}

/// Arrivals in the generated trace at full size, and the simulated window
/// they fall in. One replay is one repetition, about a second here, so
/// that several fit in a run; the arrival rate (one every 1.5 s, i.e. 30
/// measurement ticks) leaves exploration campaigns room to complete
/// between the reallocations that restart them.
pub const ONLINE_ARRIVALS: u32 = 300;
pub const ONLINE_WINDOW_S: u64 = 450;

pub fn online_inputs(
    seed: u64,
    hw: &HardwareDescription,
    arrivals: u32,
    window_s: u64,
) -> OnlineInputs {
    let window = window_s * SECOND;
    let mut rng = ChaCha8Rng::seed_from_u64(0x0F4_0000);
    let mut faults = Vec::new();
    let at = |rng: &mut ChaCha8Rng, lo: u64, hi: u64| window / 100 * rng.random_range(lo..hi);
    // Two cores flap (the second failure of a core triggers quarantine),
    // one cluster is capped and released, the sensor goes dark twice.
    for _ in 0..2 {
        let core = CoreId(rng.random_range(0..hw.num_cores() as u64) as usize);
        let mut t = at(&mut rng, 5, 25);
        for _ in 0..2 {
            faults.push((t, FaultEvent::CoreFail { core }));
            t += at(&mut rng, 3, 10);
            faults.push((t, FaultEvent::CoreRecover { core }));
            t += at(&mut rng, 3, 10);
        }
    }
    let cluster = rng.random_range(0..hw.num_kinds() as u64) as u32;
    let t = at(&mut rng, 30, 50);
    faults.push((
        t,
        FaultEvent::ThermalCap {
            cluster,
            permille: 500 + rng.random_range(0..300u64) as u32,
        },
    ));
    faults.push((
        t + at(&mut rng, 10, 30),
        FaultEvent::ThermalCap {
            cluster,
            permille: 1000,
        },
    ));
    for _ in 0..2 {
        faults.push((
            at(&mut rng, 10, 90),
            FaultEvent::SensorDrop {
                ticks: 2 + rng.random_range(0..6u64),
            },
        ));
    }
    // The cluster is one fixed draw: arrival process (times, templates,
    // work sizes, churn), ground truth and fault schedule. The seed drives
    // the observation noise, which exploration amplifies into different
    // trajectories: two seeds are two days on the same cluster, not two
    // clusters. (Seeding the cluster too was tried: the fault schedule and
    // truth constants moved `ops_per_s` by 5 % and `activate_p50_us` by
    // 16 % between seeds, more than any bound this benchmark can give.)
    let trace = generate_trace(
        "online_ticks",
        &TraceGenConfig {
            seed: 0x0004_11CE,
            window_ns: window,
            arrivals,
            shape: TraceShape::HeavyTailChurn,
            churn_permille: 400,
            reprioritize_permille: 50,
            faults,
        },
    );
    OnlineInputs {
        trace,
        truths: template_truths(),
        seed,
    }
}

/// Multiplicative observation noise in `[1-rel, 1+rel]`: a pure function
/// of its arguments (splitmix64 over their mix), so a replay sees the same
/// observations whatever else ran before it.
pub fn noise(seed: u64, key: u64, tick: u64, rel: f64) -> f64 {
    let mut z = seed
        .wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(tick.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    1.0 + rel * ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let hw = HardwareDescription::raptor_lake();
        let a = daemon_inputs(7, &hw, 20, ProfileKind::Wide12);
        let b = daemon_inputs(7, &hw, 20, ProfileKind::Wide12);
        assert_eq!(a.residents, b.residents);
        assert_eq!(a.client, b.client);
        let c = daemon_inputs(8, &hw, 20, ProfileKind::Wide12);
        assert_ne!(a.residents, c.residents);
        assert_eq!(
            online_inputs(3, &hw, 50, 60).trace,
            online_inputs(3, &hw, 50, 60).trace
        );
    }

    #[test]
    fn contended_profiles_keep_the_one_core_options() {
        let hw = HardwareDescription::raptor_lake();
        let inp = daemon_inputs(1, &hw, 20, ProfileKind::Wide12);
        for p in inp.residents.iter().chain(&inp.client) {
            assert_eq!(p.len(), 12);
            assert!(p.iter().any(|(e, _)| e.flat() == [1, 0, 0]));
            assert!(p.iter().any(|(e, _)| e.flat() == [0, 0, 1]));
        }
    }

    #[test]
    fn noise_is_bounded_and_pure() {
        for t in 0..1000 {
            let n = noise(1, 2, t, 0.02);
            assert!((0.98..=1.02).contains(&n));
            assert_eq!(n, noise(1, 2, t, 0.02));
        }
    }
}

//! Offline design-space exploration (paper §3.2.1): measure an
//! application's utility and power on a grid of configurations, producing
//! the operating-point tables that *HARP (Offline)* allocates from and the
//! raw data behind Fig. 1 and Fig. 5.

use harp_sim::{
    Affinity, AppSpec, LaunchOpts, Manager, MgrEvent, SimConfig, SimState, Simulation, SECOND,
};
use harp_types::{
    CoreKind, ExtResourceVector, NonFunctional, OperatingPoint, OperatingPointTable, Result,
};
use harp_workload::Platform;
use std::collections::HashMap;

/// One measured configuration of the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The configuration.
    pub erv: ExtResourceVector,
    /// Measured instant characteristics (utility = work/s, power = W of
    /// attributed dynamic power).
    pub nfc: NonFunctional,
    /// Full-run execution time in seconds (Fig. 1 dot size).
    pub time_s: f64,
    /// Full-run total energy in joules (Fig. 1 dot colour).
    pub energy_j: f64,
}

/// Pins an application to a concrete configuration for the measurement.
struct PinTo {
    erv: ExtResourceVector,
}

impl Manager for PinTo {
    fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
        if let MgrEvent::AppStarted { app, .. } = ev {
            let hw = st.hw().clone();
            // First N cores of each kind, threads per the ERV histogram.
            let mut cores = Vec::new();
            for kind in 0..hw.num_kinds() {
                let all = hw.cores_of_kind(CoreKind(kind)).expect("valid kind");
                cores.extend(all.into_iter().take(self.erv.cores_of_kind(kind) as usize));
            }
            let threads =
                harp_alloc::hw_threads_for(&self.erv, &cores, &hw).expect("erv fits machine");
            if threads.is_empty() {
                return;
            }
            let team = threads.len() as u32;
            st.set_app_affinity(app, Affinity::from_threads(threads))
                .expect("nonempty mask");
            st.set_team_size(app, team).expect("live app");
        }
    }
}

/// Measures one configuration: runs the application alone, pinned and
/// sized to `erv`. `horizon_s` is a safety cap — measurements should span
/// a full run (serial and parallel phases alike), otherwise short horizons
/// only observe the startup phase and every configuration looks identical.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn measure_config(
    platform: Platform,
    spec: &AppSpec,
    erv: &ExtResourceVector,
    horizon_s: f64,
    seed: u64,
) -> Result<SweepPoint> {
    let hw = platform.hardware();
    let mut sim = Simulation::new(
        hw,
        SimConfig {
            seed,
            horizon_ns: Some((horizon_s * SECOND as f64) as u64),
            ..SimConfig::default()
        },
    );
    sim.add_arrival(0, spec.clone(), LaunchOpts::fixed_team(1));
    let mut mgr = PinTo { erv: erv.clone() };
    let report = sim.run(&mut mgr)?;
    // Characteristics: the completed record if the app finished within the
    // horizon, otherwise the partial record of the capped run.
    let record = report
        .apps
        .first()
        .or_else(|| report.partial.first())
        .cloned();
    let (time_s, work) = match record {
        Some(a) => (a.duration_s().max(1e-9), a.work_done),
        None => (report.makespan_s().max(1e-9), 0.0),
    };
    let utility = work / time_s.max(1e-9);
    // EnergAt attribution of a solo application charges it the entire
    // package energy (static power included) — see harp-energy.
    let power = report.total_energy_j / time_s.max(1e-9);
    Ok(SweepPoint {
        erv: erv.clone(),
        nfc: NonFunctional::new(utility, power),
        time_s,
        energy_j: report.total_energy_j,
    })
}

/// The configuration grid of a platform: a coarse but covering subset of
/// the extended-resource-vector space (full enumeration on the small
/// Odroid, a structured grid on Raptor Lake).
pub fn sweep_grid(platform: Platform) -> Vec<ExtResourceVector> {
    let hw = platform.hardware();
    let shape = hw.erv_shape();
    match platform {
        Platform::Odroid => ExtResourceVector::enumerate(&shape, &hw.capacity())
            .expect("valid shape")
            .into_iter()
            .filter(|e| !e.is_zero())
            .collect(),
        Platform::RaptorLake => {
            let mut out = Vec::new();
            for p1 in [0u32, 1, 2] {
                for p2 in [0u32, 1, 2, 4, 6, 8] {
                    if p1 + p2 > 8 {
                        continue;
                    }
                    for e in [0u32, 1, 2, 4, 6, 8, 12, 16] {
                        if p1 == 0 && p2 == 0 && e == 0 {
                            continue;
                        }
                        out.push(
                            ExtResourceVector::from_flat(&shape, &[p1, p2, e])
                                .expect("grid point fits shape"),
                        );
                    }
                }
            }
            out
        }
    }
}

/// Sweeps an application over the platform grid, producing its offline
/// operating-point table and the raw sweep data. Grid point `i` is
/// measured with seed `seed + i`, in grid order.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn sweep_app(
    platform: Platform,
    spec: &AppSpec,
    horizon_s: f64,
    seed: u64,
) -> Result<Vec<SweepPoint>> {
    sweep_grid(platform)
        .iter()
        .enumerate()
        .map(|(i, erv)| measure_config(platform, spec, erv, horizon_s, seed.wrapping_add(i as u64)))
        .collect()
}

/// Distils a sweep into the application's offline operating-point table
/// (configurations that made progress, in grid order).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn sweep_table(
    platform: Platform,
    spec: &AppSpec,
    horizon_s: f64,
    seed: u64,
) -> Result<OperatingPointTable> {
    let sweep = sweep_app(platform, spec, horizon_s, seed)?;
    Ok(sweep
        .into_iter()
        .filter(|p| p.nfc.utility > 0.0)
        .map(|p| OperatingPoint::new(p.erv, p.nfc))
        .collect())
}

/// Builds the offline profile store for a set of applications (the
/// description files of *HARP (Offline)*): one [`sweep_table`] per
/// distinct application name, with DSE seed 17.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn offline_profiles(
    platform: Platform,
    specs: &[AppSpec],
    horizon_s: f64,
) -> Result<HashMap<String, OperatingPointTable>> {
    let mut out = HashMap::new();
    for spec in specs {
        if out.contains_key(&spec.name) {
            continue;
        }
        let table = sweep_table(platform, spec, horizon_s, 17)?;
        out.insert(spec.name.clone(), table);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_workload::benchmark;

    #[test]
    fn grids_cover_the_space() {
        let intel = sweep_grid(Platform::RaptorLake);
        assert!(intel.len() > 80, "{}", intel.len());
        assert!(intel.iter().all(|e| !e.is_zero()));
        let odroid = sweep_grid(Platform::Odroid);
        assert_eq!(odroid.len(), 24); // 5*5 - 1
    }

    #[test]
    fn measurement_produces_sane_characteristics() {
        let spec = benchmark(Platform::RaptorLake, "ep").unwrap();
        let hw = Platform::RaptorLake.hardware();
        let shape = hw.erv_shape();
        let small = ExtResourceVector::from_flat(&shape, &[0, 2, 0]).unwrap();
        let large = ExtResourceVector::from_flat(&shape, &[0, 8, 8]).unwrap();
        let m_small = measure_config(Platform::RaptorLake, &spec, &small, 600.0, 1).unwrap();
        let m_large = measure_config(Platform::RaptorLake, &spec, &large, 600.0, 1).unwrap();
        assert!(m_small.nfc.utility > 0.0);
        assert!(
            m_large.nfc.utility > 2.0 * m_small.nfc.utility,
            "ep should scale: {} vs {}",
            m_large.nfc.utility,
            m_small.nfc.utility
        );
        assert!(m_large.nfc.power > m_small.nfc.power);
    }

    #[test]
    fn offline_profile_has_many_points() {
        let spec = benchmark(Platform::Odroid, "ep").unwrap();
        let profiles = offline_profiles(Platform::Odroid, &[spec], 600.0).unwrap();
        let t = &profiles["ep"];
        assert!(t.measured_count() >= 20, "{}", t.measured_count());
        assert!(t.max_utility() > 0.0);
    }
}

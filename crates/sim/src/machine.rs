//! Precomputed machine topology and energy accounting.

use harp_platform::HardwareDescription;

/// Precomputed topology lookup tables over a [`HardwareDescription`].
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    pub hw: HardwareDescription,
    /// Core kind index per physical core.
    pub core_kind: Vec<usize>,
    /// Physical core index per hardware thread.
    pub thread_core: Vec<usize>,
    /// Core kind index per hardware thread.
    pub thread_kind: Vec<usize>,
    /// Hardware-thread ids per physical core.
    pub core_threads: Vec<Vec<usize>>,
    /// Hardware threads per cluster (kind).
    pub cluster_thread_count: Vec<usize>,
    pub n_threads: usize,
    pub n_cores: usize,
    /// Widest core (hardware threads per core) of the machine.
    pub max_smt_width: usize,
}

impl Topology {
    pub fn new(hw: HardwareDescription) -> Self {
        let n_cores = hw.num_cores();
        let n_threads = hw.total_hw_threads();
        let mut core_kind = Vec::with_capacity(n_cores);
        let mut thread_core = Vec::with_capacity(n_threads);
        let mut thread_kind = Vec::with_capacity(n_threads);
        let mut core_threads: Vec<Vec<usize>> = Vec::with_capacity(n_cores);
        let mut cluster_thread_count = Vec::with_capacity(hw.num_kinds());
        let mut core_idx = 0usize;
        let mut thread_idx = 0usize;
        for (k, c) in hw.clusters.iter().enumerate() {
            cluster_thread_count.push(c.hw_threads() as usize);
            for _ in 0..c.cores {
                core_kind.push(k);
                let mut threads = Vec::with_capacity(c.smt_width);
                for _ in 0..c.smt_width {
                    thread_core.push(core_idx);
                    thread_kind.push(k);
                    threads.push(thread_idx);
                    thread_idx += 1;
                }
                core_threads.push(threads);
                core_idx += 1;
            }
        }
        let max_smt_width = hw
            .clusters
            .iter()
            .map(|c| c.smt_width)
            .max()
            .unwrap_or(1)
            .max(1);
        Topology {
            hw,
            core_kind,
            thread_core,
            thread_kind,
            core_threads,
            cluster_thread_count,
            n_threads,
            n_cores,
            max_smt_width,
        }
    }
}

/// Cumulative energy counters (joules) modelling the observable
/// RAPL-style domains, and the draw they integrate. Power changes only
/// when placement does, so the engine computes it once per placement and
/// every event in between is a multiply-add per domain. Per-application
/// accounts (ground-truth energy, CPU time per kind) live in the instance
/// slots (`AppInstance`).
#[derive(Debug, Clone, Default)]
pub(crate) struct EnergyAccount {
    pub cluster_energy: Vec<f64>,
    pub package_energy: f64,
    /// Current draw per cluster in watts (cores + cluster static).
    pub cluster_w: Vec<f64>,
    /// Current package draw in watts (package static + every cluster).
    pub package_w: f64,
}

impl EnergyAccount {
    pub fn new(num_kinds: usize) -> Self {
        EnergyAccount {
            cluster_energy: vec![0.0; num_kinds],
            package_energy: 0.0,
            cluster_w: vec![0.0; num_kinds],
            package_w: 0.0,
        }
    }

    /// Integrates the current draw over `dt` seconds.
    pub fn integrate(&mut self, dt: f64) {
        for (e, w) in self.cluster_energy.iter_mut().zip(&self.cluster_w) {
            *e += w * dt;
        }
        self.package_energy += self.package_w * dt;
    }
}

/// What each runnable thread queued on one hardware thread is attributed:
/// its slice of the core's active power and its share of the hardware
/// thread's time. Per-application energy and CPU time accumulate queue by
/// queue in hardware-thread order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Share {
    /// Active core power attributed to each queued thread (watts).
    pub power_w: f64,
    /// Threads time-sharing the hardware thread.
    pub sharers: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_platform::presets;

    #[test]
    fn raptor_lake_topology_tables() {
        let t = Topology::new(presets::raptor_lake());
        assert_eq!(t.n_cores, 24);
        assert_eq!(t.n_threads, 32);
        assert_eq!(t.core_kind[0], 0);
        assert_eq!(t.core_kind[8], 1);
        assert_eq!(t.thread_core[0], 0);
        assert_eq!(t.thread_core[1], 0);
        assert_eq!(t.thread_core[16], 8);
        assert_eq!(t.core_threads[0], vec![0, 1]);
        assert_eq!(t.core_threads[8], vec![16]);
        assert_eq!(t.cluster_thread_count, vec![16, 16]);
        assert_eq!(t.thread_kind[0], 0);
        assert_eq!(t.thread_kind[31], 1);
    }
}

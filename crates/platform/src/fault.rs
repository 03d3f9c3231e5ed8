//! Degraded-hardware state: core hotplug, thermal capacity caps, and
//! power-sensor dropout (DESIGN.md §15).
//!
//! [`FaultState`] tracks what the *hardware* currently is — which cores
//! are online, how hard each cluster is thermally capped, and whether the
//! package power sensor is reading. It is deliberately policy-free: the
//! quarantine state machine (who is *allowed* back) lives in `harp-rm`,
//! which combines hardware state and policy into a [`CoreAvailability`]
//! mask handed to the allocator.
//!
//! A thermal cap of `p` permille scales a cluster's effective IPS by
//! `p/1000` and shifts its power model to the correspondingly reduced
//! effective frequency — a throttled core both computes less and draws
//! less, matching DVFS-style clamping rather than duty cycling.

use crate::desc::HardwareDescription;
use harp_types::{CoreId, CoreKind, FaultEvent, ResourceVector, Result};

/// Nominal (healthy) thermal capacity in permille.
pub const CAP_NOMINAL_PERMILLE: u32 = 1000;

/// Current degradation of one physical platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    /// Per physical core: is it online (index = `CoreId.0`)?
    online: Vec<bool>,
    /// Per cluster: effective capacity in permille of nominal.
    cap_permille: Vec<u32>,
    /// Measurement ticks the power sensor stays dark for.
    sensor_drop_ticks: u64,
    /// Count of state-changing fault events applied so far.
    faults_injected: u64,
}

impl FaultState {
    /// A fully healthy platform: every core online, no caps, sensor live.
    pub fn new(hw: &HardwareDescription) -> Self {
        FaultState {
            online: vec![true; hw.num_cores()],
            cap_permille: vec![CAP_NOMINAL_PERMILLE; hw.clusters.len()],
            sensor_drop_ticks: 0,
            faults_injected: 0,
        }
    }

    /// True when nothing has ever degraded: all cores online, nominal
    /// caps, sensor live, and no fault applied.
    pub fn is_default(&self) -> bool {
        self.faults_injected == 0
            && self.sensor_drop_ticks == 0
            && self.online.iter().all(|&on| on)
            && self.cap_permille.iter().all(|&c| c == CAP_NOMINAL_PERMILLE)
    }

    /// Applies a fault event to the hardware state. Returns `true` when
    /// the state actually changed (and counts it); out-of-range targets
    /// and no-op transitions (failing an offline core, recovering an
    /// online one, re-asserting the current cap) return `false`.
    pub fn apply(&mut self, ev: &FaultEvent) -> bool {
        let changed = match *ev {
            FaultEvent::CoreFail { core } => self.set_online(core, false),
            FaultEvent::CoreRecover { core } => self.set_online(core, true),
            FaultEvent::ThermalCap { cluster, permille } => {
                self.set_cap_permille(cluster as usize, permille)
            }
            FaultEvent::SensorDrop { ticks } => {
                if ticks == 0 {
                    false
                } else {
                    self.sensor_drop_ticks = self.sensor_drop_ticks.max(ticks);
                    true
                }
            }
        };
        if changed {
            self.faults_injected += 1;
        }
        changed
    }

    /// Sets a core's online bit; returns `true` when it flipped.
    pub fn set_online(&mut self, core: CoreId, on: bool) -> bool {
        match self.online.get_mut(core.0) {
            Some(slot) if *slot != on => {
                *slot = on;
                true
            }
            _ => false,
        }
    }

    /// Is `core` online? Out-of-range cores are reported offline.
    pub fn is_online(&self, core: CoreId) -> bool {
        self.online.get(core.0).copied().unwrap_or(false)
    }

    /// Whether `core` names a real core of the platform this state was
    /// built for.
    pub fn core_in_range(&self, core: CoreId) -> bool {
        core.0 < self.online.len()
    }

    /// All currently offline cores, in core-id order.
    pub fn offline_cores(&self) -> Vec<CoreId> {
        self.online
            .iter()
            .enumerate()
            .filter(|(_, &on)| !on)
            .map(|(i, _)| CoreId(i))
            .collect()
    }

    /// Number of online cores.
    pub fn online_count(&self) -> usize {
        self.online.iter().filter(|&&on| on).count()
    }

    /// Sets a cluster's thermal cap, clamped to `1..=1000`; returns
    /// `true` when the effective cap changed.
    pub fn set_cap_permille(&mut self, cluster: usize, permille: u32) -> bool {
        let clamped = permille.clamp(1, CAP_NOMINAL_PERMILLE);
        match self.cap_permille.get_mut(cluster) {
            Some(slot) if *slot != clamped => {
                *slot = clamped;
                true
            }
            _ => false,
        }
    }

    /// The thermal cap of `cluster` in permille (nominal for unknown
    /// clusters, so callers can iterate defensively).
    pub fn cap_permille(&self, cluster: usize) -> u32 {
        self.cap_permille
            .get(cluster)
            .copied()
            .unwrap_or(CAP_NOMINAL_PERMILLE)
    }

    /// Remaining ticks of power-sensor dropout.
    pub fn sensor_drop_ticks(&self) -> u64 {
        self.sensor_drop_ticks
    }

    /// Forces the sensor-drop counter (journal/snapshot restore).
    pub fn set_sensor_drop_ticks(&mut self, ticks: u64) {
        self.sensor_drop_ticks = ticks;
    }

    /// Consumes one measurement tick; returns `true` when the sensor was
    /// dark for it (the reading must be discarded, not trusted).
    pub fn consume_sensor_tick(&mut self) -> bool {
        if self.sensor_drop_ticks > 0 {
            self.sensor_drop_ticks -= 1;
            true
        } else {
            false
        }
    }

    /// Count of state-changing fault events applied.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Forces the fault counter (journal/snapshot restore).
    pub fn set_faults_injected(&mut self, n: u64) {
        self.faults_injected = n;
    }

    /// Effective sustained rate of one hardware thread on `core` when
    /// `busy_siblings` threads of that core are active: zero if the core
    /// is offline, otherwise the cluster's nominal rate scaled by the
    /// thermal cap.
    pub fn thread_rate(
        &self,
        hw: &HardwareDescription,
        core: CoreId,
        freq_mhz: f64,
        busy_siblings: u32,
    ) -> Result<f64> {
        if !self.is_online(core) {
            return Ok(0.0);
        }
        let kind = hw.kind_of_core(core)?;
        let cluster = hw.cluster(kind)?;
        let cap = f64::from(self.cap_permille(kind.0)) / f64::from(CAP_NOMINAL_PERMILLE);
        Ok(cluster.thread_rate(freq_mhz, busy_siblings) * cap)
    }

    /// Effective power draw of `core` with `busy` active threads: zero
    /// if offline, otherwise the cluster's power model evaluated at the
    /// thermally clamped effective frequency (a throttled core runs as
    /// if DVFS had pinned it lower).
    pub fn core_power(
        &self,
        hw: &HardwareDescription,
        core: CoreId,
        freq_mhz: f64,
        busy: u32,
    ) -> Result<f64> {
        if !self.is_online(core) {
            return Ok(0.0);
        }
        let kind = hw.kind_of_core(core)?;
        let cluster = hw.cluster(kind)?;
        let cap = f64::from(self.cap_permille(kind.0)) / f64::from(CAP_NOMINAL_PERMILLE);
        Ok(cluster.core_power(freq_mhz * cap, busy))
    }
}

/// The set of cores the allocator may place work on: hardware-online
/// cores minus whatever policy (quarantine) holds out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreAvailability {
    available: Vec<bool>,
}

impl CoreAvailability {
    /// Every core of `hw` available.
    pub fn full(hw: &HardwareDescription) -> Self {
        CoreAvailability {
            available: vec![true; hw.num_cores()],
        }
    }

    /// Removes `core` from the usable set.
    pub fn ban(&mut self, core: CoreId) {
        if let Some(slot) = self.available.get_mut(core.0) {
            *slot = false;
        }
    }

    /// Is `core` usable? Out-of-range cores are not.
    pub fn is_available(&self, core: CoreId) -> bool {
        self.available.get(core.0).copied().unwrap_or(false)
    }

    /// True when no core is banned — the healthy fast path, on which the
    /// allocator must behave bit-identically to the pre-fault code.
    pub fn is_full(&self) -> bool {
        self.available.iter().all(|&a| a)
    }

    /// Number of usable cores.
    pub fn available_count(&self) -> usize {
        self.available.iter().filter(|&&a| a).count()
    }

    /// Effective MMKP capacity: usable cores per kind (the shrunk `R`
    /// of Eq. 1b under degradation).
    pub fn capacity(&self, hw: &HardwareDescription) -> ResourceVector {
        let mut counts = vec![0u32; hw.clusters.len()];
        for i in 0..hw.num_cores() {
            if self.is_available(CoreId(i)) {
                if let Ok(kind) = hw.kind_of_core(CoreId(i)) {
                    counts[kind.0] += 1;
                }
            }
        }
        ResourceVector::new(counts)
    }

    /// The usable cores of `kind`, in core-id order.
    ///
    /// # Errors
    ///
    /// Returns [`harp_types::HarpError::NotFound`] when `kind` is not a
    /// kind of `hw`.
    pub fn cores_of_kind(&self, hw: &HardwareDescription, kind: CoreKind) -> Result<Vec<CoreId>> {
        Ok(hw
            .core_range_of_kind(kind)?
            .map(CoreId)
            .filter(|c| self.is_available(*c))
            .collect())
    }

    /// All usable cores, in core-id order.
    pub fn available_cores(&self) -> Vec<CoreId> {
        self.available
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| CoreId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareDescription {
        HardwareDescription::raptor_lake()
    }

    #[test]
    fn healthy_state_is_default_and_faults_count() {
        let hw = hw();
        let mut fs = FaultState::new(&hw);
        assert!(fs.is_default());
        assert!(fs.apply(&FaultEvent::CoreFail { core: CoreId(2) }));
        assert!(
            !fs.apply(&FaultEvent::CoreFail { core: CoreId(2) }),
            "no-op refail"
        );
        assert!(!fs.is_default());
        assert_eq!(fs.faults_injected(), 1);
        assert_eq!(fs.offline_cores(), vec![CoreId(2)]);
        assert!(fs.apply(&FaultEvent::CoreRecover { core: CoreId(2) }));
        assert_eq!(fs.online_count(), hw.num_cores());
        // Counter keeps history: recovered hardware is not "never faulted".
        assert!(!fs.is_default());
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let hw = hw();
        let mut fs = FaultState::new(&hw);
        let bogus = CoreId(hw.num_cores() + 5);
        assert!(!fs.apply(&FaultEvent::CoreFail { core: bogus }));
        assert!(!fs.apply(&FaultEvent::ThermalCap {
            cluster: 99,
            permille: 500
        }));
        assert!(fs.is_default());
    }

    #[test]
    fn thermal_cap_scales_rate_and_shifts_power() {
        let hw = hw();
        let mut fs = FaultState::new(&hw);
        let core = CoreId(0);
        let kind = hw.kind_of_core(core).unwrap();
        let cluster = hw.cluster(kind).unwrap();
        let f = cluster.max_freq_mhz;
        let nominal_rate = fs.thread_rate(&hw, core, f, 1).unwrap();
        let nominal_power = fs.core_power(&hw, core, f, 1).unwrap();
        assert!(fs.apply(&FaultEvent::ThermalCap {
            cluster: kind.0 as u32,
            permille: 500
        }));
        let capped_rate = fs.thread_rate(&hw, core, f, 1).unwrap();
        let capped_power = fs.core_power(&hw, core, f, 1).unwrap();
        assert!((capped_rate - nominal_rate * 0.5).abs() < 1e-9);
        assert!(
            capped_power < nominal_power,
            "throttling must also reduce power ({capped_power} >= {nominal_power})"
        );
        // Offline dominates the cap.
        assert!(fs.apply(&FaultEvent::CoreFail { core }));
        assert_eq!(fs.thread_rate(&hw, core, f, 1).unwrap(), 0.0);
        assert_eq!(fs.core_power(&hw, core, f, 1).unwrap(), 0.0);
    }

    #[test]
    fn sensor_drop_accumulates_by_max_and_drains() {
        let hw = hw();
        let mut fs = FaultState::new(&hw);
        assert!(fs.apply(&FaultEvent::SensorDrop { ticks: 2 }));
        assert!(fs.apply(&FaultEvent::SensorDrop { ticks: 5 }));
        assert_eq!(fs.sensor_drop_ticks(), 5);
        let mut dark = 0;
        for _ in 0..8 {
            if fs.consume_sensor_tick() {
                dark += 1;
            }
        }
        assert_eq!(dark, 5);
        assert_eq!(fs.sensor_drop_ticks(), 0);
    }

    #[test]
    fn availability_masks_capacity_and_kind_lists() {
        let hw = hw();
        let mut avail = CoreAvailability::full(&hw);
        assert!(avail.is_full());
        assert_eq!(avail.capacity(&hw), hw.capacity());
        // Ban one P-core (0..8) and one E-core (8..24).
        avail.ban(CoreId(3));
        avail.ban(CoreId(10));
        assert!(!avail.is_full());
        assert_eq!(avail.available_count(), hw.num_cores() - 2);
        assert_eq!(
            avail.capacity(&hw).counts(),
            &[hw.capacity().counts()[0] - 1, hw.capacity().counts()[1] - 1]
        );
        let p_cores = avail.cores_of_kind(&hw, CoreKind(0)).unwrap();
        assert!(!p_cores.contains(&CoreId(3)));
        assert_eq!(p_cores.len() as u32, hw.capacity().counts()[0] - 1);
        assert!(!avail.is_available(CoreId(hw.num_cores() + 1)));
    }
}

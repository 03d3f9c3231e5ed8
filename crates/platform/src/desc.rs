//! The hardware description data model.

use harp_obs::json::{self, Json};
use harp_types::{CoreId, CoreKind, ErvShape, HarpError, HwThreadId, ResourceVector, Result};
use std::path::Path;

/// Performance parameters of one core kind.
///
/// Rates are expressed in abstract *work units per second* — for generic
/// applications one work unit corresponds to one retired instruction, so the
/// rate is directly an IPS figure (what `perf` reports in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfParams {
    /// Work units per second of a single hardware thread running alone on
    /// the core at maximum frequency.
    pub ips_per_thread: f64,
    /// Per-sibling rate factor when both SMT siblings of a core are busy
    /// (e.g. `0.65`: each sibling runs at 65 %, the core totals 130 %).
    /// Irrelevant (use `1.0`) for single-threaded cores.
    pub smt_rate_factor: f64,
}

/// Power parameters of one core kind.
///
/// The per-core power model integrated by the simulator is
///
/// ```text
/// P(core) = idle_w                                   (no busy thread)
/// P(core) = idle_w + active_w · (f/f_max)³ · s(a)    (a ≥ 1 busy threads)
/// s(a)    = 1 + smt_active_extra · (a − 1)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerParams {
    /// Power of an idle core in watts (clock-gated but not power-gated).
    pub core_idle_w: f64,
    /// Additional power of a busy core at maximum frequency, single busy
    /// hardware thread, in watts.
    pub core_active_w: f64,
    /// Relative extra active power per additional busy SMT sibling
    /// (e.g. `0.25`: the second sibling adds 25 % active power).
    pub smt_active_extra: f64,
    /// Static (frequency-independent) power of the whole cluster in watts
    /// (interconnect, shared cache).
    pub cluster_static_w: f64,
}

/// One homogeneous cluster of cores (one *core kind*).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDesc {
    /// Human-readable kind name ("P-core", "E-core", "A15", "A7").
    pub kind_name: String,
    /// Number of physical cores in the cluster.
    pub cores: u32,
    /// Hardware threads per core (1 = no SMT).
    pub smt_width: usize,
    /// Minimum operating frequency in MHz.
    pub min_freq_mhz: f64,
    /// Maximum operating frequency in MHz. The paper caps this below the
    /// turbo limit to avoid thermal throttling (§6.1); the presets encode the
    /// capped values.
    pub max_freq_mhz: f64,
    /// Performance parameters.
    pub perf: PerfParams,
    /// Power parameters.
    pub power: PowerParams,
}

impl ClusterDesc {
    fn encode(&self) -> Json {
        let perf = &self.perf;
        let power = &self.power;
        Json::obj([
            ("kind_name", self.kind_name.as_str().into()),
            ("cores", self.cores.into()),
            ("smt_width", self.smt_width.into()),
            ("min_freq_mhz", self.min_freq_mhz.into()),
            ("max_freq_mhz", self.max_freq_mhz.into()),
            (
                "perf",
                Json::obj([
                    ("ips_per_thread", perf.ips_per_thread.into()),
                    ("smt_rate_factor", perf.smt_rate_factor.into()),
                ]),
            ),
            (
                "power",
                Json::obj([
                    ("core_idle_w", power.core_idle_w.into()),
                    ("core_active_w", power.core_active_w.into()),
                    ("smt_active_extra", power.smt_active_extra.into()),
                    ("cluster_static_w", power.cluster_static_w.into()),
                ]),
            ),
        ])
    }

    fn decode(v: &Json) -> std::result::Result<Self, String> {
        let perf = v.field("perf")?;
        let power = v.field("power")?;
        Ok(ClusterDesc {
            kind_name: v.str_field("kind_name")?.to_string(),
            cores: v.count_field("cores")?,
            smt_width: v.count_field("smt_width")?,
            min_freq_mhz: v.f64_field("min_freq_mhz")?,
            max_freq_mhz: v.f64_field("max_freq_mhz")?,
            perf: PerfParams {
                ips_per_thread: perf.f64_field("ips_per_thread")?,
                smt_rate_factor: perf.f64_field("smt_rate_factor")?,
            },
            power: PowerParams {
                core_idle_w: power.f64_field("core_idle_w")?,
                core_active_w: power.f64_field("core_active_w")?,
                smt_active_extra: power.f64_field("smt_active_extra")?,
                cluster_static_w: power.f64_field("cluster_static_w")?,
            },
        })
    }

    /// Total hardware threads in the cluster.
    pub fn hw_threads(&self) -> u32 {
        self.cores * self.smt_width as u32
    }

    /// Per-thread execution rate (work units/s) at frequency `freq_mhz` with
    /// `busy_siblings` busy hardware threads on the core (including the
    /// thread itself).
    pub fn thread_rate(&self, freq_mhz: f64, busy_siblings: u32) -> f64 {
        let f = (freq_mhz / self.max_freq_mhz).clamp(0.0, 1.0);
        let smt = if busy_siblings > 1 {
            self.perf.smt_rate_factor
        } else {
            1.0
        };
        self.perf.ips_per_thread * f * smt
    }

    /// Power of one core in watts at frequency `freq_mhz` with `busy`
    /// busy hardware threads.
    pub fn core_power(&self, freq_mhz: f64, busy: u32) -> f64 {
        if busy == 0 {
            return self.power.core_idle_w;
        }
        let f = (freq_mhz / self.max_freq_mhz).clamp(0.0, 1.0);
        let smt_scale = 1.0 + self.power.smt_active_extra * (busy.saturating_sub(1)) as f64;
        self.power.core_idle_w + self.power.core_active_w * f.powi(3) * smt_scale
    }
}

/// A complete machine description: the input the HARP RM receives instead of
/// probing hardware (paper Fig. 2, item (1)).
///
/// Core and hardware-thread numbering is *cluster-major*: cluster 0 owns
/// cores `0..c0` and cluster 1 owns cores `c0..c0+c1`; each core's hardware
/// threads are consecutive.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareDescription {
    /// Machine name (for reports).
    pub name: String,
    /// Per-kind clusters; the index in this vector is the [`CoreKind`].
    pub clusters: Vec<ClusterDesc>,
    /// Package-level static power in watts (memory controller, fabric, I/O)
    /// — drawn whenever the machine is on.
    pub package_static_w: f64,
    /// Aggregate memory bandwidth expressed as the total work-unit rate the
    /// memory system can sustain for fully memory-bound code (work units/s).
    pub mem_bandwidth: f64,
}

impl HardwareDescription {
    /// Shorthand for the Intel Raptor Lake preset (see [`presets`](crate::presets)).
    pub fn raptor_lake() -> Self {
        crate::presets::raptor_lake()
    }

    /// Shorthand for the Odroid XU3-E preset (see [`presets`](crate::presets)).
    pub fn odroid_xu3() -> Self {
        crate::presets::odroid_xu3()
    }

    /// Number of core kinds.
    pub fn num_kinds(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster description of `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::UnknownCoreKind`] if `kind` is out of range.
    pub fn cluster(&self, kind: CoreKind) -> Result<&ClusterDesc> {
        self.clusters.get(kind.0).ok_or(HarpError::UnknownCoreKind {
            kind: kind.0,
            num_kinds: self.clusters.len(),
        })
    }

    /// The extended-resource-vector shape of this platform (per-kind SMT
    /// widths).
    pub fn erv_shape(&self) -> ErvShape {
        ErvShape::new(self.clusters.iter().map(|c| c.smt_width).collect())
    }

    /// Platform capacity: cores per kind (the `R` of Eq. 1b).
    pub fn capacity(&self) -> ResourceVector {
        self.clusters.iter().map(|c| c.cores).collect()
    }

    /// Total number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.clusters.iter().map(|c| c.cores as usize).sum()
    }

    /// Total number of hardware threads.
    pub fn total_hw_threads(&self) -> usize {
        self.clusters.iter().map(|c| c.hw_threads() as usize).sum()
    }

    /// The core kind of physical core `core`.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] if the core id is out of range.
    pub fn kind_of_core(&self, core: CoreId) -> Result<CoreKind> {
        let mut base = 0usize;
        for (k, c) in self.clusters.iter().enumerate() {
            if core.0 < base + c.cores as usize {
                return Ok(CoreKind(k));
            }
            base += c.cores as usize;
        }
        Err(HarpError::not_found(format!("{core}")))
    }

    /// The physical core that hardware thread `thread` belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] if the thread id is out of range.
    pub fn core_of_thread(&self, thread: HwThreadId) -> Result<CoreId> {
        let mut thread_base = 0usize;
        let mut core_base = 0usize;
        for c in &self.clusters {
            let cluster_threads = c.hw_threads() as usize;
            if thread.0 < thread_base + cluster_threads {
                let within = thread.0 - thread_base;
                return Ok(CoreId(core_base + within / c.smt_width));
            }
            thread_base += cluster_threads;
            core_base += c.cores as usize;
        }
        Err(HarpError::not_found(format!("{thread}")))
    }

    /// The raw hardware-thread ids of physical core `core`, as a range
    /// (threads of a core are consecutive).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] if the core id is out of range.
    pub fn thread_range_of_core(&self, core: CoreId) -> Result<std::ops::Range<usize>> {
        let mut thread_base = 0usize;
        let mut core_base = 0usize;
        for c in &self.clusters {
            if core.0 < core_base + c.cores as usize {
                let within = core.0 - core_base;
                let start = thread_base + within * c.smt_width;
                return Ok(start..start + c.smt_width);
            }
            thread_base += c.hw_threads() as usize;
            core_base += c.cores as usize;
        }
        Err(HarpError::not_found(format!("{core}")))
    }

    /// The hardware-thread ids of physical core `core`.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] if the core id is out of range.
    pub fn threads_of_core(&self, core: CoreId) -> Result<Vec<HwThreadId>> {
        Ok(self.thread_range_of_core(core)?.map(HwThreadId).collect())
    }

    /// The raw core ids belonging to `kind`, as a range (numbering is
    /// cluster-major).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::UnknownCoreKind`] if `kind` is out of range.
    pub fn core_range_of_kind(&self, kind: CoreKind) -> Result<std::ops::Range<usize>> {
        let n = self.cluster(kind)?.cores as usize;
        let base: usize = self.clusters[..kind.0]
            .iter()
            .map(|c| c.cores as usize)
            .sum();
        Ok(base..base + n)
    }

    /// The core ids belonging to `kind`, in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::UnknownCoreKind`] if `kind` is out of range.
    pub fn cores_of_kind(&self, kind: CoreKind) -> Result<Vec<CoreId>> {
        Ok(self.core_range_of_kind(kind)?.map(CoreId).collect())
    }

    /// Checks internal consistency (positive rates/powers/frequencies,
    /// nonzero clusters).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Description`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        // "Not strictly positive", with NaN counted as invalid.
        let not_pos = |x: f64| x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater);
        if self.clusters.is_empty() {
            return Err(HarpError::Description {
                detail: "hardware description needs at least one cluster".into(),
            });
        }
        for (k, c) in self.clusters.iter().enumerate() {
            let ctx = format!("cluster {k} ({})", c.kind_name);
            if c.cores == 0 {
                return Err(HarpError::Description {
                    detail: format!("{ctx}: zero cores"),
                });
            }
            if c.smt_width == 0 {
                return Err(HarpError::Description {
                    detail: format!("{ctx}: zero SMT width"),
                });
            }
            if not_pos(c.max_freq_mhz) || c.min_freq_mhz > c.max_freq_mhz || c.min_freq_mhz < 0.0 {
                return Err(HarpError::Description {
                    detail: format!("{ctx}: invalid frequency range"),
                });
            }
            if not_pos(c.perf.ips_per_thread)
                || not_pos(c.perf.smt_rate_factor)
                || c.perf.smt_rate_factor > 1.0
            {
                return Err(HarpError::Description {
                    detail: format!("{ctx}: invalid performance parameters"),
                });
            }
            if c.power.core_idle_w < 0.0
                || not_pos(c.power.core_active_w)
                || c.power.smt_active_extra < 0.0
                || c.power.cluster_static_w < 0.0
            {
                return Err(HarpError::Description {
                    detail: format!("{ctx}: invalid power parameters"),
                });
            }
        }
        if self.package_static_w < 0.0 || not_pos(self.mem_bandwidth) {
            return Err(HarpError::Description {
                detail: "invalid package power or memory bandwidth".into(),
            });
        }
        Ok(())
    }

    /// Serializes the description to pretty JSON (the on-disk format of
    /// `/etc/harp/hardware.json`).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("name", self.name.as_str().into()),
            (
                "clusters",
                self.clusters.iter().map(ClusterDesc::encode).collect(),
            ),
            ("package_static_w", self.package_static_w.into()),
            ("mem_bandwidth", self.mem_bandwidth.into()),
        ])
        .to_pretty()
    }

    /// Parses a description from JSON and validates it. Every field is
    /// required and unknown keys are ignored; counts (`cores`,
    /// `smt_width`) must be non-negative whole numbers in range, where
    /// `8.0` reads as 8.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Description`] on malformed JSON or failed
    /// validation.
    pub fn from_json(json: &str) -> Result<Self> {
        let hw = json::parse(json)
            .and_then(|doc| Self::decode(&doc))
            .map_err(|e| HarpError::Description {
                detail: format!("malformed hardware description: {e}"),
            })?;
        hw.validate()?;
        Ok(hw)
    }

    fn decode(doc: &Json) -> std::result::Result<Self, String> {
        Ok(HardwareDescription {
            name: doc.str_field("name")?.to_string(),
            clusters: doc
                .arr_field("clusters")?
                .iter()
                .map(ClusterDesc::decode)
                .collect::<std::result::Result<_, _>>()?,
            package_static_w: doc.f64_field("package_static_w")?,
            mem_bandwidth: doc.f64_field("mem_bandwidth")?,
        })
    }

    /// Loads a description file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Io`] if the file cannot be read and
    /// [`HarpError::Description`] if its content is invalid.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Stores the description to disk as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Io`] if the file cannot be written.
    pub fn store(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn raptor_lake_topology() {
        let hw = presets::raptor_lake();
        hw.validate().unwrap();
        assert_eq!(hw.num_kinds(), 2);
        assert_eq!(hw.num_cores(), 24);
        assert_eq!(hw.total_hw_threads(), 32);
        assert_eq!(hw.capacity(), ResourceVector::new(vec![8, 16]));
        assert_eq!(hw.erv_shape(), ErvShape::new(vec![2, 1]));
        // Core 0..8 are P-cores, 8..24 E-cores.
        assert_eq!(hw.kind_of_core(CoreId(0)).unwrap(), CoreKind(0));
        assert_eq!(hw.kind_of_core(CoreId(7)).unwrap(), CoreKind(0));
        assert_eq!(hw.kind_of_core(CoreId(8)).unwrap(), CoreKind(1));
        assert_eq!(hw.kind_of_core(CoreId(23)).unwrap(), CoreKind(1));
        assert!(hw.kind_of_core(CoreId(24)).is_err());
        // Threads 0..16 belong to P-cores pairwise; 16..32 to E-cores.
        assert_eq!(hw.core_of_thread(HwThreadId(0)).unwrap(), CoreId(0));
        assert_eq!(hw.core_of_thread(HwThreadId(1)).unwrap(), CoreId(0));
        assert_eq!(hw.core_of_thread(HwThreadId(15)).unwrap(), CoreId(7));
        assert_eq!(hw.core_of_thread(HwThreadId(16)).unwrap(), CoreId(8));
        assert_eq!(hw.core_of_thread(HwThreadId(31)).unwrap(), CoreId(23));
        assert!(hw.core_of_thread(HwThreadId(32)).is_err());
        assert_eq!(
            hw.threads_of_core(CoreId(0)).unwrap(),
            vec![HwThreadId(0), HwThreadId(1)]
        );
        assert_eq!(hw.threads_of_core(CoreId(8)).unwrap(), vec![HwThreadId(16)]);
        assert_eq!(hw.thread_range_of_core(CoreId(7)).unwrap(), 14..16);
        assert!(hw.thread_range_of_core(CoreId(24)).is_err());
        assert_eq!(hw.core_range_of_kind(CoreKind(0)).unwrap(), 0..8);
        assert_eq!(hw.core_range_of_kind(CoreKind(1)).unwrap(), 8..24);
        assert!(hw.core_range_of_kind(CoreKind(2)).is_err());
        assert_eq!(
            hw.cores_of_kind(CoreKind(1)).unwrap().first(),
            Some(&CoreId(8))
        );
    }

    #[test]
    fn odroid_topology() {
        let hw = presets::odroid_xu3();
        hw.validate().unwrap();
        assert_eq!(hw.num_cores(), 8);
        assert_eq!(hw.total_hw_threads(), 8);
        assert_eq!(hw.capacity(), ResourceVector::new(vec![4, 4]));
        assert_eq!(hw.erv_shape(), ErvShape::new(vec![1, 1]));
    }

    #[test]
    fn p_cores_faster_e_cores_more_efficient() {
        let hw = presets::raptor_lake();
        let p = &hw.clusters[0];
        let e = &hw.clusters[1];
        let p_rate = p.thread_rate(p.max_freq_mhz, 1);
        let e_rate = e.thread_rate(e.max_freq_mhz, 1);
        assert!(p_rate > 1.4 * e_rate, "P-cores must be clearly faster");
        let p_eff = p_rate / p.core_power(p.max_freq_mhz, 1);
        let e_eff = e_rate / e.core_power(e.max_freq_mhz, 1);
        assert!(
            e_eff > 1.5 * p_eff,
            "E-cores must be clearly more energy efficient: {e_eff} vs {p_eff}"
        );
    }

    #[test]
    fn smt_increases_core_throughput_but_not_per_thread() {
        let hw = presets::raptor_lake();
        let p = &hw.clusters[0];
        let alone = p.thread_rate(p.max_freq_mhz, 1);
        let shared = p.thread_rate(p.max_freq_mhz, 2);
        assert!(shared < alone);
        assert!(2.0 * shared > alone, "two siblings beat one thread");
    }

    #[test]
    fn power_model_monotonic_in_freq_and_busy() {
        let hw = presets::raptor_lake();
        let p = &hw.clusters[0];
        assert_eq!(p.core_power(p.max_freq_mhz, 0), p.power.core_idle_w);
        let half = p.core_power(p.max_freq_mhz / 2.0, 1);
        let full = p.core_power(p.max_freq_mhz, 1);
        let full_smt = p.core_power(p.max_freq_mhz, 2);
        assert!(half < full);
        assert!(full < full_smt);
        // Cubic scaling: half frequency ≈ 1/8 dynamic power.
        let dyn_half = half - p.power.core_idle_w;
        let dyn_full = full - p.power.core_idle_w;
        assert!((dyn_half / dyn_full - 0.125).abs() < 1e-9);
    }

    #[test]
    fn json_round_trip() {
        let hw = presets::raptor_lake();
        let json = hw.to_json();
        let back = HardwareDescription::from_json(&json).unwrap();
        assert_eq!(hw, back);
    }

    #[test]
    fn from_json_rejects_invalid() {
        assert!(HardwareDescription::from_json("not json").is_err());
        let mut hw = presets::raptor_lake();
        hw.clusters[0].cores = 0;
        let json = hw.to_json();
        assert!(matches!(
            HardwareDescription::from_json(&json),
            Err(HarpError::Description { .. })
        ));
    }

    #[test]
    fn load_store_round_trip() {
        let hw = presets::odroid_xu3();
        let dir = std::env::temp_dir().join(format!("harp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hw.json");
        hw.store(&path).unwrap();
        let back = HardwareDescription::load(&path).unwrap();
        assert_eq!(hw, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let base = presets::raptor_lake();
        let mut a = base.clone();
        a.clusters.clear();
        assert!(a.validate().is_err());
        let mut b = base.clone();
        b.clusters[0].perf.smt_rate_factor = 1.5;
        assert!(b.validate().is_err());
        let mut c = base.clone();
        c.clusters[1].min_freq_mhz = 1e9;
        assert!(c.validate().is_err());
        let mut d = base.clone();
        d.mem_bandwidth = 0.0;
        assert!(d.validate().is_err());
        let mut e = base;
        e.clusters[0].power.core_active_w = 0.0;
        assert!(e.validate().is_err());
    }
}

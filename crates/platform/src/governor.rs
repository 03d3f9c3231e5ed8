//! Models of the Linux frequency-scaling governors used in the evaluation
//! (paper §6.1 and §6.3.3).
//!
//! The paper runs the default governor (`powersave` with HWP on Intel,
//! `schedutil` on the Odroid) and repeats the Intel experiments under
//! `performance` to study the interaction between DVFS and HARP. The models
//! here capture the governors' steady-state frequency choice as a function
//! of cluster utilization; they are evaluated per cluster at every
//! simulation step.

use crate::desc::ClusterDesc;
use std::fmt;
use std::str::FromStr;

/// A frequency-scaling governor model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Governor {
    /// Always run at the maximum allowed frequency. Disables the processor's
    /// energy-saving ramping (paper §6.3.3).
    Performance,
    /// Intel HWP-style default: scales frequency with utilization but ramps
    /// conservatively below saturation (sub-linear in utilization).
    Powersave,
    /// The mainline `schedutil` governor: `f = 1.25 · util · f_max`,
    /// clamped to the cluster's frequency range.
    #[default]
    Schedutil,
}

impl Governor {
    /// Steady-state frequency (MHz) the governor selects for a cluster given
    /// the fraction of its hardware threads that are busy (`0.0..=1.0`).
    ///
    /// Real DVFS governors track *per-CPU* utilization and raise the shared
    /// frequency domain to satisfy its busiest CPU, so a cluster with any
    /// fully-busy hardware thread runs at (or near) the cap: `schedutil`
    /// jumps straight to the maximum, while HWP-`powersave` biases a few
    /// percent below the cap for lightly-occupied clusters — the small
    /// difference the paper observes in §6.3.3.
    ///
    /// # Example
    ///
    /// ```
    /// use harp_platform::{Governor, HardwareDescription};
    /// let hw = HardwareDescription::raptor_lake();
    /// let p = &hw.clusters[0];
    /// assert_eq!(Governor::Performance.frequency(p, 0.0), p.max_freq_mhz);
    /// assert!(Governor::Powersave.frequency(p, 0.1) < p.max_freq_mhz);
    /// // Saturated clusters run at the cap under every governor.
    /// assert!(Governor::Schedutil.frequency(p, 1.0) >= p.max_freq_mhz * 0.99);
    /// ```
    pub fn frequency(&self, cluster: &ClusterDesc, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let (lo, hi) = (cluster.min_freq_mhz, cluster.max_freq_mhz);
        match self {
            Governor::Performance => hi,
            Governor::Powersave => {
                if u == 0.0 {
                    lo
                } else {
                    // Energy-biased HWP: 90 % of the range for a single busy
                    // CPU, ramping to the cap as the cluster fills up.
                    lo + (hi - lo) * (0.90 + 0.10 * u)
                }
            }
            Governor::Schedutil => {
                if u == 0.0 {
                    lo
                } else {
                    hi
                }
            }
        }
    }

    /// The platform-default governor the paper uses for each system
    /// (§6.1): `powersave` on Intel machines, `schedutil` on Arm boards.
    pub fn platform_default(machine_name: &str) -> Governor {
        if machine_name.to_ascii_lowercase().contains("intel") {
            Governor::Powersave
        } else {
            Governor::Schedutil
        }
    }
}

impl fmt::Display for Governor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Governor::Performance => "performance",
            Governor::Powersave => "powersave",
            Governor::Schedutil => "schedutil",
        };
        f.write_str(name)
    }
}

impl FromStr for Governor {
    type Err = harp_types::HarpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "performance" => Ok(Governor::Performance),
            "powersave" => Ok(Governor::Powersave),
            "schedutil" => Ok(Governor::Schedutil),
            other => Err(harp_types::HarpError::Description {
                detail: format!("unknown governor '{other}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn performance_ignores_utilization() {
        let hw = presets::raptor_lake();
        let c = &hw.clusters[0];
        for u in [0.0, 0.3, 1.0] {
            assert_eq!(Governor::Performance.frequency(c, u), c.max_freq_mhz);
        }
    }

    #[test]
    fn scaling_governors_are_monotonic() {
        let hw = presets::raptor_lake();
        let c = &hw.clusters[1];
        for g in [Governor::Powersave, Governor::Schedutil] {
            let mut last = 0.0;
            for i in 0..=10 {
                let f = g.frequency(c, i as f64 / 10.0);
                assert!(f >= last, "{g} not monotonic at {i}");
                assert!(f >= c.min_freq_mhz && f <= c.max_freq_mhz);
                last = f;
            }
            // Saturated load -> full frequency.
            assert!((g.frequency(c, 1.0) - c.max_freq_mhz).abs() < 1.0);
        }
    }

    #[test]
    fn busy_cpus_drive_the_domain_to_the_cap() {
        let hw = presets::odroid_xu3();
        let c = &hw.clusters[0];
        // Any busy CPU raises the shared frequency domain to the cap under
        // schedutil (per-CPU utilization semantics).
        assert_eq!(Governor::Schedutil.frequency(c, 1.0 / 4.0), c.max_freq_mhz);
        assert_eq!(Governor::Schedutil.frequency(c, 0.0), c.min_freq_mhz);
        // Powersave stays a few percent below the cap for light occupancy.
        let f = Governor::Powersave.frequency(c, 1.0 / 4.0);
        assert!(f < c.max_freq_mhz && f > 0.85 * c.max_freq_mhz);
    }

    #[test]
    fn utilization_is_clamped() {
        let hw = presets::raptor_lake();
        let c = &hw.clusters[0];
        assert_eq!(
            Governor::Schedutil.frequency(c, 7.0),
            Governor::Schedutil.frequency(c, 1.0)
        );
        assert_eq!(
            Governor::Powersave.frequency(c, -3.0),
            Governor::Powersave.frequency(c, 0.0)
        );
    }

    #[test]
    fn display_and_parse_round_trip() {
        for g in [
            Governor::Performance,
            Governor::Powersave,
            Governor::Schedutil,
        ] {
            let s = g.to_string();
            assert_eq!(s.parse::<Governor>().unwrap(), g);
        }
        assert!("ondemand".parse::<Governor>().is_err());
    }

    #[test]
    fn platform_defaults_match_paper() {
        assert_eq!(
            Governor::platform_default("Intel Raptor Lake Core i9-13900K"),
            Governor::Powersave
        );
        assert_eq!(
            Governor::platform_default("Odroid XU3-E (Exynos 5422)"),
            Governor::Schedutil
        );
    }
}

//! The benchmark suite of the HARP evaluation, as calibrated behaviour
//! models for the machine simulator.
//!
//! The paper evaluates HARP with (§6.2):
//!
//! * the OpenMP **NAS Parallel Benchmarks** v3.4.2 — class C on the Intel
//!   Raptor Lake system, class A on the Odroid XU3-E ([`npb`]);
//! * six **Intel TBB** benchmarks: `binpack`, `fractal`,
//!   `parallel-preorder`, `pi`, `primes`, `seismic` ([`tbb`]);
//! * two **TensorFlow Lite** image-recognition models (VGG, AlexNet) with a
//!   HARP-enabled wrapper that scales parallelism and reports an
//!   application-specific utility ([`tensorflow`]);
//! * two embedded **KPN** applications (`mandelbrot`, `lms`), each in a
//!   static-topology and an adaptive variant ([`kpn`]).
//!
//! Each model encodes the published qualitative behaviour of its namesake —
//! `ep` is compute-bound and SMT-friendly, `mg` is memory-bandwidth-bound,
//! `binpack` convoys on a shared input queue, TBB programs work-steal,
//! NPB-OpenMP programs use static loop schedules — with work sizes chosen so
//! simulated baseline runtimes land in the ranges the paper reports (e.g.
//! `ep.C` ≈ 2.4 s under CFS, §6.5.1).
//!
//! [`scenarios`] assembles the single- and multi-application scenarios of
//! Figs. 6–8; [`trace`] and [`tracegen`] are the canonical workload-trace
//! format and its seeded generator.
//!
//! # Example
//!
//! ```
//! use harp_workload::{Platform, benchmark};
//!
//! let ep = benchmark(Platform::RaptorLake, "ep").unwrap();
//! assert!(ep.mem_intensity < 0.1); // embarrassingly parallel
//! let mg = benchmark(Platform::RaptorLake, "mg").unwrap();
//! assert!(mg.mem_intensity > 0.7); // memory-bound
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kpn;
pub mod npb;
pub mod scenarios;
pub mod tbb;
pub mod tensorflow;
pub mod trace;
pub mod tracegen;

pub use scenarios::Scenario;
pub use trace::{Template, Trace, TraceEvent};
pub use tracegen::{generate_trace, TraceGenConfig, TraceShape};

use harp_platform::HardwareDescription;
use harp_sim::AppSpec;

/// The two evaluation platforms of the paper (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Intel Raptor Lake Core i9-13900K (8 P-cores with SMT + 16 E-cores).
    RaptorLake,
    /// Odroid XU3-E (4× Cortex-A15 + 4× Cortex-A7).
    Odroid,
}

impl Platform {
    /// The platform's hardware description.
    pub fn hardware(&self) -> HardwareDescription {
        match self {
            Platform::RaptorLake => HardwareDescription::raptor_lake(),
            Platform::Odroid => HardwareDescription::odroid_xu3(),
        }
    }

    /// Number of core kinds (2 on both platforms).
    pub fn num_kinds(&self) -> usize {
        2
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Platform::RaptorLake => f.write_str("Intel Raptor Lake i9-13900K"),
            Platform::Odroid => f.write_str("Odroid XU3-E"),
        }
    }
}

/// Looks up any benchmark of the platform's suite by name.
///
/// Intel names: the NPB codes (`bt`, `cg`, `ep`, `ft`, `is`, `lu`, `mg`,
/// `sp`, `ua`), the TBB benchmarks (`binpack`, `fractal`,
/// `parallel_preorder`, `pi`, `primes`, `seismic`) and the TensorFlow models
/// (`vgg`, `alexnet`). Odroid names: the NPB codes plus `mandelbrot`,
/// `mandelbrot-static`, `lms`, `lms-static`.
pub fn benchmark(platform: Platform, name: &str) -> Option<AppSpec> {
    match platform {
        Platform::RaptorLake => npb::intel(name)
            .or_else(|| tbb::benchmark(name))
            .or_else(|| tensorflow::benchmark(name)),
        Platform::Odroid => npb::odroid(name).or_else(|| kpn::benchmark(name)),
    }
}

/// All benchmarks of a platform's suite, in presentation order.
pub fn suite(platform: Platform) -> Vec<AppSpec> {
    match platform {
        Platform::RaptorLake => {
            let mut v: Vec<AppSpec> = npb::NPB_NAMES
                .iter()
                .map(|n| npb::intel(n).expect("known npb"))
                .collect();
            v.extend(tbb::TBB_NAMES.iter().map(|n| tbb::benchmark(n).unwrap()));
            v.extend(
                tensorflow::TF_NAMES
                    .iter()
                    .map(|n| tensorflow::benchmark(n).unwrap()),
            );
            v
        }
        Platform::Odroid => {
            let mut v: Vec<AppSpec> = npb::NPB_NAMES
                .iter()
                .map(|n| npb::odroid(n).expect("known npb"))
                .collect();
            v.extend(kpn::KPN_NAMES.iter().map(|n| kpn::benchmark(n).unwrap()));
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suite_specs_validate() {
        for platform in [Platform::RaptorLake, Platform::Odroid] {
            let hw = platform.hardware();
            for spec in suite(platform) {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert_eq!(spec.kind_efficiency.len(), hw.num_kinds(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn suites_have_paper_sizes() {
        // Intel: 9 NPB + 6 TBB + 2 TF = 17; Odroid: 9 NPB + 4 KPN variants.
        assert_eq!(suite(Platform::RaptorLake).len(), 17);
        assert_eq!(suite(Platform::Odroid).len(), 13);
    }

    #[test]
    fn lookup_is_case_sensitive_and_total() {
        assert!(benchmark(Platform::RaptorLake, "ep").is_some());
        assert!(benchmark(Platform::RaptorLake, "binpack").is_some());
        assert!(benchmark(Platform::RaptorLake, "vgg").is_some());
        assert!(benchmark(Platform::RaptorLake, "mandelbrot").is_none());
        assert!(benchmark(Platform::Odroid, "mandelbrot").is_some());
        assert!(benchmark(Platform::Odroid, "binpack").is_none());
        assert!(benchmark(Platform::RaptorLake, "nope").is_none());
    }

    #[test]
    fn suite_names_are_unique() {
        for platform in [Platform::RaptorLake, Platform::Odroid] {
            let mut names: Vec<String> = suite(platform).into_iter().map(|s| s.name).collect();
            let n = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), n);
        }
    }
}

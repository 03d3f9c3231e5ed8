//! Application behaviour specifications.
//!
//! An [`AppSpec`] captures everything the simulator needs to know about how
//! an application responds to resources — the response surface over core
//! kinds, SMT, thread counts and memory bandwidth that the paper's Fig. 1
//! visualizes per benchmark. The concrete calibrated specs for the paper's
//! benchmark suite live in `harp-workload`.

use harp_types::{HarpError, PriorityClass, Result};

/// How many workers a phase runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseWidth {
    /// One thread (the master). Models sequential sections.
    Serial,
    /// The whole current team (data-parallel region). The team size is the
    /// application's parallelization degree, adjustable at runtime for
    /// scalable applications.
    Team,
    /// A fixed number of workers regardless of team size (the static KPN
    /// topologies of §6.2: the region width is baked into the process
    /// network).
    Fixed(u32),
}

/// One phase of an application: `iterations` barrier-synchronized steps that
/// together retire `work` work units.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Total work units retired by this phase.
    pub work: f64,
    /// Number of barrier iterations the work is spread over. More
    /// iterations = finer-grained synchronization = faster reaction to
    /// team-size changes but more barrier overhead exposure.
    pub iterations: u32,
    /// Parallel width of the phase.
    pub width: PhaseWidth,
}

/// Synchronization/contention losses as a function of the number of active
/// workers `n`: each worker's rate is multiplied by
/// `1 / (1 + linear·(n−1) + quadratic·(n−1)²)`.
///
/// With `quadratic > 0` the *aggregate* throughput peaks at a finite worker
/// count and then falls — the shared-input-queue convoy that makes the
/// paper's `binpack` 6.9× faster when HARP scales it down (§6.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContentionModel {
    /// Linear loss coefficient.
    pub linear: f64,
    /// Quadratic (convoy) loss coefficient.
    pub quadratic: f64,
}

impl ContentionModel {
    /// No contention at all.
    pub fn none() -> Self {
        ContentionModel::default()
    }

    /// Per-worker rate multiplier for `n` active workers.
    pub fn factor(&self, n: u32) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let k = (n - 1) as f64;
        1.0 / (1.0 + self.linear * k + self.quadratic * k * k)
    }

    /// Aggregate throughput multiplier (`n · factor(n)`), useful for
    /// finding the sweet spot in tests.
    pub fn aggregate(&self, n: u32) -> f64 {
        n as f64 * self.factor(n)
    }
}

/// A complete application behaviour model.
///
/// Construct via [`AppSpec::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name (operating-point profiles are keyed by it).
    pub name: String,
    /// Execution phases, in order.
    pub phases: Vec<PhaseSpec>,
    /// Per-core-kind progress efficiency: multiplies the core's nominal
    /// rate. Values < 1 model codes that extract less IPC from a kind
    /// (e.g. a float-heavy kernel on in-order little cores).
    pub kind_efficiency: Vec<f64>,
    /// Fraction of the execution rate that demands memory bandwidth
    /// (`0.0` = compute-bound, `→1.0` = fully memory-bound like `mg`).
    pub mem_intensity: f64,
    /// Multiplier on the platform's SMT per-sibling rate factor: > 1 for
    /// SMT-friendly codes (`ep`), < 1 for SMT-averse ones.
    pub smt_efficiency: f64,
    /// Synchronization/contention losses vs. worker count.
    pub contention: ContentionModel,
    /// Lock-holder-preemption sensitivity: when `q` runnable threads share
    /// one hardware thread, each runs at `1/q · 1/(1 + penalty·(q−1))`.
    pub preemption_penalty: f64,
    /// Extra barrier-imbalance loss when a *statically* balanced team spans
    /// multiple core kinds (paper §2.2: even distribution on heterogeneous
    /// cores leaves fast cores stalled at every barrier; rate-proportional
    /// chunking alone understates the cost because real imbalance also
    /// comes from cache behaviour and scheduling jitter). Applied as a
    /// per-worker rate factor `1/(1+penalty)`; zero for applications with
    /// dynamic load balancing.
    pub hetero_penalty: f64,
    /// Whether workers redistribute iteration chunks proportionally to
    /// their observed rates (the dynamic load balancing of §2.2/§3.3);
    /// otherwise chunks are equal and the barrier waits for stragglers.
    pub dynamic_balance: bool,
    /// Per-core-kind inflation of the *measured* instruction counter
    /// relative to useful progress (spin loops, runtime overhead). `1.0`
    /// means IPS reflects progress exactly; larger values make IPS an
    /// imperfect utility — the `lu` effect of §6.3.1.
    pub ips_inflation: Vec<f64>,
    /// Whether the application reports an application-specific utility
    /// metric through libharp (then utility = true progress rate instead of
    /// measured IPS).
    pub provides_utility: bool,
    /// Tenant priority class; the HARP manager forwards it to the RM, which
    /// scales the session's allocation costs by the class weight.
    pub priority: PriorityClass,
}

impl AppSpec {
    /// Starts building a spec for a platform with `num_kinds` core kinds.
    pub fn builder(name: impl Into<String>, num_kinds: usize) -> AppSpecBuilder {
        AppSpecBuilder::new(name, num_kinds)
    }

    /// Total work units across all phases.
    pub fn total_work(&self) -> f64 {
        self.phases.iter().map(|p| p.work).sum()
    }

    /// The widest fixed phase width, if any phase uses one.
    pub fn max_fixed_width(&self) -> Option<u32> {
        self.phases
            .iter()
            .filter_map(|p| match p.width {
                PhaseWidth::Fixed(n) => Some(n),
                _ => None,
            })
            .max()
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Description`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        // "Not strictly positive", with NaN counted as invalid.
        let not_pos = |x: f64| x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater);
        if self.phases.is_empty() {
            return Err(HarpError::Description {
                detail: format!("app '{}' has no phases", self.name),
            });
        }
        for (i, p) in self.phases.iter().enumerate() {
            if not_pos(p.work) {
                return Err(HarpError::Description {
                    detail: format!("app '{}' phase {i}: non-positive work", self.name),
                });
            }
            if p.iterations == 0 {
                return Err(HarpError::Description {
                    detail: format!("app '{}' phase {i}: zero iterations", self.name),
                });
            }
            if let PhaseWidth::Fixed(0) = p.width {
                return Err(HarpError::Description {
                    detail: format!("app '{}' phase {i}: zero fixed width", self.name),
                });
            }
        }
        if self.kind_efficiency.is_empty()
            || self.kind_efficiency.iter().any(|&e| not_pos(e))
            || self.ips_inflation.len() != self.kind_efficiency.len()
            || self
                .ips_inflation
                .iter()
                .any(|&e| e.partial_cmp(&1.0).is_none_or(|o| o.is_lt()))
        {
            return Err(HarpError::Description {
                detail: format!("app '{}': invalid per-kind parameters", self.name),
            });
        }
        if !(0.0..=1.0).contains(&self.mem_intensity)
            || not_pos(self.smt_efficiency)
            || self.preemption_penalty < 0.0
            || self.hetero_penalty < 0.0
            || self.contention.linear < 0.0
            || self.contention.quadratic < 0.0
        {
            return Err(HarpError::Description {
                detail: format!("app '{}': invalid scalar parameters", self.name),
            });
        }
        Ok(())
    }
}

/// Builder for [`AppSpec`] (see [`AppSpec::builder`]).
#[derive(Debug, Clone)]
pub struct AppSpecBuilder {
    name: String,
    num_kinds: usize,
    total_work: f64,
    serial_fraction: f64,
    iterations: u32,
    phases: Option<Vec<PhaseSpec>>,
    kind_efficiency: Vec<f64>,
    mem_intensity: f64,
    smt_efficiency: f64,
    contention: ContentionModel,
    preemption_penalty: f64,
    hetero_penalty: f64,
    dynamic_balance: bool,
    ips_inflation: Vec<f64>,
    provides_utility: bool,
    priority: PriorityClass,
}

impl AppSpecBuilder {
    fn new(name: impl Into<String>, num_kinds: usize) -> Self {
        AppSpecBuilder {
            name: name.into(),
            num_kinds,
            total_work: 1.0e10,
            serial_fraction: 0.02,
            iterations: 200,
            phases: None,
            kind_efficiency: vec![1.0; num_kinds],
            mem_intensity: 0.0,
            smt_efficiency: 1.0,
            contention: ContentionModel::none(),
            preemption_penalty: 0.22,
            hetero_penalty: 0.20,
            dynamic_balance: false,
            ips_inflation: vec![1.0; num_kinds],
            provides_utility: false,
            priority: PriorityClass::Standard,
        }
    }

    /// Total work units (default `1e10`). Ignored when explicit
    /// [`phases`](Self::phases) are given.
    pub fn total_work(mut self, work: f64) -> Self {
        self.total_work = work;
        self
    }

    /// Fraction of the work that is sequential (default `0.02`). Ignored
    /// when explicit phases are given.
    pub fn serial_fraction(mut self, f: f64) -> Self {
        self.serial_fraction = f;
        self
    }

    /// Barrier iterations of the parallel phase (default `200`). Ignored
    /// when explicit phases are given.
    pub fn iterations(mut self, n: u32) -> Self {
        self.iterations = n;
        self
    }

    /// Replaces the default serial+parallel structure with explicit phases.
    pub fn phases(mut self, phases: Vec<PhaseSpec>) -> Self {
        self.phases = Some(phases);
        self
    }

    /// Per-kind progress efficiency (length must equal `num_kinds`).
    pub fn kind_efficiency(mut self, eff: Vec<f64>) -> Self {
        self.kind_efficiency = eff;
        self
    }

    /// Memory-bandwidth intensity in `[0, 1]`.
    pub fn mem_intensity(mut self, mi: f64) -> Self {
        self.mem_intensity = mi;
        self
    }

    /// SMT efficiency multiplier.
    pub fn smt_efficiency(mut self, s: f64) -> Self {
        self.smt_efficiency = s;
        self
    }

    /// Contention model.
    pub fn contention(mut self, c: ContentionModel) -> Self {
        self.contention = c;
        self
    }

    /// Lock-holder-preemption sensitivity.
    pub fn preemption_penalty(mut self, p: f64) -> Self {
        self.preemption_penalty = p;
        self
    }

    /// Heterogeneous-barrier-imbalance penalty (see [`AppSpec`]).
    pub fn hetero_penalty(mut self, p: f64) -> Self {
        self.hetero_penalty = p;
        self
    }

    /// Enables dynamic (rate-proportional) chunk balancing.
    pub fn dynamic_balance(mut self, on: bool) -> Self {
        self.dynamic_balance = on;
        self
    }

    /// Per-kind IPS inflation factors (≥ 1, length `num_kinds`).
    pub fn ips_inflation(mut self, infl: Vec<f64>) -> Self {
        self.ips_inflation = infl;
        self
    }

    /// Marks the application as providing its own utility metric.
    pub fn provides_utility(mut self, yes: bool) -> Self {
        self.provides_utility = yes;
        self
    }

    /// Tenant priority class (default [`PriorityClass::Standard`]).
    pub fn priority(mut self, class: PriorityClass) -> Self {
        self.priority = class;
        self
    }

    /// Finalizes and validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Description`] if the configuration is invalid.
    pub fn build(self) -> Result<AppSpec> {
        let phases = match self.phases {
            Some(p) => p,
            None => {
                let serial = self.total_work * self.serial_fraction;
                let parallel = self.total_work - serial;
                let mut v = Vec::new();
                if serial > 0.0 {
                    v.push(PhaseSpec {
                        work: serial,
                        iterations: 1,
                        width: PhaseWidth::Serial,
                    });
                }
                v.push(PhaseSpec {
                    work: parallel,
                    iterations: self.iterations,
                    width: PhaseWidth::Team,
                });
                v
            }
        };
        let spec = AppSpec {
            name: self.name,
            phases,
            kind_efficiency: self.kind_efficiency,
            mem_intensity: self.mem_intensity,
            smt_efficiency: self.smt_efficiency,
            contention: self.contention,
            preemption_penalty: self.preemption_penalty,
            hetero_penalty: self.hetero_penalty,
            dynamic_balance: self.dynamic_balance,
            ips_inflation: self.ips_inflation,
            provides_utility: self.provides_utility,
            priority: self.priority,
        };
        debug_assert_eq!(spec.kind_efficiency.len(), self.num_kinds);
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_produce_serial_plus_parallel() {
        let s = AppSpec::builder("x", 2).total_work(100.0).build().unwrap();
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].width, PhaseWidth::Serial);
        assert_eq!(s.phases[1].width, PhaseWidth::Team);
        assert!((s.total_work() - 100.0).abs() < 1e-9);
        assert!((s.phases[0].work - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_serial_fraction_has_single_phase() {
        let s = AppSpec::builder("x", 1)
            .serial_fraction(0.0)
            .build()
            .unwrap();
        assert_eq!(s.phases.len(), 1);
    }

    #[test]
    fn explicit_phases_override_defaults() {
        let s = AppSpec::builder("kpn", 2)
            .phases(vec![
                PhaseSpec {
                    work: 10.0,
                    iterations: 5,
                    width: PhaseWidth::Fixed(3),
                },
                PhaseSpec {
                    work: 20.0,
                    iterations: 10,
                    width: PhaseWidth::Team,
                },
            ])
            .build()
            .unwrap();
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.max_fixed_width(), Some(3));
    }

    #[test]
    fn validation_catches_errors() {
        assert!(AppSpec::builder("x", 2).total_work(0.0).build().is_err());
        assert!(AppSpec::builder("x", 2)
            .kind_efficiency(vec![1.0, 0.0])
            .build()
            .is_err());
        assert!(AppSpec::builder("x", 2).mem_intensity(1.5).build().is_err());
        assert!(AppSpec::builder("x", 2)
            .ips_inflation(vec![0.5, 1.0])
            .build()
            .is_err());
        assert!(AppSpec::builder("x", 2)
            .phases(vec![PhaseSpec {
                work: 1.0,
                iterations: 0,
                width: PhaseWidth::Team
            }])
            .build()
            .is_err());
        assert!(AppSpec::builder("x", 2)
            .phases(vec![PhaseSpec {
                work: 1.0,
                iterations: 1,
                width: PhaseWidth::Fixed(0)
            }])
            .build()
            .is_err());
        assert!(AppSpec::builder("x", 2).phases(vec![]).build().is_err());
    }

    #[test]
    fn contention_factor_shapes() {
        let none = ContentionModel::none();
        assert_eq!(none.factor(1), 1.0);
        assert_eq!(none.factor(32), 1.0);
        // Convoy: aggregate throughput peaks and then falls.
        let convoy = ContentionModel {
            linear: 0.05,
            quadratic: 0.08,
        };
        let peak_n = (1..=32).max_by(|&a, &b| {
            convoy
                .aggregate(a)
                .partial_cmp(&convoy.aggregate(b))
                .unwrap()
        });
        let peak = peak_n.unwrap();
        assert!(peak > 1 && peak < 16, "peak at {peak}");
        assert!(convoy.aggregate(32) < convoy.aggregate(peak));
    }
}

//! Runtime exploration of operating points (paper §5).
//!
//! Desktop and server applications usually ship without operating-point
//! descriptions, so the HARP RM learns them online: it runs each
//! application through a sequence of measurement campaigns over candidate
//! extended resource vectors, smooths the measured utility and power with
//! an EMA, and fits a regression model to approximate the rest of the
//! configuration space.
//!
//! Per application, exploration progresses through three maturity stages
//! (§5.3):
//!
//! 1. **Initial** — too few measurements for even a preliminary model. The
//!    next configuration is the one *furthest* (max-min Euclidean distance
//!    over extended resource vectors) from everything measured, maximizing
//!    diversity.
//! 2. **Refinement** — a preliminary model exists but is imprecise. The
//!    heuristic first hunts for model anomalies: configurations with
//!    *negative* predicted utility or power, scored by the combined
//!    magnitude of the negative deviations. If none exist, it compares the
//!    primary model against an auxiliary model anchored by a zero point
//!    (zero utility and power for zero cores) and measures the
//!    configuration where the two models disagree most.
//! 3. **Stable** — 25 configurations measured; the RM allocates from the
//!    table and re-evaluates on a long cycle (every 100 measurements).
//!
//! Each selected configuration is measured 20 times at 50 ms intervals
//! before the next target is chosen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use harp_model::{Ema, ModelKind, NfcModel};
use harp_types::pareto;
use harp_types::{
    ErvShape, ExtResourceVector, HarpError, NonFunctional, OpId, OperatingPointTable,
    ResourceVector, Result,
};
use std::sync::Arc;

/// Maturity of an application's operating-point table (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Too few measured points for a model; maximize diversity.
    Initial,
    /// Model exists but needs targeted refinement.
    Refinement,
    /// Enough points for reliable approximation; allocate and monitor.
    Stable,
}

/// Exploration parameters (defaults = the paper's evaluation settings).
#[derive(Debug, Clone)]
pub struct ExplorationConfig {
    /// Measured configurations needed to leave the initial stage.
    pub initial_threshold: usize,
    /// Measured configurations needed to become stable (paper: 25).
    pub stable_threshold: usize,
    /// Samples per measurement campaign (paper: 20).
    pub measurements_per_point: u32,
    /// Interval between samples in nanoseconds (paper: 50 ms).
    pub measurement_interval_ns: u64,
    /// In the stable stage, re-run allocation every this many measurements
    /// (paper: 100).
    pub stable_realloc_every: u64,
    /// Regression model family (paper: second-degree polynomial).
    pub model: ModelKind,
    /// EMA smoothing factor for measurements (paper: 0.1).
    pub ema_alpha: f64,
    /// Seed for stochastic models.
    pub seed: u64,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        ExplorationConfig {
            initial_threshold: 8,
            stable_threshold: 25,
            measurements_per_point: 20,
            measurement_interval_ns: 50_000_000,
            stable_realloc_every: 100,
            model: ModelKind::runtime_default(),
            ema_alpha: 0.1,
            seed: 0,
        }
    }
}

/// Result of feeding one sample to the current measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutcome {
    /// Keep measuring the current target.
    Continue,
    /// The campaign finished; the smoothed result was recorded and a new
    /// target should be selected.
    TargetDone,
}

#[derive(Debug)]
struct Campaign {
    erv: ExtResourceVector,
    ema_utility: Ema,
    ema_power: Ema,
    samples: u32,
}

/// Per-application exploration state machine.
#[derive(Debug)]
pub struct Explorer {
    shape: ErvShape,
    /// The machine's candidate space, shared by every explorer of the
    /// machine (see [`Explorer::candidate_space`]).
    candidates: Arc<[ExtResourceVector]>,
    table: OperatingPointTable,
    /// Bumped by every method that changes `table`, so callers can key
    /// anything derived from the table on it.
    generation: u64,
    cfg: ExplorationConfig,
    campaign: Option<Campaign>,
    total_samples: u64,
}

impl Explorer {
    /// Creates an explorer for an application on a platform with the given
    /// vector shape and total capacity. The candidate space is every
    /// non-zero extended resource vector within capacity.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if shape and capacity disagree.
    pub fn new(
        shape: &ErvShape,
        capacity: &ResourceVector,
        cfg: ExplorationConfig,
    ) -> Result<Self> {
        Self::with_candidates(shape, Self::candidate_space(shape, capacity)?, cfg)
    }

    /// Every non-zero extended resource vector within `capacity`: the
    /// candidate space of a machine. It is a pure function of the machine,
    /// so a manager of many applications builds it once and hands it to
    /// each [`Explorer::with_candidates`].
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if shape and capacity disagree.
    pub fn candidate_space(
        shape: &ErvShape,
        capacity: &ResourceVector,
    ) -> Result<Arc<[ExtResourceVector]>> {
        Ok(ExtResourceVector::enumerate(shape, capacity)?
            .into_iter()
            .filter(|e| !e.is_zero())
            .collect())
    }

    /// Creates an explorer over a shared candidate space built by
    /// [`Explorer::candidate_space`] for the same `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Other`] if the candidate space is empty.
    pub fn with_candidates(
        shape: &ErvShape,
        candidates: Arc<[ExtResourceVector]>,
        cfg: ExplorationConfig,
    ) -> Result<Self> {
        if candidates.is_empty() {
            return Err(HarpError::other("empty exploration candidate space"));
        }
        Ok(Explorer {
            shape: shape.clone(),
            candidates,
            table: OperatingPointTable::new(),
            generation: 0,
            cfg,
            campaign: None,
            total_samples: 0,
        })
    }

    /// Seeds the table with measured points from an offline description
    /// file (the *HARP (Offline)* configuration of the evaluation). An
    /// explorer seeded beyond the stable threshold starts stable.
    pub fn seed_measured(
        &mut self,
        points: impl IntoIterator<Item = (ExtResourceVector, NonFunctional)>,
    ) {
        for (erv, nfc) in points {
            self.table.record_measurement(erv, nfc);
        }
        self.generation += 1;
    }

    /// The application's operating-point table (measured + predicted).
    pub fn table(&self) -> &OperatingPointTable {
        &self.table
    }

    /// The table's generation: it differs between two reads iff a method
    /// that changes the table ([`Explorer::seed_measured`], a completed
    /// [`Explorer::record_sample`] campaign, [`Explorer::record_ambient`],
    /// a successful [`Explorer::refresh_predictions`]) ran in between.
    /// Whatever a caller derives from the table stays valid while the
    /// generation does.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Consumes the explorer and returns its table with the predictions
    /// stripped: the learned profile to persist (predictions are recomputed
    /// from the measured points).
    pub fn into_table(self) -> OperatingPointTable {
        self.table.into_measured()
    }

    /// Total samples recorded so far.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Current maturity stage.
    pub fn stage(&self) -> Stage {
        let measured = self.table.measured_count();
        if measured >= self.cfg.stable_threshold {
            Stage::Stable
        } else if measured >= self.cfg.initial_threshold {
            Stage::Refinement
        } else {
            Stage::Initial
        }
    }

    /// The exploration configuration.
    pub fn config(&self) -> &ExplorationConfig {
        &self.cfg
    }

    /// The target currently being measured, if a campaign is running.
    pub fn current_target(&self) -> Option<&ExtResourceVector> {
        self.campaign.as_ref().map(|c| &c.erv)
    }

    /// Starts a measurement campaign for the next most informative
    /// configuration that fits within `available` resources. Returns the
    /// chosen vector, or `None` when the application is stable or nothing
    /// unmeasured fits.
    pub fn begin_target(&mut self, available: &ResourceVector) -> Option<ExtResourceVector> {
        if self.stage() == Stage::Stable {
            self.campaign = None;
            return None;
        }
        let fits: Vec<&ExtResourceVector> = self
            .candidates
            .iter()
            .filter(|c| c.resource_vector().fits_within(available))
            .filter(|c| {
                self.table
                    .find_by_erv(c)
                    .is_none_or(|id| !self.table.is_measured(id))
            })
            .collect();
        if fits.is_empty() {
            self.campaign = None;
            return None;
        }
        let chosen = match self.stage() {
            Stage::Initial => self.pick_most_distant(&fits),
            Stage::Refinement => self.pick_by_model_anomaly(&fits),
            Stage::Stable => unreachable!("handled above"),
        };
        self.campaign = Some(Campaign {
            erv: chosen.clone(),
            ema_utility: Ema::new(self.cfg.ema_alpha),
            ema_power: Ema::new(self.cfg.ema_alpha),
            samples: 0,
        });
        Some(chosen)
    }

    /// Feeds one (utility, power) sample of the current campaign. When the
    /// campaign completes, the EMA-smoothed characteristics are recorded as
    /// a measured operating point.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Other`] if no campaign is running.
    pub fn record_sample(&mut self, utility: f64, power: f64) -> Result<SampleOutcome> {
        self.total_samples += 1;
        let cfg_needed = self.cfg.measurements_per_point;
        let campaign = self
            .campaign
            .as_mut()
            .ok_or_else(|| HarpError::other("no measurement campaign running"))?;
        campaign.ema_utility.update(utility.max(0.0));
        campaign.ema_power.update(power.max(0.0));
        campaign.samples += 1;
        if campaign.samples >= cfg_needed {
            let done = self.campaign.take().expect("campaign exists");
            let nfc = NonFunctional::new(
                done.ema_utility.value().unwrap_or(0.0),
                done.ema_power.value().unwrap_or(0.0),
            );
            self.table.record_measurement(done.erv, nfc);
            self.generation += 1;
            Ok(SampleOutcome::TargetDone)
        } else {
            Ok(SampleOutcome::Continue)
        }
    }

    /// Updates an already-measured point with an ambient observation (the
    /// stable stage keeps refining points while the application simply runs
    /// on its allocation, §6.5).
    pub fn record_ambient(&mut self, erv: &ExtResourceVector, utility: f64, power: f64) {
        self.total_samples += 1;
        self.generation += 1;
        if let Some(id) = self.table.find_by_erv(erv) {
            if let Some(op) = self.table.get(id) {
                let alpha = self.cfg.ema_alpha;
                let nfc = NonFunctional::new(
                    alpha * utility.max(0.0) + (1.0 - alpha) * op.nfc.utility,
                    alpha * power.max(0.0) + (1.0 - alpha) * op.nfc.power,
                );
                self.table.record_measurement(erv.clone(), nfc);
            }
        } else {
            self.table.record_measurement(
                erv.clone(),
                NonFunctional::new(utility.max(0.0), power.max(0.0)),
            );
        }
    }

    /// Refits the regression model on the measured points and replaces all
    /// predicted table entries with fresh predictions over the candidate
    /// space. Returns the fitted model, or `None` with fewer than three
    /// measurements.
    pub fn refresh_predictions(&mut self) -> Option<NfcModel> {
        let model = self.fit_model()?;
        self.generation += 1;
        self.table.clear_predictions();
        for c in self.candidates.iter() {
            if self
                .table
                .find_by_erv(c)
                .is_none_or(|id| !self.table.is_measured(id))
            {
                let p = model.predict(c);
                self.table.record_prediction(c.clone(), p.to_nfc());
            }
        }
        Some(model)
    }

    /// The Pareto-optimal operating points of the current table (maximize
    /// utility, minimize power), as allocation candidates.
    pub fn pareto_options(&self) -> Vec<(OpId, ExtResourceVector, NonFunctional)> {
        let entries: Vec<(OpId, &harp_types::OperatingPoint)> = self
            .table
            .iter()
            .filter(|(_, p)| !p.erv.is_zero() && p.nfc.utility > 0.0)
            .collect();
        if entries.is_empty() {
            return Vec::new();
        }
        let objectives: Vec<Vec<f64>> = entries
            .iter()
            .map(|(_, p)| vec![-p.nfc.utility, p.nfc.power, p.erv.total_cores() as f64])
            .collect();
        pareto::pareto_front_indices(&objectives)
            .into_iter()
            .map(|i| {
                let (id, p) = &entries[i];
                (*id, p.erv.clone(), p.nfc)
            })
            .collect()
    }

    fn fit_model(&self) -> Option<NfcModel> {
        let samples: Vec<(ExtResourceVector, NonFunctional)> = self
            .table
            .iter_measured()
            .map(|(_, p)| (p.erv.clone(), p.nfc))
            .collect();
        if samples.len() < 3 {
            return None;
        }
        let mut model = NfcModel::new(self.cfg.model, self.cfg.seed);
        model.fit(&samples).ok()?;
        Some(model)
    }

    /// Initial stage: maximize the minimum distance to measured vectors.
    fn pick_most_distant(&self, fits: &[&ExtResourceVector]) -> ExtResourceVector {
        let measured: Vec<ExtResourceVector> = self
            .table
            .iter_measured()
            .map(|(_, p)| p.erv.clone())
            .collect();
        if measured.is_empty() {
            // Nothing measured: start in the middle of the space (the most
            // informative single point for a later model).
            let mid = fits.len() / 2;
            return fits[mid].clone();
        }
        fits.iter()
            .max_by(|a, b| {
                let da = min_distance(a, &measured);
                let db = min_distance(b, &measured);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|e| (*e).clone())
            .expect("fits nonempty")
    }

    /// Refinement stage: negative-prediction hunting, then zero-anchored
    /// model discrepancy.
    fn pick_by_model_anomaly(&self, fits: &[&ExtResourceVector]) -> ExtResourceVector {
        let model = match self.fit_model() {
            Some(m) => m,
            None => return self.pick_most_distant(fits),
        };
        // Scales for normalizing anomaly magnitudes.
        let u_scale = self.table.max_utility().max(1e-9);
        let p_scale = self
            .table
            .iter_measured()
            .map(|(_, p)| p.nfc.power)
            .fold(0.0_f64, f64::max)
            .max(1e-9);

        // 1) Configurations with negative predictions, scored by the
        //    combined (geometric-mean) negative deviation.
        let mut best_neg: Option<(f64, &ExtResourceVector)> = None;
        for c in fits {
            let p = model.predict(c);
            let neg_u = (-p.utility).max(0.0) / u_scale;
            let neg_p = (-p.power).max(0.0) / p_scale;
            if neg_u <= 0.0 && neg_p <= 0.0 {
                continue;
            }
            let score = if neg_u > 0.0 && neg_p > 0.0 {
                (neg_u * neg_p).sqrt()
            } else {
                // A single negative deviation still marks an anomaly, at
                // half weight.
                0.5 * neg_u.max(neg_p)
            };
            if best_neg.is_none_or(|(s, _)| score > s) {
                best_neg = Some((score, c));
            }
        }
        if let Some((_, c)) = best_neg {
            return c.clone();
        }

        // 2) Zero-anchored auxiliary model: largest prediction discrepancy.
        let mut aux_samples: Vec<(ExtResourceVector, NonFunctional)> = self
            .table
            .iter_measured()
            .map(|(_, p)| (p.erv.clone(), p.nfc))
            .collect();
        aux_samples.push((
            ExtResourceVector::zero(&self.shape),
            NonFunctional::new(0.0, 0.0),
        ));
        let mut aux = NfcModel::new(self.cfg.model, self.cfg.seed);
        if aux.fit(&aux_samples).is_err() {
            return self.pick_most_distant(fits);
        }
        fits.iter()
            .max_by(|a, b| {
                let da = discrepancy(&model, &aux, a, u_scale, p_scale);
                let db = discrepancy(&model, &aux, b, u_scale, p_scale);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|e| (*e).clone())
            .expect("fits nonempty")
    }
}

fn min_distance(erv: &ExtResourceVector, measured: &[ExtResourceVector]) -> f64 {
    measured
        .iter()
        .map(|m| erv.distance(m).unwrap_or(f64::INFINITY))
        .fold(f64::INFINITY, f64::min)
}

fn discrepancy(
    primary: &NfcModel,
    aux: &NfcModel,
    erv: &ExtResourceVector,
    u_scale: f64,
    p_scale: f64,
) -> f64 {
    let a = primary.predict(erv);
    let b = aux.predict(erv);
    let du = (a.utility - b.utility).abs() / u_scale;
    let dp = (a.power - b.power).abs() / p_scale;
    (du * dp).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_platform::presets;

    fn mk_explorer() -> Explorer {
        let hw = presets::tiny_test();
        Explorer::new(
            &hw.erv_shape(),
            &hw.capacity(),
            ExplorationConfig::default(),
        )
        .unwrap()
    }

    /// A smooth synthetic ground truth for driving campaigns.
    fn truth(erv: &ExtResourceVector) -> (f64, f64) {
        let threads = erv.total_threads() as f64;
        let big = erv.threads_of_kind(0) as f64;
        let little = erv.threads_of_kind(1) as f64;
        let utility = 2.0 * big + 1.0 * little + 0.2 * threads;
        let power = 2.5 * big + 0.5 * little + 1.0;
        (utility, power)
    }

    fn run_campaign(ex: &mut Explorer, available: &ResourceVector) -> Option<ExtResourceVector> {
        let target = ex.begin_target(available)?;
        let (u, p) = truth(&target);
        while let SampleOutcome::Continue = ex.record_sample(u, p).unwrap() {}
        Some(target)
    }

    #[test]
    fn stage_progression_matches_thresholds() {
        let mut ex = mk_explorer();
        assert_eq!(ex.stage(), Stage::Initial);
        let cap = ResourceVector::new(vec![2, 2]);
        let mut measured = 0;
        while ex.stage() != Stage::Stable {
            let t = run_campaign(&mut ex, &cap);
            if t.is_none() {
                break; // candidate space exhausted
            }
            measured += 1;
            if measured == ex.config().initial_threshold {
                assert_eq!(ex.stage(), Stage::Refinement);
            }
            assert!(measured <= 50, "never stabilized");
        }
        // tiny_test has 17 nonzero candidates; with stable_threshold 25 the
        // space exhausts first — stable is reached via threshold only on
        // larger machines, so accept either exhaustion or stability.
        assert!(ex.table().measured_count() >= 16);
    }

    #[test]
    fn campaigns_take_exactly_n_samples() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        let t = ex.begin_target(&cap).unwrap();
        let (u, p) = truth(&t);
        for i in 0..ex.config().measurements_per_point {
            let out = ex.record_sample(u, p).unwrap();
            if i + 1 < ex.config().measurements_per_point {
                assert_eq!(out, SampleOutcome::Continue);
            } else {
                assert_eq!(out, SampleOutcome::TargetDone);
            }
        }
        assert_eq!(ex.table().measured_count(), 1);
        assert!(ex.current_target().is_none());
        assert!(ex.record_sample(1.0, 1.0).is_err());
    }

    #[test]
    fn targets_respect_available_resources() {
        let mut ex = mk_explorer();
        let tight = ResourceVector::new(vec![1, 0]);
        for _ in 0..3 {
            match run_campaign(&mut ex, &tight) {
                Some(t) => {
                    assert!(t.resource_vector().fits_within(&tight), "{t}");
                }
                None => break,
            }
        }
    }

    #[test]
    fn initial_stage_maximizes_diversity() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        let first = run_campaign(&mut ex, &cap).unwrap();
        let second = run_campaign(&mut ex, &cap).unwrap();
        assert_ne!(first, second);
        // The second target is far from the first: at least the median
        // pairwise distance of the space.
        let d = first.distance(&second).unwrap();
        assert!(d >= 1.5, "distance {d}");
    }

    #[test]
    fn seeded_offline_tables_start_stable() {
        let hw = presets::raptor_lake();
        let mut ex = Explorer::new(
            &hw.erv_shape(),
            &hw.capacity(),
            ExplorationConfig::default(),
        )
        .unwrap();
        let shape = hw.erv_shape();
        let points: Vec<(ExtResourceVector, NonFunctional)> = (1..=25)
            .map(|i| {
                let e = (i % 16) + 1;
                let p2 = i % 8;
                let erv = ExtResourceVector::from_flat(&shape, &[0, p2 as u32, e as u32]).unwrap();
                let (u, p) = (i as f64, 2.0 * i as f64);
                (erv, NonFunctional::new(u, p))
            })
            .collect();
        // Duplicate vectors collapse, so count unique ones.
        ex.seed_measured(points);
        if ex.table().measured_count() >= 25 {
            assert_eq!(ex.stage(), Stage::Stable);
            assert!(ex.begin_target(&hw.capacity()).is_none());
        } else {
            assert_ne!(ex.stage(), Stage::Stable);
        }
    }

    #[test]
    fn predictions_cover_candidate_space() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        for _ in 0..6 {
            run_campaign(&mut ex, &cap);
        }
        let model = ex.refresh_predictions();
        assert!(model.is_some());
        // All 17 nonzero candidates are in the table now (measured or
        // predicted).
        assert_eq!(ex.table().len(), 17);
        assert!(ex.table().measured_count() >= 6);
    }

    #[test]
    fn model_learns_the_synthetic_truth() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        for _ in 0..10 {
            run_campaign(&mut ex, &cap);
        }
        let model = ex.refresh_predictions().unwrap();
        // Check prediction quality on an arbitrary candidate.
        let shape = presets::tiny_test().erv_shape();
        let probe = ExtResourceVector::from_flat(&shape, &[1, 0, 1]).unwrap();
        let (u, p) = truth(&probe);
        let pred = model.predict(&probe);
        assert!(
            (pred.utility - u).abs() / u < 0.25,
            "{} vs {u}",
            pred.utility
        );
        assert!((pred.power - p).abs() / p < 0.25, "{} vs {p}", pred.power);
    }

    #[test]
    fn pareto_options_are_nondominated() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        for _ in 0..8 {
            run_campaign(&mut ex, &cap);
        }
        let options = ex.pareto_options();
        assert!(!options.is_empty());
        for (i, (_, _, a)) in options.iter().enumerate() {
            for (j, (_, _, b)) in options.iter().enumerate() {
                if i != j {
                    let dominates = b.utility >= a.utility && b.power <= a.power;
                    let strictly = b.utility > a.utility || b.power < a.power;
                    // Allow equal-core trade-offs: dominance must also win
                    // on cores to exclude (checked in pareto_options).
                    if dominates && strictly {
                        let (_, ea, _) = &options[i];
                        let (_, eb, _) = &options[j];
                        assert!(
                            eb.total_cores() >= ea.total_cores(),
                            "{j} dominates {i} in all objectives"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ambient_updates_blend_with_ema() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        let t = run_campaign(&mut ex, &cap).unwrap();
        let before = ex
            .table()
            .get(ex.table().find_by_erv(&t).unwrap())
            .unwrap()
            .nfc;
        ex.record_ambient(&t, before.utility * 2.0, before.power * 2.0);
        let after = ex
            .table()
            .get(ex.table().find_by_erv(&t).unwrap())
            .unwrap()
            .nfc;
        // Moves toward the new observation but only by alpha.
        assert!(after.utility > before.utility);
        assert!(after.utility < before.utility * 1.2);
    }

    /// Table contents as bits, to tell "changed" from "unchanged" exactly.
    fn table_bits(ex: &Explorer) -> Vec<(Vec<u32>, u64, u64, bool)> {
        ex.table()
            .iter()
            .map(|(id, p)| {
                (
                    p.erv.flat(),
                    p.nfc.utility.to_bits(),
                    p.nfc.power.to_bits(),
                    ex.table().is_measured(id),
                )
            })
            .collect()
    }

    #[test]
    fn generation_moves_exactly_when_the_table_does() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        let shape = presets::tiny_test().erv_shape();
        let mut seen = vec![ex.generation()];
        // Runs a mutating step and requires a generation never seen before.
        let mut bumped = |ex: &mut Explorer, what: &str, step: &mut dyn FnMut(&mut Explorer)| {
            step(ex);
            assert!(
                !seen.contains(&ex.generation()),
                "{what} left the generation at a used value"
            );
            seen.push(ex.generation());
        };

        bumped(&mut ex, "seed_measured", &mut |ex| {
            let erv = ExtResourceVector::from_flat(&shape, &[0, 1, 0]).unwrap();
            ex.seed_measured([(erv, NonFunctional::new(3.0, 2.0))]);
        });
        bumped(&mut ex, "a completed campaign", &mut |ex| {
            let t = ex.begin_target(&cap).unwrap();
            let (u, p) = truth(&t);
            let before = (ex.generation(), table_bits(ex));
            // Samples short of the campaign's end leave table and
            // generation alone; only the completing one moves them.
            for _ in 1..ex.config().measurements_per_point {
                assert_eq!(ex.record_sample(u, p).unwrap(), SampleOutcome::Continue);
                assert_eq!((ex.generation(), table_bits(ex)), before);
            }
            assert_eq!(ex.record_sample(u, p).unwrap(), SampleOutcome::TargetDone);
        });
        bumped(&mut ex, "record_ambient on a measured point", &mut |ex| {
            let erv = ExtResourceVector::from_flat(&shape, &[0, 1, 0]).unwrap();
            ex.record_ambient(&erv, 4.0, 2.5);
        });
        bumped(&mut ex, "record_ambient on a new point", &mut |ex| {
            let erv = ExtResourceVector::from_flat(&shape, &[0, 0, 2]).unwrap();
            ex.record_ambient(&erv, 1.0, 0.5);
        });
        for _ in 0..3 {
            bumped(&mut ex, "a completed campaign", &mut |ex| {
                run_campaign(ex, &cap).unwrap();
            });
        }
        bumped(&mut ex, "refresh_predictions", &mut |ex| {
            assert!(ex.refresh_predictions().is_some());
        });

        // Read-only methods, a failed sample, campaign starts and a refit
        // that cannot run: table and generation both stay put.
        let before = (ex.generation(), table_bits(&ex));
        let _ = (ex.table(), ex.total_samples(), ex.stage(), ex.config());
        let _ = (ex.current_target(), ex.pareto_options());
        assert!(ex.record_sample(1.0, 1.0).is_err());
        ex.begin_target(&cap).unwrap();
        assert_eq!((ex.generation(), table_bits(&ex)), before);
        let mut fresh = mk_explorer();
        let before = (fresh.generation(), table_bits(&fresh));
        assert!(fresh.refresh_predictions().is_none());
        assert_eq!((fresh.generation(), table_bits(&fresh)), before);
    }

    #[test]
    fn explorers_share_one_candidate_space() {
        let hw = presets::raptor_lake();
        let (shape, capacity) = (hw.erv_shape(), hw.capacity());
        let space = Explorer::candidate_space(&shape, &capacity).unwrap();
        assert_eq!(space.len(), 45 * 17 - 1); // P histograms x E counts, minus zero
        let mut shared =
            Explorer::with_candidates(&shape, Arc::clone(&space), ExplorationConfig::default())
                .unwrap();
        let mut own = Explorer::new(&shape, &capacity, ExplorationConfig::default()).unwrap();
        // Same targets in the same order as an explorer that enumerated
        // the space itself, and no copy of the space per explorer.
        for _ in 0..4 {
            let a = run_campaign(&mut shared, &capacity).unwrap();
            let b = run_campaign(&mut own, &capacity).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(Arc::strong_count(&space), 2);
    }

    #[test]
    fn into_table_keeps_exactly_the_measured_points() {
        let mut ex = mk_explorer();
        let cap = ResourceVector::new(vec![2, 2]);
        for _ in 0..6 {
            run_campaign(&mut ex, &cap);
        }
        ex.refresh_predictions().unwrap();
        assert!(ex.table().len() > ex.table().measured_count());
        let measured: Vec<_> = ex.table().iter_measured().map(|(_, p)| p.clone()).collect();
        let table = ex.into_table();
        assert_eq!(table.len(), 6);
        assert_eq!(table.measured_count(), 6);
        assert_eq!(
            table.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(),
            measured
        );
    }

    #[test]
    fn empty_candidate_space_is_rejected() {
        let shape = ErvShape::new(vec![1]);
        let r = Explorer::new(
            &shape,
            &ResourceVector::new(vec![0]),
            ExplorationConfig::default(),
        );
        assert!(r.is_err());
    }
}

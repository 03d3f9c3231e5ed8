//! What one placement decides: chunk assignment, thread → hardware-thread
//! placement, cluster frequencies, per-thread rates and completion times,
//! and the machine's draw. `prepare()` recomputes them when a placement
//! input changed.
//!
//! Placement is a pure function of the online hardware threads and of the
//! sequence of effective masks in round-robin order, so earlier placements
//! are kept as a record per position: the prefix over which the mask
//! sequence (and the online set) is unchanged is replayed without a
//! search, and only the suffix is placed by the bucket search.

use crate::machine::Share;
use crate::sim::SimState;
use crate::{SimThreadId, SimTime};
use harp_types::CoreId;

/// Recorded placements, kept to be replayed, plus the storage the
/// placement pass reuses instead of reallocating per barrier.
#[derive(Debug, Default)]
pub(crate) struct Placement {
    /// The online hardware threads `record` was placed on.
    online: u128,
    /// Per round-robin position: the effective mask and the hardware
    /// thread a search gave it. Entry `i` is the placement of position `i`
    /// for every mask sequence that agrees with the recorded masks on
    /// `0..=i`, so a shorter order keeps the tail for a later, longer one.
    record: Vec<(u128, Option<usize>)>,
    /// Per instance slot: its runnable threads in rank order.
    per_slot: Vec<Vec<SimThreadId>>,
    /// Slots of the live instances with runnable threads, by app id.
    rr_slots: Vec<usize>,
    /// Hardware threads per placement rank (the search's buckets).
    ranks: Vec<u128>,
    /// Per hardware thread: Σ busy fraction (contention) of its queue, in
    /// queue order.
    busy_sum: Vec<f64>,
    /// Per core kind and busy-sibling count `0..=width`: a thread's rate
    /// at the kind's current frequency and thermal cap.
    kind_rates: Vec<f64>,
    /// Per core kind and busy count `0..=width`: a core's draw.
    kind_power: Vec<f64>,
    /// Per hardware thread with a non-empty queue: what its threads' rates
    /// share.
    hwt_rates: Vec<HwtRate>,
}

/// The rate terms every thread queued on one hardware thread shares.
#[derive(Debug, Clone, Copy, Default)]
struct HwtRate {
    /// Rate with the core's current busy siblings.
    shared: f64,
    /// Rate of a lone thread on the core (the SMT-efficiency ceiling).
    solo: f64,
    /// Whether more than one hardware thread of the core is busy.
    smt_busy: bool,
    /// Core kind.
    kind: usize,
    /// Threads time-sharing the hardware thread.
    sharers: usize,
}

impl SimState {
    /// Distributes the iteration work as chunks (called from `prepare`).
    /// `needs_chunks` stays filled for the dynamic re-split pass.
    fn assign_equal_chunks(&mut self) {
        for i in 0..self.needs_chunks.len() {
            // An instance may have departed since its iteration started.
            let Some(slot) = self.slot_of(self.needs_chunks[i]) else {
                continue;
            };
            let inst = &mut self.insts[slot];
            let mut work = inst.iteration_work();
            // Charge pending RM overhead on the master's critical path.
            let overhead = std::mem::replace(&mut inst.pending_overhead, 0.0);
            work += overhead;
            let n = inst.active.len().max(1);
            let chunk = work / n as f64;
            for &t in &inst.active {
                self.threads[t.0].chunk = Some(chunk);
            }
        }
        self.dirty = true;
    }

    /// Re-splits freshly assigned chunks proportionally to observed rates
    /// for applications with dynamic load balancing.
    fn rebalance_dynamic_chunks(&mut self) {
        for i in 0..self.needs_chunks.len() {
            let Some(slot) = self.slot_of(self.needs_chunks[i]) else {
                continue;
            };
            let inst = &self.insts[slot];
            if !inst.spec.dynamic_balance || inst.active.len() <= 1 {
                continue;
            }
            let threads = &mut self.threads;
            let total: f64 = inst.active.iter().filter_map(|t| threads[t.0].chunk).sum();
            let rate_sum: f64 = inst
                .active
                .iter()
                .map(|t| threads[t.0].rate.max(1e-9))
                .sum();
            if rate_sum <= 0.0 {
                continue;
            }
            for t in &inst.active {
                let th = &mut threads[t.0];
                th.chunk = Some(total * th.rate.max(1e-9) / rate_sum);
            }
            // The completion times of the last rate pass are stale.
            self.completion_fresh = false;
        }
        self.needs_chunks.clear();
    }

    /// Recomputes thread→hardware-thread placement (CFS-style: fill idle
    /// hardware threads first, prefer cores without busy siblings, then
    /// balance queue lengths) — for each runnable thread in round-robin
    /// order, the allowed online hardware thread with the smallest
    /// `(queue length, busy siblings, id)`.
    fn place(&mut self, pl: &mut Placement) {
        // The runnable set and each instance's runnable threads in rank
        // order, in one pass over `live`: a team's thread ids ascend with
        // its ranks. Every live thread idles until `compute_rates` rates
        // the placed ones.
        if pl.per_slot.len() < self.insts.len() {
            pl.per_slot.resize_with(self.insts.len(), Vec::new);
        }
        for list in &mut pl.per_slot {
            list.clear();
        }
        self.running.clear();
        for &t in &self.live {
            let th = &mut self.threads[t.0];
            th.rate = 0.0;
            th.counter_rate = 0.0;
            if th.runnable() {
                self.running.push(t);
                pl.per_slot[th.slot].push(t);
            }
        }
        self.work.thread_visits += self.live.len() as u64;
        pl.rr_slots.clear();
        for &app in &self.sorted_app_ids {
            let slot = self.slot_of(app).expect("sorted ids are live");
            if !pl.per_slot[slot].is_empty() {
                pl.rr_slots.push(slot);
            }
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.core_busy.fill(0);
        pl.busy_sum.clear();
        pl.busy_sum.resize(self.topo.n_threads, 0.0);
        // Round-robin across apps so co-running apps interleave fairly.
        // Positions whose mask matches the record's replay its hardware
        // thread while no earlier position diverged; from the first
        // divergence on, each position is searched and recorded.
        if pl.online != self.online {
            pl.online = self.online;
            pl.record.clear();
        }
        let mut searching = false;
        let mut pos = 0;
        let mut round = 0;
        while !pl.rr_slots.is_empty() {
            for &slot in &pl.rr_slots {
                let t = pl.per_slot[slot][round];
                let mask = self.threads[t.0]
                    .affinity_override
                    .unwrap_or(self.insts[slot].affinity)
                    .bits();
                let hwt = match pl.record.get(pos) {
                    Some(&(recorded, hwt)) if !searching && recorded == mask => {
                        self.work.replayed += 1;
                        if let Some(h) = hwt {
                            if self.queues[h].is_empty() {
                                self.core_busy[self.topo.thread_core[h]] += 1;
                            }
                        }
                        hwt
                    }
                    _ => {
                        if !searching {
                            searching = true;
                            pl.record.truncate(pos);
                            self.rebuild_ranks(&mut pl.ranks);
                        }
                        self.work.searches += 1;
                        let hwt = self.search(&mut pl.ranks, mask);
                        pl.record.push((mask, hwt));
                        hwt
                    }
                };
                self.threads[t.0].assigned_hwt = hwt;
                if let Some(h) = hwt {
                    self.queues[h].push(t);
                    pl.busy_sum[h] += self.insts[slot].contention;
                }
                pos += 1;
            }
            round += 1;
            pl.rr_slots.retain(|&slot| pl.per_slot[slot].len() > round);
        }
        self.work.thread_visits += pos as u64;
        self.dirty = false;
    }

    /// Buckets the online hardware threads by placement rank `qlen ·
    /// width + busy_sibs` as the current queues leave them (online ones
    /// only: the OS migrates runnable threads off an offline core, and a
    /// thread whose whole mask is offline stalls).
    fn rebuild_ranks(&self, ranks: &mut Vec<u128>) {
        let width = self.topo.max_smt_width;
        ranks.clear();
        ranks.push(0);
        let mut online = self.online;
        while online != 0 {
            let h = online.trailing_zeros() as usize;
            online &= online - 1;
            let qlen = self.queues[h].len();
            let busy = self.core_busy[self.topo.thread_core[h]];
            let rank = qlen * width + busy - usize::from(qlen > 0);
            if rank >= ranks.len() {
                ranks.resize(rank + 1, 0);
            }
            ranks[rank] |= 1u128 << h;
        }
    }

    /// The best hardware thread for `mask`, re-ranking the buckets for the
    /// thread about to be queued there. The first bucket meeting the mask
    /// holds its best (qlen, busy_sibs) and the lowest set bit the
    /// smallest such hardware thread, so a search costs the buckets
    /// scanned plus re-ranking one core, not a walk over every hardware
    /// thread.
    fn search(&mut self, ranks: &mut Vec<u128>, mask: u128) -> Option<usize> {
        let width = self.topo.max_smt_width;
        let (rank, hwt) = ranks.iter().enumerate().find_map(|(rank, &hwts)| {
            let hit = hwts & mask;
            (hit != 0).then(|| (rank, hit.trailing_zeros() as usize))
        })?;
        let mut rerank = |hwt: usize, from: usize, to: usize| {
            if to >= ranks.len() {
                ranks.resize(to + 1, 0);
            }
            ranks[from] &= !(1u128 << hwt);
            ranks[to] |= 1u128 << hwt;
        };
        // One more in its queue; its own busy-sibling count stands.
        rerank(hwt, rank, rank + width);
        if rank < width {
            // The queue was empty: every sibling gains a busy sibling.
            let core = self.topo.thread_core[hwt];
            for &sib in &self.topo.core_threads[core] {
                if sib != hwt {
                    let qlen = self.queues[sib].len();
                    let from = qlen * width + self.core_busy[core] - usize::from(qlen > 0);
                    rerank(sib, from, from + 1);
                }
            }
            self.core_busy[core] += 1;
        }
        Some(hwt)
    }

    /// Recomputes cluster frequencies, the progress rate of every placed
    /// thread and the earliest chunk completion. Follows `place`, whose
    /// queues and busy counts it reads.
    fn compute_rates(&mut self, pl: &mut Placement) {
        // Governor: instantaneous utilization per cluster.
        for k in 0..self.topo.hw.num_kinds() {
            let busy: usize = (0..self.topo.n_cores)
                .filter(|&core| self.topo.core_kind[core] == k)
                .map(|core| self.core_busy[core])
                .sum();
            let util = busy as f64 / self.topo.cluster_thread_count[k].max(1) as f64;
            self.freqs[k] = self
                .config
                .governor
                .frequency(&self.topo.hw.clusters[k], util);
        }
        // Per instance, for statically balanced teams spanning multiple
        // core kinds: the heterogeneous-barrier-imbalance penalty (paper
        // §2.2), scaled by the actual rate spread between the kinds
        // spanned — the A15/A7 imbalance (≈2.8x) wastes far more barrier
        // time than P/E (≈1.8x). Parked workers count where they last ran.
        for &app in &self.sorted_app_ids {
            let slot = self.slot_of(app).expect("sorted ids are live");
            let inst = &mut self.insts[slot];
            inst.span_factor = 1.0; // multiplying by 1.0 is the identity
            if inst.spec.dynamic_balance || inst.spec.hetero_penalty <= 0.0 {
                continue;
            }
            let mut kinds = 0u128;
            for t in &inst.active {
                if let Some(h) = self.threads[t.0].assigned_hwt {
                    kinds |= 1u128 << self.topo.thread_kind[h];
                }
            }
            if kinds.count_ones() < 2 {
                continue;
            }
            let mut min_rate = f64::INFINITY;
            let mut max_rate = 0.0f64;
            while kinds != 0 {
                let k = kinds.trailing_zeros() as usize;
                kinds &= kinds - 1;
                let rate = self.topo.hw.clusters[k].perf.ips_per_thread
                    * inst.spec.kind_efficiency.get(k).copied().unwrap_or(1.0);
                min_rate = min_rate.min(rate);
                max_rate = max_rate.max(rate);
            }
            if min_rate > 0.0 {
                let spread = (max_rate / min_rate - 1.0).max(0.0);
                inst.span_factor = 1.0 / (1.0 + inst.spec.hetero_penalty * spread);
            }
        }
        self.work.thread_visits += self.live.len() as u64;
        // What the threads of one hardware thread share: the rate at its
        // core's busy-sibling count, per kind. A thermal cap scales
        // effective IPS like a frequency clamp; 1000 permille multiplies by
        // 1.0 (bit-identical when healthy).
        let per_kind = self.topo.max_smt_width + 1;
        pl.kind_rates.clear();
        for (k, cluster) in self.topo.hw.clusters.iter().enumerate() {
            let cap = f64::from(self.faults.cap_permille(k)) / 1000.0;
            pl.kind_rates.extend(
                (0..per_kind).map(|busy| cluster.thread_rate(self.freqs[k], busy as u32) * cap),
            );
        }
        pl.hwt_rates.resize(self.topo.n_threads, HwtRate::default());
        for (hwt, q) in self.queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            let busy_sibs = self.core_busy[self.topo.thread_core[hwt]];
            let kind = self.topo.thread_kind[hwt];
            let rates = &pl.kind_rates[kind * per_kind..];
            pl.hwt_rates[hwt] = HwtRate {
                shared: rates[busy_sibs],
                solo: rates[1],
                smt_busy: busy_sibs > 1,
                kind,
                sharers: q.len(),
            };
        }
        // Raw per-thread rates and the memory-bandwidth demand they make,
        // in ascending thread order.
        let mut demand = 0.0;
        for &t in &self.running {
            let th = &mut self.threads[t.0];
            let Some(hwt) = th.assigned_hwt else {
                continue; // stalled: its whole mask is offline
            };
            let hr = pl.hwt_rates[hwt];
            let inst = &self.insts[th.slot];
            let mut r = hr.shared;
            if hr.smt_busy {
                r = (r * inst.spec.smt_efficiency).min(hr.solo);
            }
            r *= inst.spec.kind_efficiency[hr.kind];
            // Synchronization/contention vs. active workers: contended
            // threads block rather than spin, so the same factor is the
            // thread's busy fraction for the power model.
            r *= inst.contention;
            r *= inst.span_factor;
            // Time sharing + lock-holder preemption.
            let m = hr.sharers;
            if m > 1 {
                r /= m as f64;
                r /= 1.0 + inst.spec.preemption_penalty * (m - 1) as f64;
            }
            th.rate = r * self.rate_scale;
            if th.rate > 0.0 {
                demand += th.rate * inst.spec.mem_intensity;
            }
        }
        // Shared memory bandwidth: proportional scaling of the memory-bound
        // rate portion when aggregate demand exceeds capacity; then the
        // earliest completion at the final rates. Completion time is
        // monotone in chunk / rate, so the smallest quotient gives it.
        let bw = self.topo.hw.mem_bandwidth;
        let scale = if demand > bw { bw / demand } else { 1.0 };
        let mut first = f64::INFINITY;
        for &t in &self.running {
            let th = &mut self.threads[t.0];
            if th.rate <= 0.0 {
                continue;
            }
            let inst = &self.insts[th.slot];
            let mi = inst.spec.mem_intensity;
            let r = th.rate * ((1.0 - mi) + mi * scale);
            th.rate = r;
            let kind = th.assigned_hwt.map_or(0, |h| self.topo.thread_kind[h]);
            th.counter_rate = r * inst.spec.ips_inflation[kind];
            if let Some(chunk) = th.chunk {
                if r > 0.0 {
                    first = first.min(chunk / r);
                }
            }
        }
        self.completion = completion_after(self.time, first);
        self.completion_fresh = true;
        self.work.thread_visits += 2 * self.running.len() as u64;
    }

    /// Recomputes the machine's draw and what each queued thread is
    /// attributed of it (ground-truth attribution). Follows
    /// `compute_rates`.
    fn compute_power(&mut self, pl: &mut Placement) {
        let num_kinds = self.topo.hw.num_kinds();
        let mut package_power = self.topo.hw.package_static_w;
        for k in 0..num_kinds {
            package_power += self.topo.hw.clusters[k].power.cluster_static_w;
        }
        // Per kind and busy count: a core's draw. A thermal cap clamps the
        // effective frequency the power model sees (DVFS-style throttle);
        // cap 1000 is exact identity.
        let per_kind = self.topo.max_smt_width + 1;
        pl.kind_power.clear();
        for (k, cluster) in self.topo.hw.clusters.iter().enumerate() {
            let cap = f64::from(self.faults.cap_permille(k)) / 1000.0;
            pl.kind_power.extend(
                (0..per_kind).map(|busy| cluster.core_power(self.freqs[k] * cap, busy as u32)),
            );
        }
        // Core power is summed per cluster first; the static share joins
        // once the package total has taken the core sum.
        let cluster_power = &mut self.energy.cluster_w;
        cluster_power.fill(0.0);
        for core in 0..self.topo.n_cores {
            if !self.faults.is_online(CoreId(core)) {
                // Hotplugged cores are powered down entirely: no idle
                // draw, no attribution.
                continue;
            }
            let kind = self.topo.core_kind[core];
            let cluster = &self.topo.hw.clusters[kind];
            let busy_count = self.core_busy[core];
            let p = pl.kind_power[kind * per_kind + busy_count];
            // Contention-blocked threads idle the core part-time: scale
            // the core's active power by its mean busy fraction.
            let mean_activity = if busy_count == 0 {
                0.0
            } else {
                self.topo.core_threads[core]
                    .iter()
                    .filter(|&&h| !self.queues[h].is_empty())
                    .map(|&h| pl.busy_sum[h] / self.queues[h].len() as f64)
                    .sum::<f64>()
                    / busy_count as f64
            };
            let p = cluster.power.core_idle_w
                + (p - cluster.power.core_idle_w).max(0.0) * mean_activity;
            cluster_power[kind] += p;
            if busy_count > 0 {
                // Ground-truth attribution of the core's active power.
                let active = (p - cluster.power.core_idle_w).max(0.0);
                let per_hwt = active / busy_count as f64;
                for &h in &self.topo.core_threads[core] {
                    let m = self.queues[h].len() as f64;
                    if m > 0.0 {
                        self.shares[h] = Share {
                            power_w: per_hwt / m,
                            sharers: m,
                        };
                    }
                }
            }
        }
        for (k, cp) in cluster_power.iter_mut().enumerate() {
            package_power += *cp;
            *cp += self.topo.hw.clusters[k].power.cluster_static_w;
        }
        self.energy.package_w = package_power;
    }

    /// Brings chunks, placement, rates and power up to date with the
    /// placement inputs before the next event time is computed.
    pub(crate) fn prepare(&mut self) {
        if !self.needs_chunks.is_empty() {
            self.assign_equal_chunks();
        }
        if self.dirty {
            let mut pl = std::mem::take(&mut self.placement);
            self.place(&mut pl);
            self.compute_rates(&mut pl);
            self.compute_power(&mut pl);
            self.placement = pl;
        }
        if !self.needs_chunks.is_empty() {
            self.rebalance_dynamic_chunks();
        }
    }

    /// The online hardware threads as a mask. Machines wider than an
    /// affinity mask never get this far: `Simulation::run` rejects them.
    pub(crate) fn online_hwts(&self) -> u128 {
        (0..self.topo.n_threads.min(crate::Affinity::MAX_THREADS))
            .filter(|&h| self.faults.is_online(CoreId(self.topo.thread_core[h])))
            .fold(0, |online, h| online | 1u128 << h)
    }
}

/// The simulated time `chunk / rate` seconds after `now`, rounded up to
/// whole nanoseconds (at least one); `None` if it is not finite.
pub(crate) fn completion_after(now: SimTime, chunk_over_rate: f64) -> Option<SimTime> {
    let dt_ns = (chunk_over_rate * 1e9).ceil().max(1.0);
    dt_ns.is_finite().then(|| now + dt_ns as SimTime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{LaunchOpts, SimConfig};
    use crate::{Affinity, AppSpec};
    use harp_platform::{presets, HardwareDescription};
    use harp_types::{AppId, FaultEvent, HwThreadId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Each runnable thread's hardware thread, by ascending thread id.
    type Assignment = Vec<(SimThreadId, Option<usize>)>;

    /// Placement from scratch, frozen as the engine computed it before
    /// the replay: every runnable thread in round-robin order takes the
    /// best allowed online hardware thread by a bucket search. Returns
    /// the assignment and every queue.
    fn reference(st: &SimState) -> (Assignment, Vec<Vec<SimThreadId>>) {
        let mut queues = vec![Vec::new(); st.topo.n_threads];
        let mut core_busy = vec![0usize; st.topo.n_cores];
        let mut assigned = Assignment::new();
        let mut per_app: Vec<Vec<SimThreadId>> = Vec::new();
        for slot in st.sorted_app_ids.iter().filter_map(|&a| st.slot_of(a)) {
            let list: Vec<SimThreadId> = st.insts[slot]
                .threads
                .iter()
                .copied()
                .filter(|t| st.threads[t.0].runnable())
                .collect();
            if !list.is_empty() {
                per_app.push(list);
            }
        }
        let mut order = Vec::new();
        let mut i = 0;
        loop {
            let mut any = false;
            for list in &per_app {
                if i < list.len() {
                    order.push(list[i]);
                    any = true;
                }
            }
            if !any {
                break;
            }
            i += 1;
        }
        let width = st.topo.max_smt_width;
        let mut ranks: Vec<u128> = vec![(0..st.topo.n_threads)
            .filter(|&h| st.faults.is_online(CoreId(st.topo.thread_core[h])))
            .fold(0, |online, h| online | 1u128 << h)];
        for &t in &order {
            let th = &st.threads[t.0];
            let mask = th
                .affinity_override
                .unwrap_or(st.insts[th.slot].affinity)
                .bits();
            let best = ranks.iter().enumerate().find_map(|(rank, &hwts)| {
                let hit = hwts & mask;
                (hit != 0).then(|| (rank, hit.trailing_zeros() as usize))
            });
            assigned.push((t, best.map(|(_, hwt)| hwt)));
            let Some((rank, hwt)) = best else {
                continue;
            };
            let mut rerank = |hwt: usize, from: usize, to: usize| {
                if to >= ranks.len() {
                    ranks.resize(to + 1, 0);
                }
                ranks[from] &= !(1u128 << hwt);
                ranks[to] |= 1u128 << hwt;
            };
            rerank(hwt, rank, rank + width);
            if rank < width {
                let core = st.topo.thread_core[hwt];
                for &sib in &st.topo.core_threads[core] {
                    if sib != hwt {
                        let qlen: usize = queues[sib].len();
                        let from = qlen * width + core_busy[core] - usize::from(qlen > 0);
                        rerank(sib, from, from + 1);
                    }
                }
                core_busy[core] += 1;
            }
            queues[hwt].push(t);
        }
        assigned.sort();
        (assigned, queues)
    }

    /// A random non-empty mask over `n` hardware threads.
    fn random_mask(rng: &mut ChaCha8Rng, n: usize) -> Affinity {
        loop {
            let mask: Affinity = (0..n)
                .filter(|_| rng.random_bool(0.4))
                .map(HwThreadId)
                .collect();
            if !mask.is_empty() {
                return mask;
            }
        }
    }

    /// Drives one machine through a seeded random sequence of arrivals,
    /// mask changes, team resizes, core faults, completions and
    /// departures, checking every `prepare()` against the reference.
    /// Returns `(searches, replayed)`.
    fn drive(hw: HardwareDescription, seed: u64, steps: usize) -> (u64, u64) {
        let n = hw.total_hw_threads();
        let n_cores = hw.num_cores();
        let kinds = hw.num_kinds();
        let mut st = SimState::new(hw, SimConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pick = |rng: &mut ChaCha8Rng, apps: &[AppId]| apps[rng.random_range(0..apps.len())];
        for step in 0..steps {
            let apps = st.app_ids().to_vec();
            match rng.random_range(0..20) {
                0..=2 if apps.len() < 6 => {
                    let spec = AppSpec::builder(format!("app{step}"), kinds)
                        .total_work(1.0e9)
                        .iterations(rng.random_range(1..6))
                        .serial_fraction(if rng.random_bool(0.5) { 0.0 } else { 0.02 })
                        .dynamic_balance(rng.random_bool(0.3))
                        .build()
                        .unwrap();
                    let team = rng.random_range(1..=40);
                    st.spawn_app(spec, LaunchOpts::fixed_team(team), 0);
                }
                3 if !apps.is_empty() => {
                    // Disjoint masks: consecutive blocks, one per app.
                    let block = n.div_ceil(apps.len());
                    for (i, &app) in apps.iter().enumerate() {
                        let lo = (i * block).min(n - 1);
                        let hi = ((i + 1) * block).clamp(lo + 1, n);
                        let mask = (lo..hi).map(HwThreadId).collect();
                        st.set_app_affinity(app, mask).unwrap();
                    }
                }
                4 if !apps.is_empty() => {
                    let mask = if rng.random_bool(0.3) {
                        Affinity::all(n)
                    } else {
                        random_mask(&mut rng, n)
                    };
                    st.set_app_affinity(pick(&mut rng, &apps), mask).unwrap();
                }
                5 | 6 if !apps.is_empty() => {
                    // Per-thread overrides, the shape of the ITD manager.
                    let app = pick(&mut rng, &apps);
                    let threads = st.threads_of_app(app).to_vec();
                    for _ in 0..rng.random_range(1..=4) {
                        let t = threads[rng.random_range(0..threads.len())];
                        let mask = random_mask(&mut rng, n);
                        st.set_thread_affinity(t, mask).unwrap();
                    }
                }
                7 if !apps.is_empty() => {
                    let app = pick(&mut rng, &apps);
                    st.set_team_size(app, rng.random_range(1..=40)).unwrap();
                }
                8 => {
                    let core = CoreId(rng.random_range(0..n_cores));
                    let ev = if rng.random_bool(0.5) {
                        FaultEvent::CoreFail { core }
                    } else {
                        FaultEvent::CoreRecover { core }
                    };
                    st.apply_fault(&ev);
                }
                9 if !apps.is_empty() && rng.random_bool(0.3) => {
                    st.finish_app(pick(&mut rng, &apps), false);
                }
                _ => {
                    // Completions: a few running workers finish their
                    // chunks (the event loop's common case).
                    for _ in 0..rng.random_range(1..=3) {
                        if st.running.is_empty() {
                            break;
                        }
                        let t = st.running[rng.random_range(0..st.running.len())];
                        if st.threads[t.0].runnable() {
                            st.complete_chunk(t);
                        }
                    }
                }
            }
            st.prepare();
            let (assigned, queues) = reference(&st);
            let placed: Vec<_> = st
                .running
                .iter()
                .map(|&t| (t, st.threads[t.0].assigned_hwt))
                .collect();
            assert_eq!(placed, assigned, "seed {seed} step {step}: assignment");
            assert_eq!(st.queues, queues, "seed {seed} step {step}: queues");
        }
        let work = st.work_counters();
        (work.searches, work.replayed)
    }

    #[test]
    fn replayed_placement_equals_placement_from_scratch() {
        for seed in 0..6 {
            for hw in [presets::raptor_lake(), presets::tiny_test()] {
                let (searches, replayed) = drive(hw, seed, 400);
                assert!(searches > 0 && replayed > 0, "{searches} / {replayed}");
            }
        }
    }
}

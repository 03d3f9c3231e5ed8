//! The benchmark's contract: workloads and metrics by name, unit,
//! direction and bound. `BENCHMARK.json` at the repo root carries the
//! same tables for the driver; a unit test keeps the two equal.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "churn_idle",
        why: "2 resident sessions, trivial MMKP: socket, reactor, framing, libharp and journal fixed costs dominate a lifecycle; solver changes should not show here",
    },
    Workload {
        name: "churn_contended",
        why: "20 residents with 12-point profiles, contended but feasible: the RM prologue, lambda-search, repair and core assignment are the majority of a lifecycle",
    },
    Workload {
        name: "fanout_oversub",
        why: "128 residents, infeasible storm profile, co-allocation path: ~3x129 directives per lifecycle, so encode, route, flush and client-side apply dominate",
    },
    Workload {
        name: "online_ticks",
        why: "no sockets: an online-mode RmCore driven by a churn+fault trace at the 50 ms tick cadence under seeded observation noise; explore, model, energy, warm solves and fault handling do the work",
    },
    Workload {
        name: "paper_outcome",
        why: "every intel_multi scenario under CFS and under HARP with learned points: the only workload whose result is energy and time, it guards decision quality",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

// Bounds are at least three times the quartile spread seen over ten seeds
// on the 2-CPU reference host (see README.md, "Steadiness").
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.12),
    e2e("op_p50_us", "us", Better::Lower, 0.10),
    e2e("op_p99_us", "us", Better::Lower, 0.20),
    e2e("activate_p50_us", "us", Better::Lower, 0.25),
    e2e("activate_p99_us", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.12),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("alloc_cost_x", "x", Better::Lower, 0.15),
    e2e("energy_vs_cfs_x", "x", Better::Higher, 0.05),
    e2e("time_vs_cfs_x", "x", Better::Higher, 0.08),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 77] = [
    lo("proto.encode_ns_per_frame", "ns"),
    lo("proto.decode_ns_per_frame", "ns"),
    lo("proto.allocs_per_frame", "count"),
    lo("proto.frames_per_op", "count"),
    lo("proto.bytes_per_op", "B"),
    lo("daemon.connect_p50_us", "us"),
    lo("daemon.norm_rtt_p50_us", "us"),
    lo("daemon.exit_to_eof_p50_us", "us"),
    lo("daemon.fanout_tail_p50_us", "us"),
    lo("daemon.frames_per_op", "count"),
    lo("daemon.flush_calls_per_op", "count"),
    lo("daemon.read_syscalls_per_op", "count"),
    lo("daemon.write_syscalls_per_op", "count"),
    lo("daemon.ctx_switches_per_op", "count"),
    lo("daemon.allocs_per_op", "count"),
    lo("daemon.err_replies", "count"),
    lo("daemon.hangups", "count"),
    lo("daemon.dead_stream_pruned", "count"),
    lo("libharp.connect_p50_us", "us"),
    lo("libharp.poll_idle_ns", "ns"),
    lo("libharp.apply_ns_per_activation", "ns"),
    lo("libharp.exit_p50_us", "us"),
    lo("rm.register_p50_us", "us"),
    lo("rm.submit_points_p50_us", "us"),
    lo("rm.deregister_p50_us", "us"),
    lo("rm.set_priority_p50_us", "us"),
    lo("rm.inject_fault_p50_us", "us"),
    lo("rm.tick_p50_us", "us"),
    lo("rm.tick_p99_us", "us"),
    lo("rm.solves_per_op", "count"),
    lo("rm.solve_work_per_op", "x"),
    lo("rm.directives_per_op", "count"),
    lo("rm.degraded_rounds", "count"),
    lo("rm.coalloc_share", "x"),
    lo("rm.journal_records_per_op", "count"),
    lo("rm.journal_bytes_per_op", "B"),
    lo("rm.journal_append_ns_per_record", "ns"),
    hi("rm.journal_read_mb_per_s", "MB/s"),
    lo("rm.recover_ms", "ms"),
    lo("rm.span.reallocate_self_us_p50", "us"),
    lo("rm.span.tick_self_us_p50", "us"),
    lo("alloc.cold_solve_us_p50", "us"),
    lo("alloc.warm_solve_us_p50", "us"),
    lo("alloc.cold_work", "x"),
    lo("alloc.warm_work", "x"),
    hi("alloc.memo_hit_share", "x"),
    hi("alloc.certified_share", "x"),
    lo("alloc.full_share", "x"),
    lo("alloc.span.solve_us_p50", "us"),
    lo("alloc.span.cold_schedule_us_p50", "us"),
    lo("alloc.span.warm_certify_us_p50", "us"),
    lo("alloc.span.repair_upgrade_us_p50", "us"),
    lo("explore.pareto_options_ns_p50", "ns"),
    lo("explore.record_sample_ns_p50", "ns"),
    lo("explore.refresh_predictions_us_p50", "us"),
    hi("explore.stable_share_end", "x"),
    lo("explore.ticks_to_stable_p50", "count"),
    lo("model.fit_us_p50", "us"),
    lo("model.predict_ns", "ns"),
    lo("energy.attribute_ns_per_tick", "ns"),
    lo("energy.ledger_charge_ns_per_tick", "ns"),
    lo("energy.conservation_error", "uJ"),
    hi("workload.generate_events_per_s", "1/s"),
    hi("workload.parse_mb_per_s", "MB/s"),
    hi("sim.cfs_sim_s_per_wall_s", "x"),
    hi("sim.harp_sim_s_per_wall_s", "x"),
    lo("sched.learn_s", "s"),
    lo("sched.rm_ticks_per_run", "count"),
    lo("sched.solve_work_per_run", "x"),
    lo("sched.span.tick_us_p50", "us"),
    lo("obs.traced_overhead_pct", "%"),
    lo("obs.events_per_op", "count"),
    lo("obs.events_dropped", "count"),
    lo("obs.disabled_callsite_ns", "ns"),
    lo("bench.residual_pct", "%"),
    lo("bench.timer_ns", "ns"),
    lo("bench.repeat_spread_pct", "%"),
];

/// Metric values of one run, by name. What a workload leaves unset is
/// reported as the neutral value of its table: 1 for an end-to-end ratio
/// that does not apply to the workload, 0 for a layer it does not use.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The command the driver runs (it appends `--workload <name> --seed <n>
/// --seconds <s> --trace <0|1>`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `harp-benchmark spec-json > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let doc = harp_obs::json::parse(&on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
